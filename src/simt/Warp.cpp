//===- simt/Warp.cpp - Lockstep warp round engine -------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Warp.h"
#include "simt/Device.h"
#include "support/Error.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace gpustm;
using namespace gpustm::simt;

namespace {
/// Iterate the set bits of \p Mask in increasing index order.  All mask
/// walks in this file use this helper so lane visitation order is exactly
/// the old 0..warpSize loop order -- a bit-identity requirement for the
/// cost model and convergence resolution.
template <typename FnT> inline void forEachLane(uint64_t Mask, FnT Fn) {
  while (Mask != 0) {
    unsigned I = static_cast<unsigned>(std::countr_zero(Mask));
    Mask &= Mask - 1;
    Fn(I);
  }
}
} // namespace

Warp::Warp(Device &Dev, BlockState &Block, unsigned WarpIdInBlock,
           unsigned NumLanes)
    : Dev(Dev), Block(&Block), WarpIdInBlock(WarpIdInBlock) {
  assert(NumLanes >= 1 && NumLanes <= 64 && "warp size must be in [1,64]");
  Lanes.resize(NumLanes);
  AllLanes = NumLanes == 64 ? ~uint64_t(0) : (uint64_t(1) << NumLanes) - 1;
  StateMask[static_cast<unsigned>(LaneState::Runnable)] = AllLanes;
}

void Warp::setState(unsigned I, LaneState S) {
  LaneState Old = Lanes[I].State;
  if (Old == S)
    return;
  assert(Old != LaneState::Finished && "finished lanes never change state");
  uint64_t Bit = laneBit(I);
  StateMask[static_cast<unsigned>(Old)] &= ~Bit;
  StateMask[static_cast<unsigned>(S)] |= Bit;
  if (S != LaneState::Runnable && S != LaneState::Finished)
    ConvergencePending = true;
  Lanes[I].State = S;
}

void Warp::prefetchFirstRunnable() const {
  uint64_t M = stateMask(LaneState::Runnable);
  if (M == 0)
    return;
  const Lane &L = Lanes[std::countr_zero(M)];
  __builtin_prefetch(&L);
  if (const char *SP = static_cast<const char *>(L.Fib.savedSP())) {
    __builtin_prefetch(SP);
    __builtin_prefetch(SP + 56);
  }
}

uint64_t Warp::contextMask() const {
  if (Stack.empty())
    return liveMask(AllLanes);
  const SimtFrame &F = Stack.back();
  switch (F.Kind) {
  case SimtFrame::If:
    switch (F.IfPhase) {
    case SimtFrame::PhaseThen:
      return liveMask(F.ThenMask);
    case SimtFrame::PhaseElse:
      return liveMask(F.ElseMask);
    case SimtFrame::PhaseJoin:
      return liveMask(F.Members);
    }
    break;
  case SimtFrame::Loop:
    if (F.LoopActive != 0)
      return liveMask(F.LoopActive);
    return liveMask(F.Members);
  }
  gpustm_unreachable("bad frame kind");
}

void Warp::releaseLanes(uint64_t Mask) {
  // Lanes already runnable need no transition; finished lanes never return.
  forEachLane(liveMask(Mask) & ~stateMask(LaneState::Runnable),
              [&](unsigned I) { setState(I, LaneState::Runnable); });
}

void Warp::releaseBlockBarrier() {
  forEachLane(stateMask(LaneState::AtBlockBarrier),
              [&](unsigned I) { setState(I, LaneState::Runnable); });
}

void Warp::reportOp(unsigned I) {
  const Lane &L = Lanes[I];
  bool Finished = L.Fib.isFinished();
  TraceEvent E;
  E.IssueCycle = Dev.CurrentIssueCycle;
  E.BlockIdx = Block->BlockIdx;
  E.WarpIdInBlock = WarpIdInBlock;
  E.LaneIdx = I;
  E.SmIdx = Block->HomeSM;
  E.Kind = Finished ? OpKind::None : L.PendingOp.Kind;
  E.Address = Finished ? InvalidAddr : L.PendingOp.Address;
  E.Value = E.Address != InvalidAddr ? Dev.Mem.load(E.Address) : 0;
  E.LanePhase = L.CurPhase;
  for (Observer *O : Dev.observers())
    O->onOp(E);
}

void Warp::stepLane(unsigned I) {
  Lane &L = Lanes[I];
  assert(L.State == LaneState::Runnable && "stepping a non-runnable lane");
  // No need to clear PendingOp: every yield path rewrites it in full, and
  // a finished lane's stale PendingOp is never read (reportOp and
  // costRound both check for the finish first).
  L.Fib.resume();
  // Report before any later lane of the round runs, so the op's value is
  // the one this lane's access left in memory.
  if (GPUSTM_UNLIKELY(Dev.observed()))
    reportOp(I);
  if (L.Fib.isFinished()) {
    setState(I, LaneState::Finished);
    ConvergencePending = true; // A finish can complete a convergence.
    Dev.Stacks.release(L.Fib.takeStack());
    // Weak memory: an exiting lane's buffered stores must reach memory
    // (oracle-ordered; exit is a flush point but not an ordering point).
    if (GPUSTM_UNLIKELY(Dev.ActiveWmm != nullptr))
      Dev.ActiveWmm->laneFinished(L.Ctx.globalThreadId());
    Dev.noteLaneFinished(*Block);
    return;
  }

  // Classify the yielded operation into a scheduling state.
  switch (L.PendingOp.Kind) {
  case OpKind::Load:
  case OpKind::Store:
  case OpKind::Atomic:
  case OpKind::Fence:
  case OpKind::Compute:
    break; // Data ops: the lane stays runnable.
  case OpKind::WarpSync:
    setState(I, LaneState::AtWarpSync);
    break;
  case OpKind::Ballot:
    setState(I, LaneState::AtBallot);
    break;
  case OpKind::BranchBegin:
    setState(I, LaneState::AtBranchBegin);
    break;
  case OpKind::BranchElse:
    // An else-side lane passing through the else boundary while the frame
    // executes the else phase keeps running; a then-side lane parks.
    if (!Stack.empty() && Stack.back().Kind == SimtFrame::If &&
        Stack.back().IfPhase == SimtFrame::PhaseElse &&
        (Stack.back().ElseMask & laneBit(I)))
      break;
    setState(I, LaneState::AtBranchElse);
    break;
  case OpKind::BranchEnd:
    setState(I, LaneState::AtBranchEnd);
    break;
  case OpKind::LoopBegin:
    setState(I, LaneState::AtLoopBegin);
    break;
  case OpKind::LoopTest:
    setState(I, LaneState::AtLoopTest);
    break;
  case OpKind::LoopEnd:
    setState(I, LaneState::AtLoopEnd);
    break;
  case OpKind::BlockBarrier:
    // Report the arrival with the warp's SIMT context mask: a barrier
    // reached while the context is narrower than the live-lane set is a
    // divergent (hazardous) barrier.
    if (GPUSTM_UNLIKELY(Dev.observed())) {
      SanBarrier B;
      B.Cycle = Dev.CurrentIssueCycle;
      B.WarpGid = L.Ctx.warpGlobalId();
      B.Block = Block->BlockIdx;
      B.Lane = I;
      B.ThreadId = L.Ctx.globalThreadId();
      B.Sm = Block->HomeSM;
      B.ActiveMask = contextMask();
      B.ExpectedMask = liveMask(AllLanes);
      for (Observer *O : Dev.observers())
        O->onBarrierArrive(B);
    }
    setState(I, LaneState::AtBlockBarrier);
    Dev.noteBarrierArrival(*Block);
    break;
  case OpKind::MemWait: {
    // Whether the lane parks or passes immediately, it observes the watched
    // word: an acquire of the last release to that address.
    if (GPUSTM_UNLIKELY(Dev.observed()))
      for (Observer *O : Dev.observers())
        O->onMemWait(L.Ctx.warpGlobalId(), L.PendingOp.Address);
    // Park only when the condition does not already hold; the caller
    // re-checks after waking, so a spurious immediate pass is fine.
    Word Cur = Dev.memory().load(L.PendingOp.Address);
    if (!memWaitSatisfied(L.PendingOp.Wait, Cur, L.PendingOp.Cycles)) {
      setState(I, LaneState::AtMemWait);
      Dev.addWatch(L.PendingOp.Address,
                   {this, I, L.PendingOp.Cycles, L.PendingOp.Wait});
    }
    break;
  }
  case OpKind::None:
    gpustm_unreachable("lane yielded no operation");
  }
}

void Warp::resolveConvergence() {
  for (bool Changed = true; Changed;) {
    Changed = false;

    // Pop frames whose members have all finished.
    while (!Stack.empty() && liveMask(Stack.back().Members) == 0) {
      Stack.pop_back();
      Changed = true;
    }

    uint64_t Ctx = contextMask();
    if (Ctx == 0)
      return; // Warp drained.

    // Warp-wide convergence point.
    if (allInState(Ctx, LaneState::AtWarpSync)) {
      releaseLanes(Ctx);
      Changed = true;
      continue;
    }

    // Warp vote.
    if (allInState(Ctx, LaneState::AtBallot)) {
      uint64_t Mask = 0;
      forEachLane(Ctx, [&](unsigned I) {
        if (Lanes[I].PendingOp.Flag)
          Mask |= laneBit(I);
      });
      forEachLane(Ctx, [&](unsigned I) {
        Lanes[I].OpResult = static_cast<Word>(Mask);
        Lanes[I].OpResultHi = static_cast<Word>(Mask >> 32);
      });
      releaseLanes(Ctx);
      Changed = true;
      continue;
    }

    // simtIf entry: push a frame once every context lane has arrived.
    if (allInState(Ctx, LaneState::AtBranchBegin)) {
      SimtFrame F;
      F.Kind = SimtFrame::If;
      F.Members = Ctx;
      forEachLane(Ctx, [&](unsigned I) {
        if (Lanes[I].PendingOp.Flag)
          F.ThenMask |= laneBit(I);
        else
          F.ElseMask |= laneBit(I);
      });
      if (F.ThenMask != 0) {
        F.IfPhase = SimtFrame::PhaseThen;
        Stack.push_back(F);
        releaseLanes(F.ThenMask);
      } else {
        F.IfPhase = SimtFrame::PhaseElse;
        Stack.push_back(F);
        releaseLanes(F.ElseMask);
      }
      Changed = true;
      continue;
    }

    // simtWhile entry.
    if (allInState(Ctx, LaneState::AtLoopBegin)) {
      SimtFrame F;
      F.Kind = SimtFrame::Loop;
      F.Members = Ctx;
      F.LoopActive = Ctx;
      Stack.push_back(F);
      releaseLanes(Ctx);
      Changed = true;
      continue;
    }

    if (Stack.empty())
      continue;
    SimtFrame &F = Stack.back();

    if (F.Kind == SimtFrame::If) {
      switch (F.IfPhase) {
      case SimtFrame::PhaseThen:
        // Then side complete once every live then-lane parked at the else
        // boundary.
        if (allInState(liveMask(F.ThenMask), LaneState::AtBranchElse)) {
          if (liveMask(F.ElseMask) != 0) {
            F.IfPhase = SimtFrame::PhaseElse;
            releaseLanes(F.ElseMask);
          } else {
            F.IfPhase = SimtFrame::PhaseJoin;
            releaseLanes(F.ThenMask);
          }
          Changed = true;
        }
        break;
      case SimtFrame::PhaseElse:
        // Else side complete once every live else-lane parked at the
        // reconvergence point; drain the then side to it.
        if (allInState(liveMask(F.ElseMask), LaneState::AtBranchEnd)) {
          F.IfPhase = SimtFrame::PhaseJoin;
          releaseLanes(F.ThenMask);
          Changed = true;
        }
        break;
      case SimtFrame::PhaseJoin:
        if (allInState(liveMask(F.Members), LaneState::AtBranchEnd)) {
          uint64_t Members = F.Members;
          Stack.pop_back();
          releaseLanes(Members);
          Changed = true;
        }
        break;
      }
      continue;
    }

    // Loop frame.
    if (F.LoopActive != 0) {
      if (allInState(liveMask(F.LoopActive), LaneState::AtLoopTest)) {
        uint64_t TrueSet = 0;
        uint64_t Remaining = liveMask(F.LoopActive);
        forEachLane(Remaining, [&](unsigned I) {
          if (Lanes[I].PendingOp.Flag)
            TrueSet |= laneBit(I);
        });
        if (TrueSet != 0) {
          // Lanes whose condition turned false are masked off at the loop
          // exit (hardware reconvergence wait): this is what deadlocks the
          // paper's Scheme #1 spinlock.
          forEachLane(Remaining & ~TrueSet,
                      [&](unsigned I) { setState(I, LaneState::AtLoopExit); });
          F.LoopActive = TrueSet;
          releaseLanes(TrueSet);
        } else {
          // Everyone is done: drain all members to the loop end.
          F.LoopActive = 0;
          forEachLane(liveMask(F.Members) & ~stateMask(LaneState::AtLoopEnd),
                      [&](unsigned I) { setState(I, LaneState::Runnable); });
        }
        Changed = true;
      }
    } else {
      if (allInState(liveMask(F.Members), LaneState::AtLoopEnd)) {
        uint64_t Members = F.Members;
        Stack.pop_back();
        releaseLanes(Members);
        Changed = true;
      }
    }
  }
}

RoundCost Warp::costRound(uint64_t Stepped) {
  const TimingConfig &T = Dev.config().Timing;
  RoundCost C;
  C.SmOccupancy = T.IssueCycles;

  // Gather this round's coalescable segments and atomic targets, charging
  // each lane's base cost as we go (paper Figure 5 attribution).  Atomic
  // lanes are charged in a deferred pass because their per-lane cost
  // depends on the final same-address conflict count.
  Addr MemSegments[64];
  unsigned NumMemSegments = 0;
  Addr AtomicAddrs[64];
  unsigned AtomicCounts[64];
  unsigned NumAtomicAddrs = 0;
  uint64_t AtomicLanes = 0;
  uint32_t MaxCompute = 0;
  bool AnyMem = false, AnyAtomic = false, AnyFence = false, AnySync = false;

  auto AddSegment = [&](Addr Segment) {
    for (unsigned I = 0; I < NumMemSegments; ++I)
      if (MemSegments[I] == Segment)
        return;
    MemSegments[NumMemSegments++] = Segment;
  };

  // Lanes that finished this round carry no operation.
  forEachLane(Stepped & ~stateMask(LaneState::Finished), [&](unsigned LaneIdx) {
    Lane &L = Lanes[LaneIdx];
    const Op &O = L.PendingOp;
    switch (O.Kind) {
    case OpKind::Load:
    case OpKind::Store:
    case OpKind::MemWait:
      // A memWait costs one polling load.
      AnyMem = true;
      AddSegment(O.Address / T.SegmentWords);
      L.charge(T.GlobalMemLatency);
      break;
    case OpKind::Atomic: {
      AnyAtomic = true;
      AtomicLanes |= laneBit(LaneIdx);
      bool Found = false;
      for (unsigned I = 0; I < NumAtomicAddrs; ++I) {
        if (AtomicAddrs[I] == O.Address) {
          ++AtomicCounts[I];
          Found = true;
          break;
        }
      }
      if (!Found) {
        AtomicAddrs[NumAtomicAddrs] = O.Address;
        AtomicCounts[NumAtomicAddrs] = 1;
        ++NumAtomicAddrs;
      }
      break;
    }
    case OpKind::Fence:
      AnyFence = true;
      L.charge(T.FenceCycles);
      break;
    case OpKind::Compute:
      MaxCompute = std::max(MaxCompute, O.Cycles);
      L.charge(O.Cycles);
      break;
    default:
      AnySync = true;
      L.charge(T.SyncCycles);
      break;
    }
  });

  uint32_t Latency = 0;
  if (AnyMem) {
    Latency = std::max(Latency, T.GlobalMemLatency);
    C.SmOccupancy += (NumMemSegments - 1) * T.PerSegmentCycles;
    C.MemTransactions += NumMemSegments;
  }
  if (AnyAtomic) {
    unsigned MaxPerAddr = 0;
    for (unsigned I = 0; I < NumAtomicAddrs; ++I)
      MaxPerAddr = std::max(MaxPerAddr, AtomicCounts[I]);
    Latency = std::max(Latency, T.GlobalMemLatency +
                                    (MaxPerAddr - 1) * T.AtomicSerializeCycles);
    C.SmOccupancy += NumAtomicAddrs * T.PerSegmentCycles;
    C.MemTransactions += NumAtomicAddrs;

    // Deferred per-lane atomic attribution with the final conflict counts.
    forEachLane(AtomicLanes, [&](unsigned LaneIdx) {
      Lane &L = Lanes[LaneIdx];
      unsigned Count = 1;
      for (unsigned I = 0; I < NumAtomicAddrs; ++I)
        if (AtomicAddrs[I] == L.PendingOp.Address)
          Count = AtomicCounts[I];
      L.charge(T.GlobalMemLatency + (Count - 1) * T.AtomicSerializeCycles);
    });
  }
  if (AnyFence)
    Latency = std::max(Latency, T.FenceCycles);
  if (MaxCompute > 0) {
    C.SmOccupancy += MaxCompute;
    Latency = std::max(Latency, MaxCompute);
  }
  if (AnySync)
    Latency = std::max(Latency, T.SyncCycles);
  C.WarpLatency = std::max<uint32_t>(C.SmOccupancy, Latency);
  return C;
}

RoundCost Warp::executeRound() {
  // Snapshot the runnable set: only these lanes pay a fiber switch this
  // round; masked-off and parked (memWait, barrier, divergence) lanes are
  // never touched.
  uint64_t Stepped = stateMask(LaneState::Runnable);
  assert(Stepped != 0 && "executeRound without runnable lanes");

  // Step in increasing lane order (bit-identity), software-pipelining the
  // prefetches: Lane structs four steps out (pure address arithmetic) and
  // saved switch frames two steps out (the Lane line arrives two
  // iterations before its FiberSP is read).  Lane stacks are 64.5KB apart,
  // so the frame resume() pops is almost always cold, and two lanes'
  // execution (~300ns) is enough for even a DRAM miss to land.
  unsigned Idx[64];
  unsigned N = 0;
  for (uint64_t Rest = Stepped; Rest != 0; Rest &= Rest - 1)
    Idx[N++] = static_cast<unsigned>(std::countr_zero(Rest));
  for (unsigned K = 0; K < N && K < 4; ++K)
    __builtin_prefetch(&Lanes[Idx[K]]);
  for (unsigned P = 0; P < N; ++P) {
    if (P + 4 < N)
      __builtin_prefetch(&Lanes[Idx[P + 4]]);
    if (P + 2 < N) {
      const Fiber &F = Lanes[Idx[P + 2]].Fib;
      if (const char *SP = static_cast<const char *>(F.savedSP())) {
        __builtin_prefetch(SP);
        __builtin_prefetch(SP + 56); // 7-slot frame may straddle a line
      }
    }
    stepLane(Idx[P]);
  }

  RoundCost Cost = costRound(Stepped);
  if (ConvergencePending) {
    resolveConvergence();
    // Keep resolving on later rounds while any lane remains parked.
    ConvergencePending = (stateMask(LaneState::Runnable) |
                          stateMask(LaneState::Finished)) != AllLanes;
  }

  SimCounters &C = Dev.Counters;
  C.Rounds += 1;
  C.LaneSteps += static_cast<uint64_t>(std::popcount(Stepped));
  C.MemTransactions += Cost.MemTransactions;
  return Cost;
}
