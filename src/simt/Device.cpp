//===- simt/Device.cpp - Simulated GPU device and scheduler ---------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Device.h"
#include "support/EnvOptions.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/MathExtras.h"
#include "support/Parallel.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>

using namespace gpustm;
using namespace gpustm::simt;

namespace gpustm {
namespace simt {
/// The round the calling thread is executing speculatively (or replaying);
/// null on the coordinator outside replays and everywhere in serial mode.
thread_local RoundSpec *ActiveSpecTLS = nullptr;
} // namespace simt
} // namespace gpustm

Device::Device(const DeviceConfig &Config)
    : Config(Config), Mem(Config.MemoryWords),
      Stacks(Config.StackBytes, StackPool::deviceLayout()) {
  if (Config.WarpSize < 1 || Config.WarpSize > 64)
    reportFatalError("warp size must be in [1, 64]");
  if (Config.NumSMs < 1)
    reportFatalError("device needs at least one SM");
  SchedSeed = Config.SchedFuzzSeed != 0 ? Config.SchedFuzzSeed
                                        : envUnsigned("GPUSTM_SCHED_FUZZ", 0);
}

/// Stateless mix of the schedule-fuzz seed with deterministic scheduler
/// state.  Every input is part of the simulated machine state (never host
/// timing or execution-order bookkeeping), so a fuzzed schedule is a pure
/// function of the seed and stays bit-identical under GPUSTM_DEVICE_JOBS
/// speculation, which reproduces exactly this state at commit points.
static uint64_t schedMix(uint64_t Seed, uint64_t A, uint64_t B) {
  uint64_t S = Seed ^ (A * 0x9e3779b97f4a7c15ULL) ^
               (B * 0xbf58476d1ce4e5b9ULL);
  return splitMix64(S);
}

Device::~Device() = default;

void Device::hostFill(Addr Base, size_t NumWords, Word Value) {
  for (size_t I = 0; I < NumWords; ++I)
    Mem.store(Base + static_cast<Addr>(I), Value);
}

void Device::hostWrite(Addr Base, const Word *Data, size_t NumWords) {
  std::memcpy(Mem.data() + Base, Data, NumWords * sizeof(Word));
}

void Device::hostRead(Addr Base, Word *Data, size_t NumWords) const {
  std::memcpy(Data, Mem.data() + Base, NumWords * sizeof(Word));
}

void Device::laneEntry(void *LanePtr) {
  Lane *L = static_cast<Lane *>(LanePtr);
  L->Ctx.Dev->CurrentKernel(L->Ctx);
}

std::unique_ptr<BlockState> Device::buildBlock(unsigned BlockIdx,
                                               unsigned HomeSM) {
  auto Block = std::make_unique<BlockState>();
  Block->BlockIdx = BlockIdx;
  Block->HomeSM = HomeSM;
  Block->LiveLanes = CurrentLaunch.BlockDim;

  unsigned NumWarps =
      static_cast<unsigned>(divideCeil(CurrentLaunch.BlockDim, Config.WarpSize));
  for (unsigned W = 0; W < NumWarps; ++W) {
    unsigned NumLanes = std::min(Config.WarpSize,
                                 CurrentLaunch.BlockDim - W * Config.WarpSize);
    Block->Warps.push_back(
        std::make_unique<Warp>(*this, *Block, W, NumLanes));
    Warp &Wp = *Block->Warps.back();
    for (unsigned I = 0; I < NumLanes; ++I) {
      Lane &L = Wp.lane(I);
      L.Ctx.Dev = this;
      L.Ctx.ParentWarp = &Wp;
      L.Ctx.Self = &L;
      L.Ctx.LaneIdx = I;
      L.Ctx.WarpIdxInBlock = W;
      L.Ctx.ThreadIdx = W * Config.WarpSize + I;
      L.Ctx.BlockIdx = BlockIdx;
      L.Ctx.BlockDimV = CurrentLaunch.BlockDim;
      L.Ctx.GridDimV = CurrentLaunch.GridDim;
      L.Ctx.WarpSizeV = Config.WarpSize;
      L.Fib.init(Stacks.acquire(), &Device::laneEntry, &L);
    }
  }
  return Block;
}

void Device::activatePendingBlocks() {
  unsigned WarpsPerBlock =
      static_cast<unsigned>(divideCeil(CurrentLaunch.BlockDim, Config.WarpSize));
  while (NextPendingBlock < CurrentLaunch.GridDim) {
    // Pick the SM with the most headroom (ties toward lower index), the
    // greedy policy real block schedulers approximate.
    SmState *Best = nullptr;
    for (SmState &Sm : Sms) {
      if (Sm.Blocks.size() >= Config.MaxBlocksPerSM)
        continue;
      if (Sm.ResidentWarps + WarpsPerBlock > Config.MaxWarpsPerSM)
        continue;
      if (Sm.ResidentThreads + CurrentLaunch.BlockDim > Config.MaxThreadsPerSM)
        continue;
      if (!Best || Sm.ResidentThreads < Best->ResidentThreads)
        Best = &Sm;
    }
    if (!Best)
      return;
    unsigned SmIdx = static_cast<unsigned>(Best - Sms.data());
    auto Block = buildBlock(NextPendingBlock, SmIdx);
    for (auto &W : Block->Warps) {
      W->ReadyAt = Best->Clock;
      Best->WarpList.push_back(W.get());
    }
    Best->ResidentWarps += WarpsPerBlock;
    Best->ResidentThreads += CurrentLaunch.BlockDim;
    Best->Blocks.push_back(std::move(Block));
    ++NextPendingBlock;
    ++LiveBlocks;
    recomputeCandidate(*Best);
  }
}

void Device::rollupLane(const Lane &L) {
  for (unsigned P = 0; P < NumPhases; ++P)
    PhaseTotals[P] += L.PhaseCycles[P];
  AbortedTotal += L.AbortedCycles;
  // Cycles still tentative at kernel end (tx attribution scope left open by
  // a discarded lane) count as aborted work.
  for (unsigned P = 0; P < NumPhases; ++P)
    AbortedTotal += L.TxTentative[P];
}

bool Device::retireFinishedBlocks(SmState &Sm) {
  bool Removed = false;
  for (size_t BI = 0; BI < Sm.Blocks.size();) {
    BlockState &B = *Sm.Blocks[BI];
    // LiveLanes counts unfinished lanes across the whole block, so the
    // per-warp allFinished() scan reduces to one comparison.
    if (B.LiveLanes != 0) {
      ++BI;
      continue;
    }
    for (auto &W : B.Warps) {
      for (unsigned I = 0; I < W->numLanes(); ++I)
        rollupLane(W->lane(I));
      Sm.WarpList.erase(
          std::remove(Sm.WarpList.begin(), Sm.WarpList.end(), W.get()),
          Sm.WarpList.end());
    }
    Sm.ResidentWarps -= static_cast<unsigned>(B.Warps.size());
    Sm.ResidentThreads -= CurrentLaunch.BlockDim;
    Sm.Blocks.erase(Sm.Blocks.begin() + static_cast<long>(BI));
    --LiveBlocks;
    Removed = true;
  }
  if (Removed)
    Sm.RoundRobin = 0;
  return Removed;
}

void Device::recomputeCandidateFuzzed(SmState &Sm) {
  // Schedule fuzz: the candidate is drawn from the same set the normal
  // policy considers -- the ready-now warps, or (when none) the warps tied
  // at the minimal ReadyAt -- but the pick within the set is a seeded hash
  // of deterministic SM state.  Any member is a schedule the real RR policy
  // could produce from some prior history, so this explores interleavings
  // without inventing impossible ones.
  Sm.CandWarp = nullptr;
  size_t N = Sm.WarpList.size();
  if (N == 0)
    return;
  unsigned SmIdx = static_cast<unsigned>(&Sm - Sms.data());
  unsigned ReadyNow = 0, Ties = 0;
  uint64_t BestReady = ~uint64_t(0);
  for (Warp *W : Sm.WarpList) {
    if (!W->hasRunnableLane())
      continue;
    if (W->ReadyAt <= Sm.Clock) {
      ++ReadyNow;
    } else if (W->ReadyAt < BestReady) {
      BestReady = W->ReadyAt;
      Ties = 1;
    } else if (W->ReadyAt == BestReady) {
      ++Ties;
    }
  }
  uint64_t Issue;
  unsigned Count;
  bool WantReadyNow = ReadyNow > 0;
  if (WantReadyNow) {
    Issue = Sm.Clock;
    Count = ReadyNow;
  } else if (Ties > 0) {
    Issue = BestReady;
    Count = Ties;
  } else {
    return; // No runnable warp.
  }
  unsigned Pick = static_cast<unsigned>(
      schedMix(SchedSeed, Issue + SmIdx * 0x94d049bb133111ebULL, Count) %
      Count);
  for (size_t Idx = 0; Idx < N; ++Idx) {
    Warp *W = Sm.WarpList[Idx];
    if (!W->hasRunnableLane())
      continue;
    bool InSet = WantReadyNow ? W->ReadyAt <= Sm.Clock : W->ReadyAt == Issue;
    if (!InSet)
      continue;
    if (Pick == 0) {
      Sm.CandWarp = W;
      Sm.CandIssue = Issue;
      Sm.CandIdx = static_cast<unsigned>(Idx);
      break;
    }
    --Pick;
  }
  if (Sm.CandWarp)
    Sm.CandWarp->prefetchFirstRunnable();
}

void Device::recomputeCandidate(SmState &Sm) {
  if (GPUSTM_UNLIKELY(SchedSeed != 0))
    return recomputeCandidateFuzzed(Sm);
  // Round-robin scan from RoundRobin, wrapping once: two plain segments
  // instead of a modulo per step.  The first ready-now warp in RR order
  // wins; otherwise the warp with the earliest ReadyAt does.  Either way
  // CandIssue ends up as the exact cycle the candidate will issue at
  // (max(Clock, ReadyAt)), which the launch loop relies on.
  Sm.CandWarp = nullptr;
  size_t N = Sm.WarpList.size();
  if (N == 0)
    return;
  uint64_t BestReady = ~uint64_t(0);
  Warp *Best = nullptr;
  size_t BestIdx = 0;
  auto Scan = [&](size_t Begin, size_t End) -> bool {
    for (size_t Idx = Begin; Idx < End; ++Idx) {
      Warp *W = Sm.WarpList[Idx];
      if (!W->hasRunnableLane())
        continue;
      if (W->ReadyAt <= Sm.Clock) {
        Sm.CandWarp = W;
        Sm.CandIssue = Sm.Clock;
        Sm.CandIdx = static_cast<unsigned>(Idx);
        return true;
      }
      if (W->ReadyAt < BestReady) {
        BestReady = W->ReadyAt;
        Best = W;
        BestIdx = Idx;
      }
    }
    return false;
  };
  size_t RR = Sm.RoundRobin % N;
  if (!(Scan(RR, N) || Scan(0, RR)) && Best) {
    Sm.CandWarp = Best;
    Sm.CandIssue = BestReady;
    Sm.CandIdx = static_cast<unsigned>(BestIdx);
  }
  // The candidate usually issues within a round or two; start pulling its
  // first lane's switch frame into the host cache now (hint only).
  if (Sm.CandWarp)
    Sm.CandWarp->prefetchFirstRunnable();
}

Device::SmState *Device::pickIssueSm() {
  // The serial scheduler's pick: the SM whose cached candidate issues
  // earliest (ties to the lower SM index by iteration order).
  if (GPUSTM_LIKELY(SchedSeed == 0)) {
    SmState *BestSm = nullptr;
    for (SmState &Sm : Sms) {
      if (!Sm.CandWarp)
        continue;
      if (!BestSm || Sm.CandIssue < BestSm->CandIssue)
        BestSm = &Sm;
    }
    return BestSm;
  }
  // Schedule fuzz: a seeded hash picks among the SMs tied at the minimal
  // issue cycle (the modeled machine runs them concurrently anyway, so any
  // order within the tie is a legal schedule).
  uint64_t BestIssue = ~uint64_t(0);
  unsigned Ties = 0;
  for (SmState &Sm : Sms) {
    if (!Sm.CandWarp)
      continue;
    if (Sm.CandIssue < BestIssue) {
      BestIssue = Sm.CandIssue;
      Ties = 1;
    } else if (Sm.CandIssue == BestIssue) {
      ++Ties;
    }
  }
  if (Ties == 0)
    return nullptr;
  unsigned Pick =
      static_cast<unsigned>(schedMix(SchedSeed, BestIssue, Ties) % Ties);
  for (SmState &Sm : Sms) {
    if (!Sm.CandWarp || Sm.CandIssue != BestIssue)
      continue;
    if (Pick == 0)
      return &Sm;
    --Pick;
  }
  return nullptr;
}

void Device::notifyWriteSlow(Addr A) {
  auto It = Watchpoints.find(A);
  if (It == Watchpoints.end())
    return;
  Word Cur = Mem.load(A);
  WatchBucket &Entries = It->second;
  for (size_t I = 0; I < Entries.size();) {
    WatchEntry &E = Entries[I];
    if (!memWaitSatisfied(E.Wait, Cur, E.Aux)) {
      ++I;
      continue;
    }
    Warp *W = E.W;
    W->setState(E.LaneIdx, LaneState::Runnable);
    // The woken lane has observed the watched word "now".  Its own buffer
    // cannot hold a store to A (parking already drained same-address
    // entries), so this never re-enters the notify path.
    if (GPUSTM_UNLIKELY(ActiveWmm != nullptr))
      ActiveWmm->observeFresh(W->lane(E.LaneIdx).Ctx.globalThreadId(), A);
#if GPUSTM_SAN_ENABLED
    // The waking store happens-before everything the woken lane does next.
    if (GPUSTM_UNLIKELY(San != nullptr))
      San->onWakeEdge(W->lane(E.LaneIdx).Ctx.warpGlobalId(), SanCurWarpGid);
#endif
    // The waiter observes the store one memory round-trip after it issues.
    W->ReadyAt = std::max(
        W->ReadyAt, CurrentIssueCycle + Config.Timing.GlobalMemLatency);
    recomputeCandidate(Sms[W->block().HomeSM]);
    Entries[I] = Entries.back();
    Entries.pop_back();
  }
  if (Entries.empty())
    Watchpoints.erase(It);
}

void Device::noteBarrierArrival(BlockState &Block) {
  ++Block.BarrierArrived;
  if (Block.BarrierArrived < Block.LiveLanes)
    return;
  Block.BarrierArrived = 0;
#if GPUSTM_SAN_ENABLED
  if (GPUSTM_UNLIKELY(San != nullptr))
    San->onBarrierRelease(Block.BlockIdx, /*ByLaneExit=*/false,
                          CurrentIssueCycle);
#endif
  // A speculative round is about to mutate sibling warps' scheduling state;
  // snapshot them first so a discarded round restores the whole block.
  if (RoundSpec *S = ActiveSpecTLS; GPUSTM_UNLIKELY(S != nullptr))
    if (!S->IsReplay)
      snapshotSiblings(*S, Block);
  for (auto &W : Block.Warps)
    W->releaseBlockBarrier();
  // Barrier release: every participant drained on arrival, so moving every
  // floor to "now" gives __syncthreads its all-prior-stores-visible meaning.
  if (GPUSTM_UNLIKELY(ActiveWmm != nullptr))
    ActiveWmm->syncPoint(Block.BlockIdx * CurrentLaunch.BlockDim,
                         CurrentLaunch.BlockDim);
}

void Device::noteLaneFinished(BlockState &Block) {
  assert(Block.LiveLanes > 0 && "lane finished twice");
  --Block.LiveLanes;
  if (Block.LiveLanes == 0) {
    Sms[Block.HomeSM].RetirePending = true;
    return;
  }
  // A barrier can complete when the last non-arrived lane exits (the paper's
  // workloads never rely on this, but it avoids spurious deadlocks).
  if (Block.BarrierArrived >= Block.LiveLanes) {
    Block.BarrierArrived = 0;
#if GPUSTM_SAN_ENABLED
    if (GPUSTM_UNLIKELY(San != nullptr))
      San->onBarrierRelease(Block.BlockIdx, /*ByLaneExit=*/true,
                            CurrentIssueCycle);
#endif
    if (RoundSpec *S = ActiveSpecTLS; GPUSTM_UNLIKELY(S != nullptr))
      if (!S->IsReplay)
        snapshotSiblings(*S, Block);
    for (auto &W : Block.Warps)
      W->releaseBlockBarrier();
    if (GPUSTM_UNLIKELY(ActiveWmm != nullptr))
      ActiveWmm->syncPoint(Block.BlockIdx * CurrentLaunch.BlockDim,
                           CurrentLaunch.BlockDim);
  }
}

void Device::discardInFlight() {
  for (SmState &Sm : Sms) {
    for (auto &Block : Sm.Blocks) {
      for (auto &W : Block->Warps) {
        for (unsigned I = 0; I < W->numLanes(); ++I) {
          Lane &L = W->lane(I);
          rollupLane(L);
          if (L.State != LaneState::Finished)
            Stacks.release(L.Fib.takeStack());
        }
      }
    }
    Sm.Blocks.clear();
    Sm.WarpList.clear();
    Sm.ResidentWarps = 0;
    Sm.ResidentThreads = 0;
    Sm.CandWarp = nullptr;
    Sm.RetirePending = false;
  }
  Watchpoints.clear();
  LiveBlocks = 0;
}

unsigned Device::resolveDeviceJobs() const {
  unsigned Jobs = Config.DeviceJobs != 0 ? Config.DeviceJobs : deviceJobs();
  if (Jobs > 256)
    Jobs = 256;
  if (Jobs <= 1)
    return 1;
#if !defined(__x86_64__)
  // The ucontext fiber fallback exposes no saved stack pointer, so rounds
  // cannot be checkpointed; only the serial loop is available.
  static std::atomic<bool> WarnedBackend{false};
  if (!WarnedBackend.exchange(true))
    std::fprintf(stderr, "gpustm: warning: GPUSTM_DEVICE_JOBS ignored (no "
                         "checkpointable fiber backend on this target); "
                         "running serial\n");
  return 1;
#else
  if (ActiveWmm != nullptr) {
    // The weak-memory model changes values (that is its purpose), and its
    // oracle is keyed on serial operation order; speculation would replay
    // reordered rounds inconsistently.  Always serial, silently: WMM is an
    // explicit opt-in whose docs state it forces the serial loop.
    return 1;
  }
  bool Observed = SerialObserver || static_cast<bool>(TraceHook);
#if GPUSTM_SAN_ENABLED
  Observed = Observed || San != nullptr;
#endif
  if (Observed) {
    // Trace and sanitizer hooks observe rounds as they execute and assume
    // serial round order; speculation would show them misspeculated rounds.
    static std::atomic<bool> WarnedObserver{false};
    if (!WarnedObserver.exchange(true))
      std::fprintf(stderr, "gpustm: warning: serial-order observer attached "
                           "(GPUSTM_TRACE / GPUSTM_SAN); forcing "
                           "GPUSTM_DEVICE_JOBS=1\n");
    return 1;
  }
  return Jobs;
#endif
}

void Device::takeCheckpoint(RoundSpec &S) {
  Warp &W = *S.W;
  S.SteppedMask = W.stateMask(LaneState::Runnable);
  S.SavedLanes.assign(W.Lanes.begin(), W.Lanes.end());
  S.SavedStack = W.Stack;
  std::copy(std::begin(W.StateMask), std::end(W.StateMask),
            std::begin(S.SavedStateMask));
  S.SavedConvergencePending = W.ConvergencePending;
  S.SavedReadyAt = W.ReadyAt;
  BlockState &B = *W.Block;
  S.SavedLiveLanes = B.LiveLanes;
  S.SavedBarrierArrived = B.BarrierArrived;
  S.SavedRetirePending = Sms[S.SmIdx].RetirePending;

  // Only the lanes about to be stepped can change their fiber stack or
  // their host-side client state (the STM descriptor).
  for (uint64_t Mask = S.SteppedMask; Mask != 0; Mask &= Mask - 1) {
    unsigned I = static_cast<unsigned>(std::countr_zero(Mask));
    Lane &L = W.Lanes[I];
    char *SP = static_cast<char *>(const_cast<void *>(L.Fib.savedSP()));
    char *Top = static_cast<char *>(L.Fib.stack().top());
    size_t Bytes = static_cast<size_t>(Top - SP);
    size_t Off = S.StackImage.size();
    S.StackImage.resize(Off + Bytes);
    std::memcpy(S.StackImage.data() + Off, SP, Bytes);
    S.StackSlices.push_back({I, Off, Bytes, SP});
    if (LaneHook.StateBytes != 0) {
      void *P = LaneHook.Locate(L.Ctx.globalThreadId());
      size_t COff = S.ClientImage.size();
      S.ClientImage.resize(COff + LaneHook.StateBytes);
      std::memcpy(S.ClientImage.data() + COff, P, LaneHook.StateBytes);
      S.ClientDsts.push_back(P);
    }
  }
}

void Device::restoreRound(RoundSpec &S) {
  Warp &W = *S.W;
  // Lane values first (this reinstates the fiber handles, including stacks
  // the round pushed to StackReleases), then the live stack bytes those
  // handles point at, then the host-side client records.  Element-wise
  // copies into the existing storage: fiber Arg pointers and Ctx.Self alias
  // the Lane addresses, so the vectors themselves must never reallocate.
  std::copy(S.SavedLanes.begin(), S.SavedLanes.end(), W.Lanes.begin());
  for (const RoundSpec::StackSlice &Sl : S.StackSlices)
    std::memcpy(Sl.Dst, S.StackImage.data() + Sl.Offset, Sl.Bytes);
  for (size_t K = 0; K < S.ClientDsts.size(); ++K)
    std::memcpy(S.ClientDsts[K], S.ClientImage.data() + K * LaneHook.StateBytes,
                LaneHook.StateBytes);
  W.Stack = S.SavedStack;
  std::copy(std::begin(S.SavedStateMask), std::end(S.SavedStateMask),
            std::begin(W.StateMask));
  W.ConvergencePending = S.SavedConvergencePending;
  W.ReadyAt = S.SavedReadyAt;
  BlockState &B = *W.Block;
  B.LiveLanes = S.SavedLiveLanes;
  B.BarrierArrived = S.SavedBarrierArrived;
  Sms[S.SmIdx].RetirePending = S.SavedRetirePending;
  for (const RoundSpec::SiblingSnap &Sn : S.Siblings) {
    Warp &SW = *Sn.W;
    std::copy(Sn.Lanes.begin(), Sn.Lanes.end(), SW.Lanes.begin());
    SW.Stack = Sn.Stack;
    std::copy(std::begin(Sn.StateMask), std::end(Sn.StateMask),
              std::begin(SW.StateMask));
    SW.ConvergencePending = Sn.ConvergencePending;
    SW.ReadyAt = Sn.ReadyAt;
  }
}

void Device::snapshotSiblings(RoundSpec &S, BlockState &Block) {
  for (auto &WPtr : Block.Warps) {
    Warp *W = WPtr.get();
    if (W == S.W)
      continue;
    bool Seen = false;
    for (const RoundSpec::SiblingSnap &Sn : S.Siblings)
      if (Sn.W == W) {
        Seen = true;
        break;
      }
    if (Seen)
      continue;
    RoundSpec::SiblingSnap Sn;
    Sn.W = W;
    Sn.Lanes.assign(W->Lanes.begin(), W->Lanes.end());
    Sn.Stack = W->Stack;
    std::copy(std::begin(W->StateMask), std::end(W->StateMask),
              std::begin(Sn.StateMask));
    Sn.ConvergencePending = W->ConvergencePending;
    Sn.ReadyAt = W->ReadyAt;
    S.Siblings.push_back(std::move(Sn));
  }
}

void Device::specWorkerLoop() {
  for (;;) {
    if (SpecQuit.load(std::memory_order_acquire))
      return;
    bool Ran = false;
    for (auto &SlotPtr : SpecSlots) {
      SpecSlot &Slot = *SlotPtr;
      if (Slot.State.load(std::memory_order_relaxed) != SpecSlot::Queued)
        continue;
      uint32_t Expected = SpecSlot::Queued;
      if (!Slot.State.compare_exchange_strong(Expected, SpecSlot::Running,
                                              std::memory_order_acq_rel))
        continue;
      RoundSpec &S = Slot.Spec;
      takeCheckpoint(S);
      ActiveSpecTLS = &S;
      S.Cost = S.W->executeRound();
      ActiveSpecTLS = nullptr;
      Slot.State.store(SpecSlot::Done, std::memory_order_release);
      Ran = true;
    }
    // Essential on oversubscribed hosts: let the coordinator (or another
    // worker) run instead of burning the timeslice on an empty rescan.
    if (!Ran)
      std::this_thread::yield();
  }
}

void Device::queueSpecs() {
  for (unsigned I = 0; I < SpecSlots.size(); ++I) {
    SmState &Sm = Sms[I];
    if (!Sm.CandWarp)
      continue;
    SpecSlot &Slot = *SpecSlots[I];
    if (Slot.State.load(std::memory_order_relaxed) != SpecSlot::Idle)
      continue;
    // Invariant: every event that can change an SM's candidate reclaims its
    // in-flight spec first, so a non-Idle slot always matches the current
    // candidate and never needs re-queueing.
    Slot.Spec.reset(Sm.CandWarp, Sm.CandIssue, Sm.CandIdx, I,
                    /*Replay=*/false);
    Slot.State.store(SpecSlot::Queued, std::memory_order_release);
  }
}

void Device::reclaimSpec(unsigned SmIdx) {
  SpecSlot &Slot = *SpecSlots[SmIdx];
  uint32_t Expected = SpecSlot::Queued;
  if (Slot.State.compare_exchange_strong(Expected, SpecSlot::Idle,
                                         std::memory_order_acq_rel))
    return; // Never picked up: nothing executed, nothing to undo.
  if (Expected == SpecSlot::Idle)
    return;
  // Running or Done: doom it, wait for the worker to hand the round back,
  // and undo everything it did from the checkpoint.
  RoundSpec &S = Slot.Spec;
  S.Doomed.store(true, std::memory_order_relaxed);
  while (Slot.State.load(std::memory_order_acquire) != SpecSlot::Done)
    std::this_thread::yield();
  restoreRound(S);
  ++Replays;
  Slot.State.store(SpecSlot::Idle, std::memory_order_relaxed);
}

void Device::drainAllSpecs() {
  for (unsigned I = 0; I < SpecSlots.size(); ++I)
    reclaimSpec(I);
}

void Device::drainSpecsForSerialPoint() {
  for (unsigned I = 0; I < SpecSlots.size(); ++I) {
    if (&SpecSlots[I]->Spec == ActiveSpecTLS)
      continue; // The calling replay's own slot.
    reclaimSpec(I);
  }
}

bool Device::commitApply(SmState &Sm, RoundSpec &S) {
  Warp *W = S.W;

  // Any SM with a lane parked on a word this round writes may see its
  // candidate change when the wake lands; its in-flight speculation is then
  // stale under the serial order.  Reclaim those SMs before mutating
  // memory (conservative: reclaim whether or not the wake condition holds).
  if (!Watchpoints.empty() && !S.Writes.empty()) {
    for (const RoundSpec::AccessEntry &E : S.Writes) {
      auto It = Watchpoints.find(E.A);
      if (It == Watchpoints.end())
        continue;
      for (const WatchEntry &WE : It->second) {
        unsigned Home = WE.W->block().HomeSM;
        if (Home != S.SmIdx)
          reclaimSpec(Home);
      }
    }
  }

  // Apply the write buffer in program order with the serial per-store
  // semantics (store, then wake watchers).  The bounds check is defense in
  // depth: every buffered store already passed the op-time check, which
  // dooms the spec (worker) or aborts with full coordinates (replay).
  for (const RoundSpec::AccessEntry &E : S.Writes) {
    if (GPUSTM_UNLIKELY(static_cast<size_t>(E.A) >= Mem.size()))
      reportFatalError(formatString(
          "out-of-bounds global store of word %u (arena holds %zu words) in "
          "speculative commit on SM %u at cycle %llu",
          E.A, Mem.size(), S.SmIdx,
          static_cast<unsigned long long>(S.Issue)));
    Mem.store(E.A, E.V);
    notifyWrite(E.A);
  }

  // Redo the serial end-of-round ConvergencePending recompute now that the
  // commit-time wakes have landed: a serial round saw a same-round wake of
  // one of its own parked lanes before recomputing.
  if (W->ConvergencePending)
    W->ConvergencePending = (W->stateMask(LaneState::Runnable) |
                             W->stateMask(LaneState::Finished)) != W->AllLanes;

  // Register the parks that no same-round store satisfied.
  for (const RoundSpec::PendingPark &P : S.Parks)
    if (!P.Canceled)
      addWatch(P.A, {W, P.LaneIdx, P.Aux, P.Wait});

  // Finished lanes' stacks are safe to recycle now.
  for (FiberStack &St : S.StackReleases)
    Stacks.release(St);
  S.StackReleases.clear();

  Counters.Rounds += S.Counters.Rounds;
  Counters.LaneSteps += S.Counters.LaneSteps;
  Counters.MemTransactions += S.Counters.MemTransactions;
  Counters.Loads += S.Counters.Loads;
  Counters.Stores += S.Counters.Stores;
  Counters.Atomics += S.Counters.Atomics;
  Counters.Fences += S.Counters.Fences;

  // The serial loop's post-round scheduler bookkeeping, verbatim.
  Sm.Clock = S.Issue + S.Cost.SmOccupancy;
  W->ReadyAt = S.Issue + S.Cost.WarpLatency;
  Sm.RoundRobin = static_cast<unsigned>((S.IssuedIdx + 1) % Sm.WarpList.size());

  ++RoundsExecuted;
  if (RoundsExecuted > Config.WatchdogRounds) {
    drainAllSpecs();
    discardInFlight();
    return false;
  }

  if (GPUSTM_UNLIKELY(Sm.RetirePending)) {
    // Retirement can hand fresh blocks to other SMs (their candidates
    // change); no speculation may be in flight across it.
    drainAllSpecs();
    Sm.RetirePending = false;
    if (retireFinishedBlocks(Sm) && NextPendingBlock < CurrentLaunch.GridDim)
      activatePendingBlocks();
  }
  recomputeCandidate(Sm);
  return true;
}

void Device::runParallelLoop(LaunchResult &Result, unsigned Jobs) {
  SpecSlots.clear();
  SpecSlots.reserve(Config.NumSMs);
  for (unsigned I = 0; I < Config.NumSMs; ++I)
    SpecSlots.push_back(std::make_unique<SpecSlot>());
  SpecQuit.store(false, std::memory_order_relaxed);
  SpecWorkers.reserve(Jobs - 1);
  for (unsigned T = 1; T < Jobs; ++T)
    SpecWorkers.emplace_back([this] { specWorkerLoop(); });

  for (;;) {
    queueSpecs();

    SmState *BestSm = pickIssueSm();
    if (!BestSm) {
      drainAllSpecs(); // No candidates implies no specs; defensive.
      if (LiveBlocks == 0 && NextPendingBlock == CurrentLaunch.GridDim) {
        Result.Completed = true;
        break;
      }
      Result.Deadlocked = true;
      discardInFlight();
      break;
    }

    SmState &Sm = *BestSm;
    unsigned SmIdx = static_cast<unsigned>(BestSm - Sms.data());
    Warp *W = Sm.CandWarp;
    uint64_t Issue = Sm.CandIssue;
    unsigned IssuedIdx = Sm.CandIdx;
    CurrentIssueCycle = Issue;

    SpecSlot &Slot = *SpecSlots[SmIdx];
    RoundSpec &S = Slot.Spec;
    bool NeedRun = false;
    uint32_t Expected = SpecSlot::Queued;
    if (Slot.State.compare_exchange_strong(Expected, SpecSlot::Running,
                                           std::memory_order_acq_rel)) {
      // No worker picked the head round up yet: run it here,
      // authoritatively (not a replay for counting purposes).
      NeedRun = true;
    } else {
      while (Slot.State.load(std::memory_order_acquire) != SpecSlot::Done)
        std::this_thread::yield();
      if (!S.Doomed.load(std::memory_order_relaxed) && S.W == W &&
          S.Issue == Issue && S.IssuedIdx == IssuedIdx &&
          S.validateReads(Mem)) {
        // Speculation holds: every value the round read is what it would
        // read at this commit point, so its eager warp mutations and its
        // write buffer are exactly the serial round's.
      } else {
        restoreRound(S);
        ++Replays;
        NeedRun = true;
      }
    }
    if (NeedRun) {
      // Authoritative in-place execution at the commit point.  Still
      // buffered -- workers are concurrently reading the arena -- but never
      // doomed, never checkpointed, and reads are not logged.
      S.reset(W, Issue, IssuedIdx, SmIdx, /*Replay=*/true);
      ActiveSpecTLS = &S;
      S.Cost = W->executeRound();
      ActiveSpecTLS = nullptr;
    }
    // The slot is consumed before commitApply so drainAllSpecs (retirement,
    // watchdog) cannot mistake the committing round for an in-flight spec.
    Slot.State.store(SpecSlot::Idle, std::memory_order_relaxed);
    if (!commitApply(Sm, S)) {
      Result.WatchdogTripped = true;
      break;
    }
  }

  SpecQuit.store(true, std::memory_order_release);
  for (std::thread &T : SpecWorkers)
    T.join();
  SpecWorkers.clear();
  SpecSlots.clear();
}

LaunchResult Device::launch(const LaunchConfig &Launch, KernelFn Kernel) {
  if (Launch.GridDim == 0 || Launch.BlockDim == 0)
    reportFatalError("empty launch configuration");
  if (Launch.BlockDim > Config.MaxThreadsPerSM)
    reportFatalError("block does not fit on an SM");

  CurrentKernel = std::move(Kernel);
  CurrentLaunch = Launch;
  Sms.clear();
  Sms.resize(Config.NumSMs);
  NextPendingBlock = 0;
  LiveBlocks = 0;
  RoundsExecuted = 0;
  Replays = 0;
  Watchpoints.clear();
  CurrentIssueCycle = 0;
  Counters = SimCounters();
  std::fill(std::begin(PhaseTotals), std::end(PhaseTotals), 0);
  AbortedTotal = 0;

#if GPUSTM_SAN_ENABLED
  SanCurWarpGid = 0;
  if (GPUSTM_UNLIKELY(San != nullptr))
    San->onLaunch(Launch.GridDim, Launch.BlockDim, Config.WarpSize);
#endif

  activatePendingBlocks();

  // Weak-memory mode: active only when no SC-assuming observer watches the
  // same launch (trace hooks and simtsan both replay/check values under
  // sequential consistency, so they win and the model sits out).
  ActiveWmm = Wmm;
  if (ActiveWmm != nullptr &&
      (static_cast<bool>(TraceHook) || SerialObserver ||
       sanHooks() != nullptr)) {
    static std::atomic<bool> WarnedWmmConflict{false};
    if (!WarnedWmmConflict.exchange(true))
      std::fprintf(stderr,
                   "gpustm: warning: weak-memory mode (GPUSTM_WMM) disabled "
                   "for launches with a trace/simtsan observer attached\n");
    ActiveWmm = nullptr;
  }
  if (GPUSTM_UNLIKELY(ActiveWmm != nullptr))
    ActiveWmm->beginLaunch(Mem, Launch.totalThreads(), [this](Addr A, Word V) {
      Mem.store(A, V);
      notifyWrite(A);
    });

  LaunchResult Result;
  unsigned Jobs = resolveDeviceJobs();
  if (Jobs > 1)
    runParallelLoop(Result, Jobs);
  else
    runSerialLoop(Result);

  // Leftover buffered stores (watchdog/deadlock aborts) reach memory
  // before the host reads results.
  if (GPUSTM_UNLIKELY(ActiveWmm != nullptr))
    ActiveWmm->endLaunch();

  uint64_t Elapsed = 0;
  for (SmState &Sm : Sms)
    Elapsed = std::max(Elapsed, Sm.Clock);
  Result.ElapsedCycles = Elapsed;
  Result.TotalRounds = RoundsExecuted;
  Result.Replays = Replays;

  StatsSet &S = Result.Stats;
  for (unsigned P = 0; P < NumPhases; ++P)
    S.set(std::string("cycles.") + phaseName(static_cast<Phase>(P)),
          PhaseTotals[P]);
  S.set("cycles.aborted", AbortedTotal);
  S.set("simt.rounds", Counters.Rounds);
  S.set("simt.lane_steps", Counters.LaneSteps);
  S.set("simt.mem_transactions", Counters.MemTransactions);
  S.set("simt.loads", Counters.Loads);
  S.set("simt.stores", Counters.Stores);
  S.set("simt.atomics", Counters.Atomics);
  S.set("simt.fences", Counters.Fences);
  S.set("simt.elapsed_cycles", Elapsed);
  if (GPUSTM_UNLIKELY(ActiveWmm != nullptr)) {
    const wmm::WmmStats &WS = ActiveWmm->stats();
    S.set("wmm.stale_loads", WS.StaleLoads);
    S.set("wmm.delayed_stores", WS.DelayedStores);
    S.set("wmm.reordered_drains", WS.ReorderedDrains);
    S.set("wmm.drains", WS.Drains);
    S.set("wmm.forced_drains", WS.ForcedDrains);
    ActiveWmm = nullptr;
  }

#if GPUSTM_SAN_ENABLED
  if (GPUSTM_UNLIKELY(San != nullptr))
    San->onLaunchEnd(Result.Completed);
#endif

  CurrentKernel = nullptr;
  return Result;
}

void Device::runSerialLoop(LaunchResult &Result) {
  for (;;) {
    // Pick the SM whose cached candidate issues earliest.  CandIssue is
    // already max(Clock, ReadyAt) of the candidate (recomputeCandidate runs
    // after every event that can change either), so no re-derivation here.
    SmState *BestSm = pickIssueSm();
    if (!BestSm) {
      if (LiveBlocks == 0 && NextPendingBlock == CurrentLaunch.GridDim) {
        Result.Completed = true;
        break;
      }
      // Under weak memory the wake-up store for a parked lane may still
      // sit in a store buffer; flush everything and retry before calling
      // it a deadlock.
      if (GPUSTM_UNLIKELY(ActiveWmm != nullptr) &&
          ActiveWmm->drainAllPending()) {
        for (SmState &Sm : Sms)
          recomputeCandidate(Sm);
        continue;
      }
      // Live lanes exist but none can run: SIMT divergence deadlock.
      Result.Deadlocked = true;
      discardInFlight();
      break;
    }

    SmState &Sm = *BestSm;
    Warp *W = Sm.CandWarp;
    uint64_t Issue = Sm.CandIssue;
    // Snapshot the candidate's WarpList index now: executeRound can wake
    // memWait sleepers on this SM, and the wake path recomputes the
    // candidate (but never mutates WarpList).
    unsigned IssuedIdx = Sm.CandIdx;
    CurrentIssueCycle = Issue;
#if GPUSTM_SAN_ENABLED
    if (GPUSTM_UNLIKELY(San != nullptr)) {
      SanCurWarpGid = W->lane(0).Ctx.warpGlobalId();
      San->onRoundBegin(SanCurWarpGid);
    }
#endif
    RoundCost Cost = W->executeRound();
    Sm.Clock = Issue + Cost.SmOccupancy;
    W->ReadyAt = Issue + Cost.WarpLatency;

    // Advance round-robin past the issued warp.
    Sm.RoundRobin =
        static_cast<unsigned>((IssuedIdx + 1) % Sm.WarpList.size());

    ++RoundsExecuted;
    if (RoundsExecuted > Config.WatchdogRounds) {
      Result.WatchdogTripped = true;
      discardInFlight();
      break;
    }
    // Age out long-buffered stores so no spin loop waits forever on a
    // value that exists only in another lane's buffer.
    if (GPUSTM_UNLIKELY(ActiveWmm != nullptr) && (RoundsExecuted & 255) == 0)
      ActiveWmm->tick();

    // Retirement (and the block-activation rescan it may unlock) only
    // matters on rounds where a block actually drained; noteLaneFinished
    // flags those.  Residency headroom cannot change any other way.
    if (GPUSTM_UNLIKELY(Sm.RetirePending)) {
      Sm.RetirePending = false;
      if (retireFinishedBlocks(Sm) && NextPendingBlock < CurrentLaunch.GridDim)
        activatePendingBlocks();
    }
    recomputeCandidate(Sm);
  }
}
