//===- simt/Device.cpp - Simulated GPU device and scheduler ---------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Device.h"
#include "support/EnvOptions.h"
#include "support/Error.h"
#include "support/MathExtras.h"
#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstring>

using namespace gpustm;
using namespace gpustm::simt;

Device::Device(const DeviceConfig &Config)
    : Config(Config), Mem(Config.MemoryWords),
      Stacks(Config.StackBytes, StackPool::deviceLayout()) {
  if (Config.WarpSize < 1 || Config.WarpSize > 64)
    reportFatalError("warp size must be in [1, 64]");
  if (Config.NumSMs < 1)
    reportFatalError("device needs at least one SM");
  SchedSeed = Config.SchedFuzzSeed != 0
                  ? Config.SchedFuzzSeed
                  : envUnsignedInRange("GPUSTM_SCHED_FUZZ", 0, 0, ~0ull);
}

/// Stateless mix of the schedule-fuzz seed with deterministic scheduler
/// state.  Every input is part of the simulated machine state (never host
/// timing or execution-order bookkeeping), so a fuzzed schedule is a pure
/// function of the seed.
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
    // LiveLanes counts unfinished lanes across the whole block, so no
    // per-warp finished-lane scan is needed.
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
    // The waking store happens-before everything the woken lane does next.
    if (GPUSTM_UNLIKELY(observed()))
      for (Observer *O : Observers)
        O->onWakeEdge(W->lane(E.LaneIdx).Ctx.warpGlobalId(), ObservedWarpGid);
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
  if (GPUSTM_UNLIKELY(observed()))
    for (Observer *O : Observers)
      O->onBarrierRelease(Block.BlockIdx, /*ByLaneExit=*/false,
                          CurrentIssueCycle);
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
    if (GPUSTM_UNLIKELY(observed()))
      for (Observer *O : Observers)
        O->onBarrierRelease(Block.BlockIdx, /*ByLaneExit=*/true,
                            CurrentIssueCycle);
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
  Watchpoints.clear();
  CurrentIssueCycle = 0;
  Counters = SimCounters();
  std::fill(std::begin(PhaseTotals), std::end(PhaseTotals), 0);
  AbortedTotal = 0;

  ObservedWarpGid = 0;
  if (GPUSTM_UNLIKELY(observed()))
    for (Observer *O : Observers)
      O->onLaunch(Launch.GridDim, Launch.BlockDim, Config.WarpSize);

  activatePendingBlocks();

  // Weak-memory mode: an observer attached => the model sits out this
  // launch (every observer replays or checks values under sequential
  // consistency).
  ActiveWmm = Wmm;
  if (ActiveWmm != nullptr && observed()) {
    static std::atomic<bool> WarnedWmmConflict{false};
    if (!WarnedWmmConflict.exchange(true))
      std::fprintf(stderr,
                   "gpustm: warning: weak-memory mode (GPUSTM_WMM) disabled "
                   "for launches with an observer attached\n");
    ActiveWmm = nullptr;
  }
  if (GPUSTM_UNLIKELY(ActiveWmm != nullptr))
    ActiveWmm->beginLaunch(Mem, Launch.totalThreads(), [this](Addr A, Word V) {
      Mem.store(A, V);
      notifyWrite(A);
    });

  LaunchResult Result;
  runSerialLoop(Result);

  // Leftover buffered stores (watchdog/deadlock aborts) reach memory
  // before the host reads results.
  if (GPUSTM_UNLIKELY(ActiveWmm != nullptr))
    ActiveWmm->endLaunch();

  uint64_t Elapsed = 0;
  for (SmState &Sm : Sms)
    Elapsed = std::max(Elapsed, Sm.Clock);
  Result.ElapsedCycles = Elapsed;
  Result.TotalRounds = Counters.Rounds;

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

  if (GPUSTM_UNLIKELY(observed()))
    for (Observer *O : Observers)
      O->onLaunchEnd(Result.Completed);

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
    if (GPUSTM_UNLIKELY(observed())) {
      ObservedWarpGid = W->lane(0).Ctx.warpGlobalId();
      for (Observer *O : Observers)
        O->onRoundBegin(ObservedWarpGid);
    }
    RoundCost Cost = W->executeRound();
    Sm.Clock = Issue + Cost.SmOccupancy;
    W->ReadyAt = Issue + Cost.WarpLatency;

    // Advance round-robin past the issued warp.
    Sm.RoundRobin =
        static_cast<unsigned>((IssuedIdx + 1) % Sm.WarpList.size());

    // executeRound counted this round in Counters.Rounds.
    if (Counters.Rounds > Config.WatchdogRounds) {
      Result.WatchdogTripped = true;
      discardInFlight();
      break;
    }
    // Age out long-buffered stores so no spin loop waits forever on a
    // value that exists only in another lane's buffer.
    if (GPUSTM_UNLIKELY(ActiveWmm != nullptr) && (Counters.Rounds & 255) == 0)
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
