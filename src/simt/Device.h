//===- simt/Device.h - Simulated GPU device and scheduler -------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated GPU: global memory, a grid/block/warp hierarchy, per-SM
/// greedy warp scheduling with latency hiding, block residency in waves
/// (Fermi-style), a livelock watchdog, and statistics collection.  The
/// default configuration approximates the paper's NVIDIA C2070: 14 SMs,
/// warp size 32, up to 8 blocks / 48 warps / 1536 threads resident per SM.
///
/// The simulation is fully deterministic: memory operations take effect in
/// warp-round issue order, which is itself a deterministic function of the
/// cost model.  This both makes every experiment reproducible and gives the
/// STM a sequentially consistent memory substrate by default (fences cost
/// cycles but need no functional effect).  Attaching a wmm::MemModel
/// (setWmmModel; GPUSTM_WMM=1 via the harness) opts into a weakly ordered
/// substrate -- per-lane store buffers plus stale load bindings, resolved
/// by a seeded oracle -- so the protocol's fences are functionally tested
/// (DESIGN.md section 11).  One host thread runs the round loop, issuing
/// rounds in (issue-cycle, SM-index) order; host parallelism lives between
/// devices, not inside one (DESIGN.md section 9).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_DEVICE_H
#define GPUSTM_SIMT_DEVICE_H

#include "simt/Memory.h"
#include "simt/Observer.h"
#include "wmm/MemModel.h"
#include "simt/Timing.h"
#include "simt/Warp.h"
#include "support/Compiler.h"
#include "support/SmallVector.h"
#include "support/Stats.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace gpustm {
namespace simt {

/// Device-wide configuration.
struct DeviceConfig {
  /// Threads per warp (<= 64; the paper's hardware uses 32).
  unsigned WarpSize = 32;
  /// Streaming multiprocessors (C2070: 14).
  unsigned NumSMs = 14;
  /// Residency limits per SM (Fermi).
  unsigned MaxBlocksPerSM = 8;
  unsigned MaxWarpsPerSM = 48;
  unsigned MaxThreadsPerSM = 1536;
  /// Global memory size in 32-bit words.
  size_t MemoryWords = 16u << 20;
  /// Usable fiber stack bytes per lane.
  size_t StackBytes = 64 * 1024;
  /// Abort the launch after this many warp rounds (livelock watchdog).
  uint64_t WatchdogRounds = 400u << 20;
  /// Schedule perturbation for fuzzing (DESIGN.md section 10): a nonzero
  /// seed replaces the scheduler's deterministic tie-breaking (first
  /// ready-now warp in round-robin order; lowest SM index across SMs) with
  /// a seeded hash of the tie set, so each seed explores a different -- but
  /// still fully deterministic and replayable -- interleaving.  0 = read
  /// GPUSTM_SCHED_FUZZ (whose own default, 0/unset, disables the mode).
  uint64_t SchedFuzzSeed = 0;
  /// Cycle cost model.
  TimingConfig Timing;
};

/// One kernel launch: gridDim blocks of blockDim threads.
struct LaunchConfig {
  unsigned GridDim = 1;
  unsigned BlockDim = 32;

  unsigned totalThreads() const { return GridDim * BlockDim; }
};

/// Outcome of a kernel launch.
struct LaunchResult {
  /// True when every thread ran to completion.
  bool Completed = false;
  /// True when the round watchdog stopped a (live)locked kernel.
  bool WatchdogTripped = false;
  /// True when no lane could make progress (e.g. SIMT divergence deadlock:
  /// Algorithm 1 Scheme #1 of the paper).
  bool Deadlocked = false;
  /// Modeled kernel time in GPU cycles (max over SMs).
  uint64_t ElapsedCycles = 0;
  /// Total warp rounds executed.
  uint64_t TotalRounds = 0;
  /// Per-phase cycles, memory transactions, atomics, ... (see Device.cpp
  /// for the counter names).
  StatsSet Stats;
};

/// Kernel body type: one invocation per simulated thread.
using KernelFn = std::function<void(ThreadCtx &)>;

/// Per-block bookkeeping while a block is resident.
struct BlockState {
  unsigned BlockIdx = 0;
  unsigned HomeSM = 0;
  std::vector<std::unique_ptr<Warp>> Warps;
  /// Lanes that have not finished the kernel.
  unsigned LiveLanes = 0;
  /// Lanes currently parked at the block barrier.
  unsigned BarrierArrived = 0;
};

/// Hot-path event counters (plain fields; folded into the LaunchResult's
/// StatsSet when the launch ends).
struct SimCounters {
  uint64_t Rounds = 0;
  /// Lane fiber resumptions (one switch-in/switch-out pair each); with
  /// Rounds this gives the host-side fiber-switches-per-round metric.
  uint64_t LaneSteps = 0;
  uint64_t MemTransactions = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Atomics = 0;
  uint64_t Fences = 0;
};

/// The simulated GPU (see file comment).
class Device {
public:
  explicit Device(const DeviceConfig &Config);
  ~Device();

  Device(const Device &) = delete;
  Device &operator=(const Device &) = delete;

  /// The device's global memory.
  Memory &memory() { return Mem; }
  const Memory &memory() const { return Mem; }

  const DeviceConfig &config() const { return Config; }

  /// Launch \p Kernel over \p Launch and simulate to completion (or until
  /// the watchdog trips / a deadlock is detected).
  LaunchResult launch(const LaunchConfig &Launch, KernelFn Kernel);

  /// Attach \p O to every subsequent launch (simt/Observer.h).  Observation
  /// is host-side only: modeled cycles, counters, and results are
  /// bit-identical with or without observers.  Caller keeps ownership; the
  /// observer must stay alive until removeObserver.
  void addObserver(Observer *O) { Observers.push_back(O); }
  /// Detach \p O (a no-op when it is not attached).
  void removeObserver(Observer *O) {
    Observers.erase(std::remove(Observers.begin(), Observers.end(), O),
                    Observers.end());
  }
  /// True while an observer is attached: the guard of every event site.
  bool observed() const { return !Observers.empty(); }
  /// The attached observers, in attachment order (event sites deliver to
  /// each in turn).
  const std::vector<Observer *> &observers() const { return Observers; }

  /// Attach (or detach, with nullptr) a weak-memory model (src/wmm/).
  /// Caller keeps ownership; the model must outlive the launches it
  /// relaxes.  While attached, the model's reorderings change *values*
  /// (that is the point), so it is the memory substrate, not an observer.
  /// Every observer assumes SC memory: a launch with an observer attached
  /// runs without the model (one-line warning per process).
  void setWmmModel(wmm::MemModel *M) { Wmm = M; }

  /// Current simulated time (issue cycle of the executing warp round).
  /// Observer events and diagnostics stamp themselves with it.
  uint64_t now() const { return CurrentIssueCycle; }

  /// Host-side helpers (the CPU side of the CUDA API in Figure 1).
  Addr hostAlloc(size_t NumWords) { return Mem.allocate(NumWords); }
  void hostFill(Addr Base, size_t NumWords, Word Value);
  void hostWrite(Addr Base, const Word *Data, size_t NumWords);
  void hostRead(Addr Base, Word *Data, size_t NumWords) const;

private:
  friend class Warp;
  friend class ThreadCtx;

  /// A parked memWait: lane LaneIdx of W resumes when the watched word
  /// meets (Wait, Aux): equals Aux, or has all Aux bits clear.
  struct WatchEntry {
    Warp *W;
    unsigned LaneIdx;
    Word Aux;
    MemWaitKind Wait;
  };

  /// Wake watchers of \p A whose condition now holds.  Fast no-op when no
  /// memWait is outstanding.
  void notifyWrite(Addr A) {
    if (GPUSTM_LIKELY(Watchpoints.empty()))
      return;
    notifyWriteSlow(A);
  }
  void notifyWriteSlow(Addr A);
  /// A watchpoint bucket: the lanes parked on one address.  Nearly always
  /// at most a handful of waiters (one lock word's contenders), so give the
  /// bucket inline storage and never rebuild it on wake -- dead entries are
  /// compacted in place by notifyWriteSlow.
  using WatchBucket = SmallVector<WatchEntry, 4>;
  /// Register a watchpoint for a lane parked at a memWait.
  void addWatch(Addr A, const WatchEntry &E) { Watchpoints[A].push_back(E); }

  /// Per-SM scheduler state.
  struct SmState {
    uint64_t Clock = 0;
    std::vector<std::unique_ptr<BlockState>> Blocks;
    /// Flattened list of resident warps for round-robin picking.
    std::vector<Warp *> WarpList;
    unsigned ResidentWarps = 0;
    unsigned ResidentThreads = 0;
    unsigned RoundRobin = 0;
    /// Cached next-issue candidate and its WarpList index, keyed by issue
    /// time: CandIssue == max(Clock, CandWarp->ReadyAt) is the cycle the
    /// candidate would issue at, so the global SM pick and the round-robin
    /// advance are O(1) reads instead of rescans.
    Warp *CandWarp = nullptr;
    uint64_t CandIssue = 0;
    unsigned CandIdx = 0;
    /// Set when a lane finish made some resident block fully finished, so
    /// retirement scans run only on rounds that can retire something.
    bool RetirePending = false;
  };

  /// Fiber entry point: runs the current kernel for one lane.
  static void laneEntry(void *LanePtr);

  /// Activate pending blocks on any SM with residency headroom.
  void activatePendingBlocks();
  /// Construct BlockState + warps + lane fibers for block \p BlockIdx.
  std::unique_ptr<BlockState> buildBlock(unsigned BlockIdx, unsigned HomeSM);
  /// Retire fully finished blocks on \p Sm, recycling their stacks.
  /// Returns true when a block was removed (residency headroom changed).
  bool retireFinishedBlocks(SmState &Sm);
  /// Recompute the cached issue candidate for \p Sm.
  void recomputeCandidate(SmState &Sm);
  /// Schedule-fuzz variant (SchedSeed != 0): the candidate is drawn from
  /// the ready-now set (or the min-ReadyAt tie set) by a seeded hash of
  /// deterministic SM state, not round-robin order.
  void recomputeCandidateFuzzed(SmState &Sm);
  /// The round loop's cross-SM pick: the SM whose cached candidate issues
  /// earliest.  Ties go to the lowest SM index -- or, under schedule fuzz,
  /// to a seeded hash of the tie set.  Null when no SM has a candidate.
  SmState *pickIssueSm();
  /// Fold a lane's attribution counters into the launch totals.
  void rollupLane(const Lane &L);
  /// Called by Warp when a lane arrives at the block barrier / finishes.
  void noteBarrierArrival(BlockState &Block);
  void noteLaneFinished(BlockState &Block);
  /// Discard all in-flight fibers after a watchdog trip or deadlock.
  void discardInFlight();
  /// The round loop: issue the earliest candidate round until the grid
  /// completes, deadlocks, or trips the watchdog.
  void runSerialLoop(LaunchResult &Result);

  DeviceConfig Config;
  Memory Mem;
  StackPool Stacks;

  // Launch-scoped state.
  KernelFn CurrentKernel;
  /// Attached observers (see addObserver).
  std::vector<Observer *> Observers;
  /// Warp gid of the warp whose round is currently executing (wake-edge
  /// attribution for onWakeEdge); only maintained while observed.
  unsigned ObservedWarpGid = 0;
  LaunchConfig CurrentLaunch;
  std::vector<SmState> Sms;
  std::unordered_map<Addr, WatchBucket> Watchpoints;
  /// Issue cycle of the warp round currently executing (wake timing).
  uint64_t CurrentIssueCycle = 0;
  unsigned NextPendingBlock = 0;
  unsigned LiveBlocks = 0;
  /// Attached weak-memory model (see setWmmModel) and the launch-scoped
  /// active pointer: non-null only while a launch is actually relaxing
  /// memory, so every hot-path hook is one pointer test when off.
  wmm::MemModel *Wmm = nullptr;
  wmm::MemModel *ActiveWmm = nullptr;
  /// Resolved schedule-fuzz seed (0 = off; see DeviceConfig::SchedFuzzSeed).
  uint64_t SchedSeed = 0;
  SimCounters Counters;
  uint64_t PhaseTotals[NumPhases] = {};
  uint64_t AbortedTotal = 0;
};

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_DEVICE_H
