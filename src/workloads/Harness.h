//===- workloads/Harness.h - Evaluation harness -----------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a workload under one synchronization variant and launch
/// configuration, collecting the measurements the paper's evaluation
/// reports: modeled kernel cycles (for the speedup-over-CGL figures),
/// commit/abort counters (for abort rates), per-phase cycle attribution
/// (for the Figure 5 breakdown), and Table 1's transactional
/// characteristics.  Every run is deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_WORKLOADS_HARNESS_H
#define GPUSTM_WORKLOADS_HARNESS_H

#include "workloads/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace gpustm {
namespace trace {
class TxTraceRecorder;
} // namespace trace
namespace wmm {
class MemModel;
} // namespace wmm

namespace workloads {

/// One harness invocation.
struct HarnessConfig {
  stm::Variant Kind = stm::Variant::HVSorting;
  /// Launch configuration per kernel; the last entry repeats if the
  /// workload has more kernels.  Empty means the default 64 x 256.
  std::vector<simt::LaunchConfig> Launches;
  /// Global version locks (the paper's default: 1M).
  size_t NumLocks = 1u << 20;
  /// Device shape overrides.
  simt::DeviceConfig DeviceCfg;
  /// Coalesced-log ablation knob.
  bool CoalescedLogs = true;
  /// Lock-sorting ablation knob (expect a watchdog trip when disabled on a
  /// conflicting workload).
  bool DisableSorting = false;
  /// Verify the result image with the workload oracle (on by default; the
  /// livelock ablation turns it off).
  bool Verify = true;
  /// Caller-owned trace recorder: when set, the harness drives its
  /// beginRun/noteKernelLaunch/finishRun lifecycle around the run.
  trace::TxTraceRecorder *Recorder = nullptr;
  /// When no Recorder is given, a non-empty path (or the GPUSTM_TRACE
  /// environment variable) makes the harness record the run and write a
  /// binary trace there; a second run through the same config appends
  /// ".1", ".2", ... so kernels-in-sequence do not clobber each other.
  std::string TracePath;
  /// Caller-owned observer, usually simtsan (src/analysis/): when set, the
  /// harness attaches it to the device for the whole run, before the STM
  /// runtime registers its lock table.  When unset, GPUSTM_SAN=1 makes the
  /// harness construct a detector itself and write its JSON report to
  /// GPUSTM_SAN_REPORT (default simtsan_report.json, with the same ".N"
  /// multi-run suffixing as traces).  Observation never changes modeled
  /// results.
  simt::Observer *San = nullptr;
  /// Caller-owned weak-memory model (src/wmm/): when set, the harness
  /// attaches it to the device for the whole run.  When unset, GPUSTM_WMM=1
  /// makes the harness construct one seeded by GPUSTM_WMM_SEED with store
  /// buffers of GPUSTM_WMM_BUFFER entries.  Sits out runs with an observer
  /// attached (the device warns and keeps SC execution).
  wmm::MemModel *Wmm = nullptr;
};

/// Harness measurements.
struct HarnessResult {
  bool Completed = false;
  bool WatchdogTripped = false;
  bool Verified = false;
  std::string Error;
  /// Modeled GPU cycles, total and per kernel.
  uint64_t TotalCycles = 0;
  std::vector<uint64_t> KernelCycles;
  /// STM counters accumulated over all kernels.
  stm::StmCounters Stm;
  /// Simulator statistics merged over all kernels (phase cycles, memory
  /// transactions, ...), plus the per-kernel sets (Figure 5 separates
  /// GN-1 from GN-2).
  StatsSet Sim;
  std::vector<StatsSet> KernelSim;
  /// Host wall time spent simulating the kernels (throughput metric only;
  /// never feeds back into modeled cycles or any deterministic result).
  uint64_t WallNanos = 0;
  /// Unique simtsan findings over the run (0 when no detector attached).
  uint64_t SanReports = 0;

  /// Abort rate: aborts / (commits + aborts).
  double abortRate() const {
    uint64_t Total = Stm.Commits + Stm.Aborts;
    return Total == 0 ? 0.0 : static_cast<double>(Stm.Aborts) / Total;
  }
  /// Proportion of modeled time spent inside transactions (Table 1's "TX
  /// time"): every phase except native work.
  double txTimeProportion() const;

  /// Host-side simulator throughput (BENCH_*.json "wall_ms",
  /// "rounds_per_sec", and "switches_per_round" fields).
  double wallMs() const { return static_cast<double>(WallNanos) / 1e6; }
  double roundsPerSec() const {
    uint64_t Rounds = Sim.get("simt.rounds");
    return WallNanos == 0 ? 0.0
                          : static_cast<double>(Rounds) * 1e9 /
                                static_cast<double>(WallNanos);
  }
  /// Average lane fiber switches per warp round (engine work factor).
  double switchesPerRound() const {
    uint64_t Rounds = Sim.get("simt.rounds");
    uint64_t Steps = Sim.get("simt.lane_steps");
    return Rounds == 0 ? 0.0
                       : static_cast<double>(Steps) /
                             static_cast<double>(Rounds);
  }
};

/// Per-kernel launches runWorkload will use: the configured list (default
/// 64x256), with the last entry repeated for any remaining kernels.
std::vector<simt::LaunchConfig> resolveLaunches(const Workload &W,
                                                const HarnessConfig &Config);

/// The tuned StmConfig runWorkload will hand the STM runtime (harness
/// fields applied, then Workload::tuneStm).  Shared with the static
/// analyzer so its capacity checks see exactly the launch-time caps.
stm::StmConfig resolveStmConfig(const Workload &W,
                                const HarnessConfig &Config);

/// A warmed, reusable execution environment for one workload: the device
/// (arena, fiber-stack slabs) is sized and built once, Workload::setup runs
/// once, and the post-setup allocation mark is recorded.  Each run() then
/// rewinds the arena to that mark, restores the workload's device image
/// (Workload::reset, falling back to a full rewind-to-zero plus setup()
/// when the workload declines), builds a fresh STM runtime at the very same
/// addresses, and executes the kernels.  Every run is bit-identical to a
/// fresh one-shot runWorkload() with the same config; the serving layer
/// (src/serve/) and the figure benches lean on that identity to amortize
/// arena construction and input generation across requests.
///
/// The per-run config may vary the variant, ablation knobs, and observers,
/// but must keep the *shape* the context was built for -- the same
/// launches, lock count, and device overrides (violations are fatal: a
/// mis-batched request would silently run on a mis-sized device).
class ExecutionContext {
public:
  /// Build the device for \p W under \p Config's shape and run the one-shot
  /// setup.  \p W must outlive the context.
  ExecutionContext(Workload &W, const HarnessConfig &Config);
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext &) = delete;
  ExecutionContext &operator=(const ExecutionContext &) = delete;

  /// Execute all kernels under \p Config on the warmed device.
  HarnessResult run(const HarnessConfig &Config);

  /// Runs completed so far (0 = the next run is the cold one).
  unsigned runsCompleted() const { return RunsCompleted; }

  Workload &workload() { return W; }
  simt::Device &device() { return *Dev; }

private:
  Workload &W;
  HarnessConfig Shape;
  std::vector<simt::LaunchConfig> Launches;
  simt::LaunchConfig MaxL;
  std::unique_ptr<simt::Device> Dev;
  /// Arena allocation cursor right after Workload::setup returned: the
  /// boundary between the recycled workload image and per-run STM metadata.
  size_t SetupMark = 0;
  unsigned RunsCompleted = 0;
};

/// Run \p W under \p Config.  Builds a fresh Device sized for the workload
/// plus STM metadata, so runs are independent and deterministic.  (A thin
/// one-shot wrapper over ExecutionContext.)
HarnessResult runWorkload(Workload &W, const HarnessConfig &Config);

/// Cycles of the CGL baseline for the same workload/launch, used as the
/// denominator of the paper's speedup figures.
uint64_t cglBaselineCycles(Workload &W, const HarnessConfig &Config);

/// Same baseline measured on an already-warmed context (saves the rebuild
/// when the caller goes on to run the other variants on the same context).
uint64_t cglBaselineCycles(ExecutionContext &Ctx, const HarnessConfig &Config);

/// FNV-1a digest of every deterministic field of \p R: completion/verify
/// flags, modeled cycles (total and per kernel), STM counters, and the
/// merged + per-kernel simulator stats.  Host-throughput diagnostics
/// (WallNanos, SanReports) are excluded, so the digest of a warm run
/// equals the digest of a one-shot run.
/// The serve layer keys its result cache and its replay-vs-oneshot
/// comparisons on this.
uint64_t resultDigest(const HarnessResult &R);

} // namespace workloads
} // namespace gpustm

#endif // GPUSTM_WORKLOADS_HARNESS_H
