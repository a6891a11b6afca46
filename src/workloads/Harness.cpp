//===- workloads/Harness.cpp - Evaluation harness -------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"
#include "analysis/Simtsan.h"
#include "workloads/LintDriver.h"
#include "support/EnvOptions.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/MathExtras.h"
#include "trace/Recorder.h"
#include "trace/TraceIO.h"
#include "wmm/MemModel.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

using namespace gpustm;
using namespace gpustm::workloads;
using simt::LaunchConfig;
using simt::LaunchResult;
using simt::ThreadCtx;
using stm::StmConfig;
using stm::StmRuntime;
using stm::Variant;

double HarnessResult::txTimeProportion() const {
  uint64_t Native = Sim.get("cycles.native");
  uint64_t Tx = Sim.get("cycles.tx-init") + Sim.get("cycles.buffering") +
                Sim.get("cycles.consistency") + Sim.get("cycles.locking") +
                Sim.get("cycles.commit") + Sim.get("cycles.aborted");
  uint64_t Total = Native + Tx;
  return Total == 0 ? 0.0 : static_cast<double>(Tx) / Total;
}

/// \p Path for its first run in this process, "<Path>.N" for its N-th
/// later one, so the files of repeated runs (sweeps, kernels in sequence)
/// do not clobber one another.  Empty stays empty.
static std::string withRunSuffix(const std::string &Path) {
  if (Path.empty())
    return Path;
  // Guarded: harness runs may execute concurrently under the GPUSTM_JOBS
  // sweep runner (observed runs are rare, so contention is not a concern).
  static std::mutex RunsMutex;
  static std::map<std::string, unsigned> RunsPerPath;
  std::lock_guard<std::mutex> Lock(RunsMutex);
  unsigned Run = RunsPerPath[Path]++;
  return Run == 0 ? Path : formatString("%s.%u", Path.c_str(), Run);
}

/// Widest launch across kernels (the STM runtime sizes its per-thread and
/// per-warp metadata for the largest one).
static LaunchConfig maxLaunch(const std::vector<LaunchConfig> &Launches) {
  LaunchConfig Max = Launches.front();
  for (const LaunchConfig &L : Launches) {
    Max.GridDim = std::max(Max.GridDim, L.GridDim);
    Max.BlockDim = std::max(Max.BlockDim, L.BlockDim);
  }
  return Max;
}

std::vector<LaunchConfig>
gpustm::workloads::resolveLaunches(const Workload &W,
                                   const HarnessConfig &Config) {
  std::vector<LaunchConfig> Given = Config.Launches;
  if (Given.empty())
    Given.push_back(LaunchConfig{64, 256});
  std::vector<LaunchConfig> Launches;
  for (unsigned K = 0; K < W.numKernels(); ++K)
    Launches.push_back(K < Given.size() ? Given[K] : Given.back());
  return Launches;
}

StmConfig gpustm::workloads::resolveStmConfig(const Workload &W,
                                              const HarnessConfig &Config) {
  StmConfig SC;
  SC.Kind = Config.Kind;
  SC.NumLocks = Config.NumLocks;
  SC.SharedDataWords = W.sharedDataWords();
  SC.CoalescedLogs = Config.CoalescedLogs;
  SC.DisableSorting = Config.DisableSorting;
  SC.DebugName = W.name();
  W.tuneStm(SC);
  return SC;
}

ExecutionContext::ExecutionContext(Workload &W, const HarnessConfig &Config)
    : W(W), Shape(Config) {
  Launches = resolveLaunches(W, Config);
  MaxL = maxLaunch(Launches);
  StmConfig SC = resolveStmConfig(W, Config);

  // Size the device: shared data + STM metadata + slack.
  simt::DeviceConfig DC = Config.DeviceCfg;
  unsigned WarpSize = DC.WarpSize;
  unsigned WarpsPerBlock =
      static_cast<unsigned>(divideCeil(MaxL.BlockDim, WarpSize));
  size_t NumWarps = static_cast<size_t>(MaxL.GridDim) * WarpsPerBlock;
  size_t LogWords = NumWarps * WarpSize *
                    (2ull * SC.ReadSetCap + 2ull * SC.WriteSetCap +
                     1ull * SC.LockLogBuckets * SC.LockLogBucketCap);
  DC.MemoryWords = W.deviceMemoryWords() + SC.NumLocks + LogWords + NumWarps +
                   (1u << 16) /* slack */;

  Dev = std::make_unique<simt::Device>(DC);

  // One-shot setup: allocates and initializes the workload's device image.
  // Everything below the recorded mark is recycled by warm runs; everything
  // above it (STM metadata, logs) is per-run and zeroed by rewind().
  // Host-side initialization bypasses observer hooks, so running it before
  // any observer attaches (they attach per run) changes nothing.
  W.setup(*Dev);
  SetupMark = Dev->memory().allocated();
}

ExecutionContext::~ExecutionContext() = default;

/// Fatal unless \p Config keeps the shape \p Shape the context was built
/// for: same per-kernel launches, lock count, and device overrides.  The
/// variant, ablation knobs, and observers are free to vary per run.
static void checkRunShape(const Workload &W, const HarnessConfig &Shape,
                          const std::vector<LaunchConfig> &ShapeLaunches,
                          const HarnessConfig &Config) {
  std::vector<LaunchConfig> RunLaunches = resolveLaunches(W, Config);
  bool SameLaunches = RunLaunches.size() == ShapeLaunches.size();
  for (size_t I = 0; SameLaunches && I < RunLaunches.size(); ++I)
    SameLaunches = RunLaunches[I].GridDim == ShapeLaunches[I].GridDim &&
                   RunLaunches[I].BlockDim == ShapeLaunches[I].BlockDim;
  const simt::DeviceConfig &A = Shape.DeviceCfg;
  const simt::DeviceConfig &B = Config.DeviceCfg;
  // MemoryWords is computed by the context (the caller's value is ignored
  // on both paths); the timing model is part of the device and must not be
  // re-tuned per request by construction of the callers.
  bool SameDevice =
      A.WarpSize == B.WarpSize && A.NumSMs == B.NumSMs &&
      A.MaxBlocksPerSM == B.MaxBlocksPerSM &&
      A.MaxWarpsPerSM == B.MaxWarpsPerSM &&
      A.MaxThreadsPerSM == B.MaxThreadsPerSM &&
      A.StackBytes == B.StackBytes && A.WatchdogRounds == B.WatchdogRounds &&
      A.SchedFuzzSeed == B.SchedFuzzSeed;
  if (!SameLaunches || !SameDevice || Shape.NumLocks != Config.NumLocks)
    reportFatalError(formatString(
        "ExecutionContext: run config for %s changes the context shape "
        "(launches, lock count, or device overrides)",
        W.name()));
}

HarnessResult ExecutionContext::run(const HarnessConfig &Config) {
  checkRunShape(W, Shape, Launches, Config);
  StmConfig SC = resolveStmConfig(W, Config);
  simt::Device &Dev = *this->Dev;

  if (RunsCompleted != 0) {
    // Warm path: reclaim the per-run STM metadata and restore the workload
    // image in place.  Workloads that cannot restore in place fall back to
    // a full re-setup on the (still warm) device; allocation is
    // deterministic, so the image lands at the same addresses either way.
    Dev.memory().rewind(SetupMark);
    if (!W.reset(Dev)) {
      Dev.memory().rewind(0);
      W.setup(Dev);
      if (Dev.memory().allocated() != SetupMark)
        reportFatalError(formatString(
            "ExecutionContext: %s re-setup allocated a different footprint",
            W.name()));
    }
  }

  // simtsan: a caller-owned observer wins; otherwise GPUSTM_SAN=1 makes the
  // harness own a detector for this run.  Attached before the STM runtime
  // is built so the detector sees the lock-table registration.
  simt::Observer *San = Config.San;
  std::unique_ptr<analysis::Simtsan> OwnedSan;
  std::string SanReportPath;
  if (!San && envBool("GPUSTM_SAN", false)) {
    analysis::SimtsanOptions SanOpts;
    SanOpts.MaxReports =
        envUnsignedInRange("GPUSTM_SAN_MAX_REPORTS", 100, 0, ~0ull);
    OwnedSan = std::make_unique<analysis::Simtsan>(SanOpts);
    San = OwnedSan.get();
    SanReportPath = withRunSuffix(
        envString("GPUSTM_SAN_REPORT", "simtsan_report.json"));
  }
  if (San)
    Dev.addObserver(San);

  // Weak-memory mode: a caller-owned model wins; otherwise GPUSTM_WMM=1
  // makes the harness own one for this run.  The device itself sits the
  // model out of launches with an observer attached (SC execution wins,
  // with a warning), so attaching unconditionally here is safe.
  wmm::MemModel *Wmm = Config.Wmm;
  std::unique_ptr<wmm::MemModel> OwnedWmm;
  if (!Wmm && envBool("GPUSTM_WMM", false)) {
    wmm::WmmConfig WC;
    WC.Seed = envUnsignedInRange("GPUSTM_WMM_SEED", 1, 0, ~0ull);
    WC.StoreBufferCap = static_cast<unsigned>(
        envUnsignedInRange("GPUSTM_WMM_BUFFER", 8, 0, 64));
    OwnedWmm = std::make_unique<wmm::MemModel>(WC);
    Wmm = OwnedWmm.get();
  }
  if (Wmm)
    Dev.setWmmModel(Wmm);

  // Pre-launch static analysis (stmlint): with GPUSTM_LINT=1, capacity or
  // isolation errors are fatal before any kernel launches; warnings only
  // print.  Pure host-side work over the already-set-up workload -- no
  // device operation is issued -- so runs with the flag off (the default)
  // are bit-identical to runs that never linked the analyzer.
  if (envBool("GPUSTM_LINT", false)) {
    LintDriverResult Lint = lintWorkloadAfterSetup(W, SC, Launches);
    if (Lint.Modeled) {
      if (!Lint.Report.Findings.empty())
        staticlint::printLintReport(stderr, Lint.Report);
      if (Lint.Report.errors() != 0)
        reportFatalError(formatString(
            "stmlint: %u pre-launch error(s) for %s; refusing to launch",
            Lint.Report.errors(), W.name()));
    }
  }

  StmRuntime Stm(Dev, SC, MaxL);

  // Trace recording: a caller-owned recorder wins; otherwise a configured
  // path (or GPUSTM_TRACE) makes the harness record and serialize the run.
  trace::TxTraceRecorder *Recorder = Config.Recorder;
  std::unique_ptr<trace::TxTraceRecorder> OwnedRecorder;
  std::string TracePath;
  if (!Recorder) {
    TracePath = withRunSuffix(Config.TracePath.empty()
                                  ? envString("GPUSTM_TRACE", "")
                                  : Config.TracePath);
    if (!TracePath.empty()) {
      trace::TxTraceRecorder::Options RecOpts;
      RecOpts.RecordOps = envBool("GPUSTM_TRACE_OPS", false);
      OwnedRecorder = std::make_unique<trace::TxTraceRecorder>(RecOpts);
      Recorder = OwnedRecorder.get();
    }
  }
  if (Recorder)
    Recorder->beginRun(W.name(), Dev, Stm, MaxL);

  HarnessResult Result;
  Result.Completed = true;
  auto WallStart = std::chrono::steady_clock::now();
  for (unsigned K = 0; K < W.numKernels(); ++K) {
    Workload::KernelSpec Spec = W.kernelSpec(K);
    LaunchConfig L = Launches[K];
    if (Recorder)
      Recorder->noteKernelLaunch(K);
    bool BlockLevel =
        Spec.TxThreadPerBlockOnly || Config.Kind == Variant::EGPGV;

    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      if (BlockLevel) {
        // One transactional thread per block (labyrinth's shape, and the
        // only shape STM-EGPGV supports: per-thread-block transactions).
        if (Ctx.threadIdxInBlock() != 0)
          return;
        for (unsigned T = Ctx.blockIdx(); T < Spec.NumTasks; T += L.GridDim) {
          if (Spec.NativeComputePerTask)
            Ctx.compute(Spec.NativeComputePerTask);
          W.runTask(Stm, Ctx, K, T);
        }
        return;
      }
      unsigned Stride = L.totalThreads();
      for (unsigned T = Ctx.globalThreadId(); T < Spec.NumTasks; T += Stride) {
        if (Spec.NativeComputePerTask)
          Ctx.compute(Spec.NativeComputePerTask);
        W.runTask(Stm, Ctx, K, T);
      }
    });

    Result.KernelCycles.push_back(R.ElapsedCycles);
    Result.TotalCycles += R.ElapsedCycles;
    Result.Sim.merge(R.Stats);
    Result.KernelSim.push_back(R.Stats);
    if (!R.Completed) {
      Result.Completed = false;
      Result.WatchdogTripped = R.WatchdogTripped;
      Result.Error = R.WatchdogTripped ? "watchdog tripped (livelock)"
                                       : "deadlock detected";
      break;
    }
  }
  Result.WallNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - WallStart)
          .count());
  Result.Stm = Stm.counters();
  if (Recorder) {
    Recorder->finishRun(Dev, Stm, Result.TotalCycles);
    if (OwnedRecorder) {
      std::string Err;
      if (!trace::writeTrace(OwnedRecorder->trace(), TracePath, &Err))
        std::fprintf(stderr, "GPUSTM_TRACE: %s\n", Err.c_str());
    }
  }

  if (San)
    Result.SanReports = San->findingCount();
  if (OwnedSan) {
    if (!SanReportPath.empty() && !OwnedSan->writeJsonFile(SanReportPath))
      std::fprintf(stderr, "GPUSTM_SAN_REPORT: cannot write %s\n",
                   SanReportPath.c_str());
    if (OwnedSan->findingCount() != 0)
      std::fprintf(stderr,
                   "simtsan: %llu finding(s) in workload %s (report: %s)\n",
                   static_cast<unsigned long long>(OwnedSan->findingCount()),
                   W.name(), SanReportPath.c_str());
  }

  if (Result.Completed && Config.Verify) {
    std::string Err;
    Result.Verified = W.verify(Dev, Result.Stm, Err);
    if (!Result.Verified)
      Result.Error = Err;
  }

  // Detach per-run observers: the device outlives this run, and the owned
  // observers do not.
  if (San)
    Dev.removeObserver(San);
  if (Wmm)
    Dev.setWmmModel(nullptr);

  ++RunsCompleted;
  return Result;
}

HarnessResult gpustm::workloads::runWorkload(Workload &W,
                                             const HarnessConfig &Config) {
  ExecutionContext Ctx(W, Config);
  return Ctx.run(Config);
}

uint64_t gpustm::workloads::cglBaselineCycles(Workload &W,
                                              const HarnessConfig &Config) {
  ExecutionContext Ctx(W, Config);
  return cglBaselineCycles(Ctx, Config);
}

uint64_t gpustm::workloads::cglBaselineCycles(ExecutionContext &Ctx,
                                              const HarnessConfig &Config) {
  HarnessConfig Cgl = Config;
  Cgl.Kind = Variant::CGL;
  HarnessResult R = Ctx.run(Cgl);
  if (!R.Completed || (Cgl.Verify && !R.Verified))
    reportFatalError("CGL baseline failed: " + R.Error);
  return R.TotalCycles;
}

//===----------------------------------------------------------------------===//
// Result digests
//===----------------------------------------------------------------------===//

namespace {

/// Incremental FNV-1a over typed fields.
class Fnv {
public:
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      byte(static_cast<unsigned char>(V >> (8 * I)));
  }
  void boolean(bool V) { u64(V ? 1 : 0); }
  void str(const std::string &S) {
    u64(S.size());
    for (char C : S)
      byte(static_cast<unsigned char>(C));
  }
  void stats(const StatsSet &S) {
    auto Entries = S.entries();
    u64(Entries.size());
    for (const auto &[Name, Value] : Entries) {
      str(Name);
      u64(Value);
    }
  }
  uint64_t value() const { return H; }

private:
  void byte(unsigned char B) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  uint64_t H = 0xcbf29ce484222325ull;
};

} // namespace

uint64_t gpustm::workloads::resultDigest(const HarnessResult &R) {
  Fnv D;
  D.boolean(R.Completed);
  D.boolean(R.WatchdogTripped);
  D.boolean(R.Verified);
  D.str(R.Error);
  D.u64(R.TotalCycles);
  D.u64(R.KernelCycles.size());
  for (uint64_t C : R.KernelCycles)
    D.u64(C);
  D.u64(R.Stm.Commits);
  D.u64(R.Stm.ReadOnlyCommits);
  D.u64(R.Stm.Aborts);
  D.u64(R.Stm.AbortsReadValidation);
  D.u64(R.Stm.AbortsCommitValidation);
  D.u64(R.Stm.LockFailures);
  D.u64(R.Stm.StaleSnapshots);
  D.u64(R.Stm.FalseConflictsAvoided);
  D.u64(R.Stm.VbvRuns);
  D.u64(R.Stm.TxReads);
  D.u64(R.Stm.TxWrites);
  D.stats(R.Sim);
  D.u64(R.KernelSim.size());
  for (const StatsSet &S : R.KernelSim)
    D.stats(S);
  return D.value();
}
