//===- fuzz/Fuzzer.cpp - Differential STM fuzzing -------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/FuzzWorkload.h"
#include "stm/ConfigCheck.h"
#include "support/Format.h"
#include "trace/Checker.h"
#include "trace/Recorder.h"
#include "wmm/MemModel.h"
#include "wmm/Witness.h"
#include "workloads/Harness.h"

#include <algorithm>

using namespace gpustm;
using namespace gpustm::fuzz;
using workloads::HarnessConfig;
using workloads::HarnessResult;

const std::vector<stm::Variant> &gpustm::fuzz::allVariants() {
  static const std::vector<stm::Variant> All = {
      stm::Variant::CGL,       stm::Variant::VBV,
      stm::Variant::TBVSorting, stm::Variant::HVSorting,
      stm::Variant::HVBackoff, stm::Variant::Optimized,
      stm::Variant::EGPGV};
  return All;
}

uint64_t SeedResult::combinedDigest() const {
  uint64_t H = 14695981039346656037ULL;
  for (const VariantOutcome &V : Outcomes) {
    H ^= V.Digest;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string SeedResult::failureSummary() const {
  std::string S;
  for (const VariantOutcome &V : Outcomes)
    if (!V.Passed) {
      S += formatString("seed %llu, %s: %s check failed: %s\n",
                        static_cast<unsigned long long>(Seed),
                        stm::variantName(V.Kind), V.Check.c_str(),
                        V.Detail.c_str());
      if (!V.WmmWitness.empty())
        S += V.WmmWitness;
    }
  return S;
}

HarnessConfig gpustm::fuzz::makeConfig(const FuzzProgram &P,
                                      stm::Variant Kind,
                                      const FuzzOptions &O) {
  HarnessConfig HC;
  HC.Kind = Kind;
  HC.Launches.push_back(simt::LaunchConfig{P.GridDim, P.BlockDim});
  HC.NumLocks = P.NumLocks;
  HC.CoalescedLogs = P.CoalescedLogs;
  HC.DisableSorting = O.DisableSorting;
  HC.DeviceCfg.WarpSize = P.WarpSize;
  HC.DeviceCfg.NumSMs = P.NumSMs;
  HC.DeviceCfg.SchedFuzzSeed = P.SchedFuzzSeed;
  HC.DeviceCfg.WatchdogRounds = O.WatchdogRounds;
  return HC;
}

namespace {

uint64_t mix64(uint64_t H, uint64_t V) {
  H ^= V;
  H *= 1099511628211ULL;
  return H;
}

/// Digest of everything two runs that must be bit-identical have to agree
/// on: the verified memory images plus counters and modeled cycles.
uint64_t runDigest(const FuzzWorkload &W, const HarnessResult &R) {
  uint64_t H = W.lastDigest();
  H = mix64(H, R.TotalCycles);
  const stm::StmCounters &C = R.Stm;
  for (uint64_t V : {C.Commits, C.ReadOnlyCommits, C.Aborts,
                     C.AbortsReadValidation, C.AbortsCommitValidation,
                     C.LockFailures, C.StaleSnapshots,
                     C.FalseConflictsAvoided, C.VbvRuns, C.TxReads,
                     C.TxWrites})
    H = mix64(H, V);
  return H;
}

/// One harness run; fails the outcome on non-completion (livelock or
/// deadlock: a progress bug) or an oracle mismatch.
bool runOnce(FuzzWorkload &W, const HarnessConfig &HC, VariantOutcome &Out,
             uint64_t *Digest) {
  HarnessResult R = workloads::runWorkload(W, HC);
  if (!R.Completed) {
    Out.Check = "completion";
    // The counter snapshot distinguishes zero-progress livelock from a
    // watchdog set too low for a contended-but-advancing run.
    Out.Detail = R.Error +
                 formatString(" [commits=%llu aborts=%llu lockfails=%llu]",
                              static_cast<unsigned long long>(R.Stm.Commits),
                              static_cast<unsigned long long>(R.Stm.Aborts),
                              static_cast<unsigned long long>(
                                  R.Stm.LockFailures));
    return false;
  }
  if (!R.Verified) {
    Out.Check = "oracle";
    Out.Detail = R.Error;
    return false;
  }
  if (Digest)
    *Digest = runDigest(W, R);
  return true;
}

VariantOutcome runVariant(const FuzzProgram &P, stm::Variant Kind,
                          const FuzzOptions &O) {
  VariantOutcome Out;
  Out.Kind = Kind;
  FuzzWorkload W(P);
  W.Faults = O.Faults;

  HarnessConfig HC = makeConfig(P, Kind, O);

  // Generated configs must pass the same validation the runtime enforces;
  // a rejected one is a generator bug, not a protocol bug, and must fail
  // the seed gracefully instead of tripping reportFatalError mid-run.
  if (std::string Err =
          stm::validateStmConfig(workloads::resolveStmConfig(W, HC));
      !Err.empty()) {
    Out.Check = "config";
    Out.Detail = Err;
    return Out;
  }

  if (O.Wmm) {
    // Weak-memory run: one model per variant so its deviation log maps to
    // exactly one launch.  On failure, shrink the deviation set to a
    // minimal reordering witness by replaying with ever-smaller filters.
    wmm::WmmConfig WC;
    WC.Seed = O.WmmSeed;
    WC.StoreBufferCap = O.WmmBuffer;
    wmm::MemModel Model(WC);
    HC.Wmm = &Model;
    if (runOnce(W, HC, Out, &Out.Digest)) {
      Out.Passed = true;
      return Out;
    }
    VariantOutcome Scratch;
    std::vector<wmm::Deviation> Witness = wmm::minimizeWitness(
        Model.deviations(),
        [&](const std::vector<wmm::DevKey> &Allowed,
            std::vector<wmm::Deviation> &Taken) {
          Model.setReplayFilter(Allowed);
          Scratch = VariantOutcome();
          bool Failed = !runOnce(W, HC, Scratch, nullptr);
          Taken = Model.deviations();
          return Failed;
        });
    Model.clearReplayFilter();
    Out.WmmWitness = wmm::formatWitness(Witness);
    return Out;
  }

  if (!runOnce(W, HC, Out, &Out.Digest))
    return Out;

  if (O.CheckDeterminism) {
    uint64_t Again = 0;
    if (!runOnce(W, HC, Out, &Again))
      return Out;
    if (Again != Out.Digest) {
      Out.Check = "determinism";
      Out.Detail = formatString("identical re-run digest %016llx != %016llx",
                                static_cast<unsigned long long>(Again),
                                static_cast<unsigned long long>(Out.Digest));
      return Out;
    }
  }

  if (O.TraceSamplePeriod != 0 && P.Seed % O.TraceSamplePeriod == 0) {
    trace::TxTraceRecorder Rec;
    HarnessConfig Traced = HC;
    Traced.Recorder = &Rec;
    uint64_t DTraced = 0;
    if (!runOnce(W, Traced, Out, &DTraced))
      return Out;
    if (DTraced != Out.Digest) {
      Out.Check = "trace-identity";
      Out.Detail = formatString(
          "traced run digest %016llx != untraced %016llx",
          static_cast<unsigned long long>(DTraced),
          static_cast<unsigned long long>(Out.Digest));
      return Out;
    }
    trace::CheckResult CR = trace::checkTrace(Rec.trace());
    if (!CR.ok()) {
      Out.Check = "trace";
      Out.Detail = formatString("%s: %s",
                                trace::checkStatusName(CR.Status),
                                CR.Message.c_str());
      return Out;
    }
  }

  Out.Passed = true;
  return Out;
}

} // namespace

SeedResult gpustm::fuzz::runProgram(const FuzzProgram &P,
                                    const FuzzOptions &O) {
  SeedResult R;
  R.Seed = P.Seed;
  R.Passed = true;
  const std::vector<stm::Variant> &Kinds =
      O.Variants.empty() ? allVariants() : O.Variants;
  for (stm::Variant Kind : Kinds) {
    R.Outcomes.push_back(runVariant(P, Kind, O));
    R.Passed &= R.Outcomes.back().Passed;
  }
  return R;
}

SeedResult gpustm::fuzz::runSeed(uint64_t Seed, const FuzzOptions &O) {
  return runProgram(generateProgram(Seed), O);
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

namespace {

/// True when dropping op \p OpI would leave an update transaction with no
/// write (the oracle requires every update transaction to journal).
bool dropBreaksInvariant(const FuzzTx &Tx, size_t OpI) {
  if (Tx.ReadOnly)
    return false;
  for (size_t I = 0; I < Tx.Ops.size(); ++I)
    if (I != OpI && Tx.Ops[I].Kind != FuzzOpKind::TxRead)
      return false;
  return true;
}

class Shrinker {
public:
  Shrinker(const FuzzProgram &P, const FuzzOptions &O, unsigned MaxEvals)
      : Best(P), O(O), EvalsLeft(MaxEvals) {}

  /// Accept \p Cand as the new smallest program iff it still fails.
  bool consider(const FuzzProgram &Cand) {
    if (EvalsLeft == 0)
      return false;
    --EvalsLeft;
    if (runProgram(Cand, O).Passed)
      return false;
    Best = Cand;
    return true;
  }

  bool exhausted() const { return EvalsLeft == 0; }

  FuzzProgram Best;

private:
  FuzzOptions O;
  unsigned EvalsLeft;
};

} // namespace

FuzzProgram gpustm::fuzz::shrinkProgram(const FuzzProgram &P,
                                        const FuzzOptions &O,
                                        unsigned MaxEvals) {
  Shrinker S(P, O, MaxEvals);
  bool Progress = true;
  while (Progress && !S.exhausted()) {
    Progress = false;

    // Whole tasks first (task count stays fixed: task indices seed the
    // accumulators, so removing entries would change every later task).
    for (size_t T = 0; T < S.Best.Tasks.size() && !S.exhausted(); ++T) {
      if (S.Best.Tasks[T].Txs.empty())
        continue;
      FuzzProgram Cand = S.Best;
      Cand.Tasks[T].Txs.clear();
      Progress |= S.consider(Cand);
    }

    // Individual transactions, last first (earlier indices keep their
    // journal slots).
    for (size_t T = 0; T < S.Best.Tasks.size() && !S.exhausted(); ++T)
      for (size_t X = S.Best.Tasks[T].Txs.size(); X-- > 0 && !S.exhausted();) {
        FuzzProgram Cand = S.Best;
        Cand.Tasks[T].Txs.erase(Cand.Tasks[T].Txs.begin() +
                                static_cast<long>(X));
        Progress |= S.consider(Cand);
      }

    // Individual operations and pre-operations.
    for (size_t T = 0; T < S.Best.Tasks.size() && !S.exhausted(); ++T)
      for (size_t X = 0; X < S.Best.Tasks[T].Txs.size() && !S.exhausted();
           ++X) {
        const FuzzTx &Tx = S.Best.Tasks[T].Txs[X];
        for (size_t I = Tx.Ops.size(); I-- > 0 && !S.exhausted();) {
          if (dropBreaksInvariant(S.Best.Tasks[T].Txs[X], I))
            continue;
          FuzzProgram Cand = S.Best;
          std::vector<FuzzOp> &Ops = Cand.Tasks[T].Txs[X].Ops;
          Ops.erase(Ops.begin() + static_cast<long>(I));
          Progress |= S.consider(Cand);
        }
        for (size_t I = S.Best.Tasks[T].Txs[X].PreOps.size();
             I-- > 0 && !S.exhausted();) {
          FuzzProgram Cand = S.Best;
          std::vector<FuzzPreOp> &Pre = Cand.Tasks[T].Txs[X].PreOps;
          Pre.erase(Pre.begin() + static_cast<long>(I));
          Progress |= S.consider(Cand);
        }
        if (S.Best.Tasks[T].Txs[X].AbortFirstAttempt && !S.exhausted()) {
          FuzzProgram Cand = S.Best;
          Cand.Tasks[T].Txs[X].AbortFirstAttempt = false;
          Progress |= S.consider(Cand);
        }
      }

    // Configuration simplifications, one knob at a time.
    auto tryKnob = [&](void (*Apply)(FuzzProgram &)) {
      if (S.exhausted())
        return;
      FuzzProgram Cand = S.Best;
      Apply(Cand);
      Progress |= S.consider(Cand);
    };
    if (S.Best.SchedFuzzSeed != 0)
      tryKnob([](FuzzProgram &C) { C.SchedFuzzSeed = 0; });
    if (S.Best.NativeComputePerTask != 0)
      tryKnob([](FuzzProgram &C) { C.NativeComputePerTask = 0; });
    if (S.Best.GridDim > 1)
      tryKnob([](FuzzProgram &C) { C.GridDim = 1; });
    if (S.Best.NumSMs > 1)
      tryKnob([](FuzzProgram &C) { C.NumSMs = 1; });
    if (S.Best.BlockDim > S.Best.WarpSize)
      tryKnob([](FuzzProgram &C) { C.BlockDim = C.WarpSize; });
  }
  return S.Best;
}

//===----------------------------------------------------------------------===//
// Regression-test printing
//===----------------------------------------------------------------------===//

std::string gpustm::fuzz::reproTestSource(uint64_t Seed, const FuzzOptions &O,
                                          const SeedResult &R) {
  std::string FailLines;
  for (const VariantOutcome &V : R.Outcomes)
    if (!V.Passed)
      FailLines += formatString("//   %s: %s: %s\n", stm::variantName(V.Kind),
                                V.Check.c_str(), V.Detail.c_str());
  if (FailLines.empty())
    FailLines = "//   (seed currently passes)\n";
  std::string Variants;
  for (const stm::Variant V : O.Variants)
    Variants += formatString(
        "  O.Variants.push_back(gpustm::stm::Variant::%s);\n",
        [&] {
          switch (V) {
          case stm::Variant::CGL:
            return "CGL";
          case stm::Variant::VBV:
            return "VBV";
          case stm::Variant::TBVSorting:
            return "TBVSorting";
          case stm::Variant::HVSorting:
            return "HVSorting";
          case stm::Variant::HVBackoff:
            return "HVBackoff";
          case stm::Variant::Optimized:
            return "Optimized";
          case stm::Variant::EGPGV:
            return "EGPGV";
          }
          return "HVSorting";
        }());
  return formatString(
      "// Regression for stmfuzz seed %llu (tools/stmfuzz repro %llu).\n"
      "// At the time this was generated the seed failed as:\n"
      "%s"
      "TEST(StmFuzzRegression, Seed%llu) {\n"
      "  gpustm::fuzz::FuzzOptions O;\n"
      "  O.TraceSamplePeriod = 1;\n"
      "%s"
      "  gpustm::fuzz::SeedResult R = gpustm::fuzz::runSeed(%lluULL, O);\n"
      "  EXPECT_TRUE(R.Passed) << R.failureSummary();\n"
      "}\n",
      static_cast<unsigned long long>(Seed),
      static_cast<unsigned long long>(Seed), FailLines.c_str(),
      static_cast<unsigned long long>(Seed), Variants.c_str(),
      static_cast<unsigned long long>(Seed));
}
