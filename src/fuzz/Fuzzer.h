//===- fuzz/Fuzzer.h - Differential STM fuzzing -----------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed-driven differential fuzzing of the STM variants (tools/stmfuzz;
/// DESIGN.md section 10).  Every seed expands to one FuzzProgram, which
/// runs under each variant and is checked three ways: the sequential
/// reference oracle (FuzzWorkload::verify), agreement of all variants on
/// oracle-equivalence (differential), and -- for sampled seeds -- the
/// offline trace checker's opacity/serializability pass, whose traced
/// serial run must also be bit-identical to the untraced run.  Failures
/// shrink greedily to a minimal program and print as a standalone
/// regression test.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_FUZZ_FUZZER_H
#define GPUSTM_FUZZ_FUZZER_H

#include "fuzz/FuzzProgram.h"
#include "workloads/Harness.h"

#include <string>
#include <vector>

namespace gpustm {
namespace fuzz {

/// What to run and check for each seed.
struct FuzzOptions {
  /// Variants under test; empty means all seven.
  std::vector<stm::Variant> Variants;
  /// Trace-check seeds whose Seed %% TraceSamplePeriod == 0 (0 = never).
  /// The traced run must also be bit-identical to the untraced run.
  unsigned TraceSamplePeriod = 8;
  /// Simulator watchdog: a clean program finishes orders of magnitude
  /// below this; tripping it means livelock (or a leaked lock's spin).
  uint64_t WatchdogRounds = 1ull << 22;
  /// Re-run each variant identically and demand a bit-identical digest.
  bool CheckDeterminism = false;
  /// Protocol mutations injected into every run (mutation tests only).
  stm::StmFaults Faults;
  /// Lock-sorting ablation (mutation tests only; expect a watchdog trip).
  bool DisableSorting = false;
  /// Weak-memory mode (src/wmm/): run every variant under a store-buffer
  /// memory model instead of sequential consistency.  The sequential
  /// oracle stays valid (pre-ops touch only task-private words and every
  /// buffer drains before verification), so fence-elision faults become
  /// observable failures.  Implies no trace check (a trace observer
  /// excludes the model).
  bool Wmm = false;
  uint64_t WmmSeed = 1;
  unsigned WmmBuffer = 8;
};

/// Outcome of one variant on one program.
struct VariantOutcome {
  stm::Variant Kind = stm::Variant::HVSorting;
  bool Passed = false;
  /// Which check failed: "completion", "oracle", "determinism",
  /// "trace-identity", "trace".  Empty when passed.
  std::string Check;
  std::string Detail;
  /// Digest of final images + counters + modeled cycles.
  uint64_t Digest = 0;
  /// Minimal reordering witness for a weak-memory failure (FuzzOptions::
  /// Wmm): the shrunk set of stale/delayed memory effects that reproduce
  /// it, empty for SC failures or passes.
  std::string WmmWitness;
};

/// Outcome of one seed across all requested variants.
struct SeedResult {
  uint64_t Seed = 0;
  bool Passed = false;
  std::vector<VariantOutcome> Outcomes;

  /// Digest folding every variant's digest (for cross-process diffing,
  /// e.g. `stmfuzz run --jobs 1` vs `--jobs 4` in CI).
  uint64_t combinedDigest() const;
  /// One line per failing variant; empty string when passed.
  std::string failureSummary() const;
};

/// The harness configuration \p P runs under for variant \p Kind: the one
/// FuzzProgram-to-HarnessConfig mapping, shared by the fuzzer and
/// `stmlint fuzz`.
workloads::HarnessConfig makeConfig(const FuzzProgram &P, stm::Variant Kind,
                                    const FuzzOptions &O);

/// Run the program under every requested variant with every check.
SeedResult runProgram(const FuzzProgram &P, const FuzzOptions &O);

/// generateProgram + runProgram.
SeedResult runSeed(uint64_t Seed, const FuzzOptions &O);

/// Greedy shrink: repeatedly drop transactions, operations, and config
/// complexity while runProgram still fails, spending at most \p MaxEvals
/// re-runs.  Returns the smallest failing program found (the input itself
/// if nothing smaller fails).  Narrow \p O to the failing variant first:
/// shrinking re-runs the whole option set every step.
FuzzProgram shrinkProgram(const FuzzProgram &P, const FuzzOptions &O,
                          unsigned MaxEvals = 300);

/// Standalone regression-test source for a failing seed (the `repro`
/// subcommand; checked in under tests/fuzz/ when a fuzzer-found bug is
/// fixed).
std::string reproTestSource(uint64_t Seed, const FuzzOptions &O,
                            const SeedResult &R);

/// The seven variants, in the paper's order.
const std::vector<stm::Variant> &allVariants();

} // namespace fuzz
} // namespace gpustm

#endif // GPUSTM_FUZZ_FUZZER_H
