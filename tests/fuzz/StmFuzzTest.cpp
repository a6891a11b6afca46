//===- tests/fuzz/StmFuzzTest.cpp - Differential fuzzer self-tests --------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Three layers: (1) a small always-on clean corpus across every variant and
// every check (the 10k-seed campaign runs in CI; this keeps `ctest` honest),
// (2) the fuzzer's own machinery -- generator determinism, digest
// stability, shrinker, repro printer -- and (3) regression seeds for bugs
// the fuzzer has found, checked in with the fix.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <gtest/gtest.h>

using namespace gpustm;
using namespace gpustm::fuzz;

namespace {

//===----------------------------------------------------------------------===//
// Generator properties.
//===----------------------------------------------------------------------===//

TEST(FuzzGeneratorTest, SeedDeterminedAndSeedSensitive) {
  for (uint64_t Seed : {0ull, 1ull, 42ull, 152ull}) {
    FuzzProgram A = generateProgram(Seed);
    FuzzProgram B = generateProgram(Seed);
    EXPECT_EQ(A.summary(), B.summary());
    EXPECT_EQ(A.totalTxs(), B.totalTxs());
    EXPECT_EQ(A.totalOps(), B.totalOps());
    EXPECT_EQ(A.InitShared, B.InitShared);
  }
  EXPECT_NE(generateProgram(1).summary(), generateProgram(2).summary());
}

TEST(FuzzGeneratorTest, ProgramsRespectTheirOwnCaps) {
  // The generator must never produce a transaction whose per-attempt logs
  // can overflow the StmConfig it also generated: fatal overflow is a
  // *bug* report, not fuzz noise (OverflowTest covers that path directly).
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    FuzzProgram P = generateProgram(Seed);
    for (const FuzzTask &T : P.Tasks) {
      EXPECT_LE(T.Txs.size(), P.MaxTxPerTask) << "seed " << Seed;
      for (const FuzzTx &Tx : T.Txs) {
        EXPECT_LE(Tx.Ops.size(), P.ReadSetCap) << "seed " << Seed;
        EXPECT_LE(Tx.Ops.size(), P.WriteSetCap) << "seed " << Seed;
        // Worst case every address lands in one lock-log bucket.
        EXPECT_LE(Tx.Ops.size(), P.LockLogBucketCap) << "seed " << Seed;
        bool HasWrite = false;
        for (const FuzzOp &Op : Tx.Ops)
          HasWrite |= Op.Kind != FuzzOpKind::TxRead;
        if (Tx.ReadOnly)
          EXPECT_FALSE(HasWrite) << "seed " << Seed;
        else
          EXPECT_TRUE(HasWrite) << "seed " << Seed;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Clean corpus: every variant, every check, a slice of seeds.
//===----------------------------------------------------------------------===//

TEST(FuzzCorpusTest, FirstSeedsPassAllVariantsAndChecks) {
  FuzzOptions O;
  O.TraceSamplePeriod = 8;
  for (uint64_t Seed = 0; Seed < 30; ++Seed) {
    SeedResult R = runSeed(Seed, O);
    EXPECT_TRUE(R.Passed) << R.failureSummary();
  }
}

TEST(FuzzCorpusTest, SameSeedIsBitIdentical) {
  FuzzOptions O;
  O.TraceSamplePeriod = 0;
  O.CheckDeterminism = true;
  for (uint64_t Seed : {3ull, 7ull, 11ull}) {
    SeedResult R = runSeed(Seed, O);
    EXPECT_TRUE(R.Passed) << R.failureSummary();
  }
}

TEST(FuzzCorpusTest, SchedFuzzPerturbationIsItselfDeterministic) {
  // A schedule-perturbed run is still a pure function of the seed: the
  // perturbation reshuffles issue order, not reproducibility.
  FuzzOptions O;
  O.TraceSamplePeriod = 0;
  O.CheckDeterminism = true;
  unsigned Perturbed = 0;
  for (uint64_t Seed = 0; Seed < 12; ++Seed) {
    FuzzProgram P = generateProgram(Seed);
    Perturbed += P.SchedFuzzSeed != 0;
    SeedResult R = runProgram(P, O);
    EXPECT_TRUE(R.Passed) << R.failureSummary();
  }
  // The generator flips schedule fuzzing on for about half the corpus.
  EXPECT_GE(Perturbed, 3u);
}

//===----------------------------------------------------------------------===//
// Failure machinery: shrinking and repro printing, driven by an injected
// protocol fault (so they are exercised without a live STM bug).
//===----------------------------------------------------------------------===//

FuzzOptions faultyOptions() {
  FuzzOptions O;
  O.TraceSamplePeriod = 0;
  O.Variants = {stm::Variant::HVSorting};
  O.Faults.SkipReadLogging = true; // Validation goes blind: breaks fast.
  return O;
}

uint64_t firstFailingSeed(const FuzzOptions &O) {
  for (uint64_t Seed = 0; Seed < 50; ++Seed)
    if (!runSeed(Seed, O).Passed)
      return Seed;
  return ~0ull;
}

TEST(FuzzShrinkTest, ShrinkerKeepsFailureAndReducesSize) {
  FuzzOptions O = faultyOptions();
  uint64_t Seed = firstFailingSeed(O);
  ASSERT_NE(Seed, ~0ull) << "fault injection found no failing seed in 50";
  FuzzProgram P = generateProgram(Seed);
  FuzzProgram S = shrinkProgram(P, O, /*MaxEvals=*/120);
  EXPECT_FALSE(runProgram(S, O).Passed) << "shrunk program no longer fails";
  EXPECT_LE(S.totalOps(), P.totalOps());
  EXPECT_LE(S.totalTxs(), P.totalTxs());
}

TEST(FuzzReproTest, ReproSourceNamesSeedVariantAndExpectation) {
  FuzzOptions O = faultyOptions();
  uint64_t Seed = firstFailingSeed(O);
  ASSERT_NE(Seed, ~0ull);
  SeedResult R = runSeed(Seed, O);
  std::string Src = reproTestSource(Seed, O, R);
  EXPECT_NE(Src.find("StmFuzzRegression"), std::string::npos) << Src;
  EXPECT_NE(Src.find("runSeed(" + std::to_string(Seed)), std::string::npos)
      << Src;
  EXPECT_NE(Src.find("HVSorting"), std::string::npos) << Src;
  EXPECT_NE(Src.find("EXPECT_TRUE(R.Passed)"), std::string::npos) << Src;
}

//===----------------------------------------------------------------------===//
// Regression seeds for fuzzer-found (and fixed) bugs.
//===----------------------------------------------------------------------===//

TEST(StmFuzzRegression, Seed152BackoffLivelock) {
  // Found by `stmfuzz run --seeds 500` (18/500 seeds tripped the watchdog,
  // STM-HV-Backoff only).  Tx::commitBackoff's retry delay was constant
  // per warp once the window saturated, so contending warps phase-locked
  // and re-collided forever; the fix re-draws a per-(warp, attempt) jitter.
  FuzzOptions O;
  O.TraceSamplePeriod = 1;
  O.Variants = {stm::Variant::HVBackoff};
  SeedResult R = runSeed(152, O);
  EXPECT_TRUE(R.Passed) << R.failureSummary();
}

TEST(StmFuzzRegression, Seed236And288BackoffLivelock) {
  // Two more of the original 18 livelocking seeds, kept as backstops with
  // different launch shapes than seed 152.
  FuzzOptions O;
  O.TraceSamplePeriod = 0;
  O.Variants = {stm::Variant::HVBackoff};
  for (uint64_t Seed : {236ull, 288ull}) {
    SeedResult R = runSeed(Seed, O);
    EXPECT_TRUE(R.Passed) << R.failureSummary();
  }
}

TEST(StmFuzzRegression, Seed53BackoffTokenStreamLivelock) {
  // Survived the jitter fix above: 6 warps contending for a 4-stripe lock
  // table.  Failing lanes queue on the per-warp commit token, so the
  // backoff delay elapses while *waiting* for the token and each warp
  // emits a gapless stream of lock-acquisition attempts -- two such
  // streams can collide forever.  Fixed by escalating persistent losers
  // to a global token that serializes commit across warps.
  FuzzOptions O;
  O.TraceSamplePeriod = 1;
  O.Variants = {stm::Variant::HVBackoff};
  SeedResult R = runSeed(53, O);
  EXPECT_TRUE(R.Passed) << R.failureSummary();
}

} // namespace
