//===- tests/workloads/HarnessPropertyTest.cpp - Harness properties -------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Cross-cutting harness properties: layout ablations must not change
// results, EGPGV's block-level mapping must cover every task, and
// measured Table-1 characteristics must match the workload's static
// shape.
//
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"
#include "workloads/HashTable.h"
#include "workloads/RandomArray.h"

#include <gtest/gtest.h>

using namespace gpustm;
using namespace gpustm::workloads;
using stm::Variant;

namespace {

HarnessConfig baseConfig() {
  HarnessConfig C;
  C.Kind = Variant::HVSorting;
  C.Launches = {{8, 64}};
  C.NumLocks = 1u << 14;
  C.DeviceCfg.NumSMs = 4;
  return C;
}

RandomArray::Params smallRA() {
  RandomArray::Params P;
  P.ArrayWords = 1u << 14;
  P.NumTx = 1024;
  return P;
}

TEST(HarnessPropertyTest, LogLayoutDoesNotChangeResults) {
  // The coalescing ablation is a pure layout change: commits, aborts and
  // the final image must be identical.
  RandomArray W1(smallRA()), W2(smallRA());
  HarnessConfig A = baseConfig(), B = baseConfig();
  B.CoalescedLogs = false;
  HarnessResult RA_ = runWorkload(W1, A);
  HarnessResult RB = runWorkload(W2, B);
  ASSERT_TRUE(RA_.Completed && RB.Completed);
  EXPECT_TRUE(RA_.Verified && RB.Verified);
  EXPECT_EQ(RA_.Stm.Commits, RB.Stm.Commits);
  // Cost differs, semantics don't.
  EXPECT_NE(RA_.Sim.get("simt.mem_transactions"),
            RB.Sim.get("simt.mem_transactions"));
}

TEST(HarnessPropertyTest, EgpgvCoversEveryTaskExactlyOnce) {
  HashTable::Params P;
  P.TableWords = 1u << 13;
  P.NumTx = 500; // Not a multiple of the grid: stride mapping edge case.
  HashTable W(P);
  HarnessConfig C = baseConfig();
  C.Kind = Variant::EGPGV;
  C.Launches = {{7, 64}}; // Odd grid size.
  HarnessResult R = runWorkload(W, C);
  ASSERT_TRUE(R.Completed);
  EXPECT_TRUE(R.Verified) << R.Error; // Oracle checks all keys present once.
  EXPECT_EQ(R.Stm.Commits, 500u);
}

TEST(HarnessPropertyTest, MeasuredCharacteristicsMatchWorkloadShape) {
  RandomArray::Params P = smallRA();
  P.ReadsPerTx = 6;
  P.WritesPerTx = 2;
  RandomArray W(P);
  HarnessConfig C = baseConfig();
  HarnessResult R = runWorkload(W, C);
  ASSERT_TRUE(R.Completed);
  // Committed transactions only: reads = 6 + 2 (increments read first),
  // writes = 2.  Counters include aborted attempts, so compare per
  // attempt.
  double Attempts = static_cast<double>(R.Stm.Commits + R.Stm.Aborts);
  double RdPerTx = static_cast<double>(R.Stm.TxReads) / Attempts;
  double WrPerTx = static_cast<double>(R.Stm.TxWrites) / Attempts;
  EXPECT_NEAR(RdPerTx, 8.0, 1.0);
  EXPECT_NEAR(WrPerTx, 2.0, 0.5);
  EXPECT_GT(R.txTimeProportion(), 0.5);
}

TEST(HarnessPropertyTest, WatchdogSurfacesAsHarnessError) {
  RandomArray::Params P = smallRA();
  P.ArrayWords = 64; // Brutal conflicts...
  RandomArray W(P);
  HarnessConfig C = baseConfig();
  C.DisableSorting = true; // ... with the naive unsorted lock path.
  C.Verify = false;
  C.DeviceCfg.WatchdogRounds = 300000;
  HarnessResult R = runWorkload(W, C);
  // Either it livelocks (expected) or squeaks through on a lucky
  // schedule; both must be reported coherently.
  if (!R.Completed) {
    EXPECT_TRUE(R.WatchdogTripped);
    EXPECT_FALSE(R.Error.empty());
  }
}

} // namespace
