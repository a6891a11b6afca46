//===- tests/simt/ControlFlowTest.cpp - SIMT divergence edge cases --------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Edge cases of the reconvergence stack: nesting, one-sided branches,
// lanes exiting inside divergent regions, votes under masks, memWait
// kinds, and deadlock detection.
//
//===----------------------------------------------------------------------===//

#include "simt/Device.h"

#include <gtest/gtest.h>

using namespace gpustm;
using namespace gpustm::simt;

namespace {

DeviceConfig smallConfig() {
  DeviceConfig C;
  C.MemoryWords = 1u << 20;
  C.NumSMs = 2;
  C.WatchdogRounds = 1u << 21;
  return C;
}

TEST(ControlFlowTest, NestedSimtIf) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(32);
  LaunchConfig L{1, 32};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    unsigned Lane = Ctx.laneId();
    Word V = 0;
    Ctx.simtIf(
        Lane < 16,
        [&] {
          Ctx.simtIf(Lane < 8, [&] { V = 1; }, [&] { V = 2; });
        },
        [&] {
          Ctx.simtIf(Lane < 24, [&] { V = 3; }, [&] { V = 4; });
        });
    Ctx.store(Out + Lane, V);
  });
  ASSERT_TRUE(R.Completed);
  for (unsigned I = 0; I < 32; ++I) {
    Word Want = I < 8 ? 1 : I < 16 ? 2 : I < 24 ? 3 : 4;
    EXPECT_EQ(Dev.memory().load(Out + I), Want) << "lane " << I;
  }
}

TEST(ControlFlowTest, OneSidedBranches) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(32);
  LaunchConfig L{1, 32};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    unsigned Lane = Ctx.laneId();
    // All lanes take the then-side.
    Ctx.simtIf(true, [&] { Ctx.store(Out + Lane, 1); }, nullptr);
    // No lane takes the then-side.
    Ctx.simtIf(false, nullptr, [&] {
      Word V = Ctx.load(Out + Lane);
      Ctx.store(Out + Lane, V + 1);
    });
  });
  ASSERT_TRUE(R.Completed);
  for (unsigned I = 0; I < 32; ++I)
    EXPECT_EQ(Dev.memory().load(Out + I), 2u);
}

TEST(ControlFlowTest, SimtIfInsideSimtWhile) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(8);
  LaunchConfig L{1, 8};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    unsigned Lane = Ctx.laneId();
    unsigned Iter = 0;
    Word Acc = 0;
    Ctx.simtWhile([&] { return Iter < Lane + 1; },
                  [&] {
                    Ctx.simtIf(Iter % 2 == 0, [&] { Acc += 10; },
                               [&] { Acc += 1; });
                    ++Iter;
                  });
    Ctx.store(Out + Lane, Acc);
  });
  ASSERT_TRUE(R.Completed);
  // Lane n runs n+1 iterations alternating +10/+1 starting with +10.
  for (unsigned I = 0; I < 8; ++I) {
    unsigned Iters = I + 1;
    Word Want = ((Iters + 1) / 2) * 10 + (Iters / 2) * 1;
    EXPECT_EQ(Dev.memory().load(Out + I), Want) << "lane " << I;
  }
}

TEST(ControlFlowTest, LaneReturningInsideBranchDoesNotHang) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(32);
  LaunchConfig L{1, 32};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    unsigned Lane = Ctx.laneId();
    if (Lane == 5)
      return; // Exit before the construct: lane 5 never participates.
    Ctx.simtIf(Lane % 2 == 0, [&] { Ctx.store(Out + Lane, 1); },
               [&] { Ctx.store(Out + Lane, 2); });
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Out + 5), 0u);
  EXPECT_EQ(Dev.memory().load(Out + 4), 1u);
  EXPECT_EQ(Dev.memory().load(Out + 7), 2u);
}

TEST(ControlFlowTest, BallotInsideBranchScopesToActiveLanes) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(32);
  LaunchConfig L{1, 32};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    unsigned Lane = Ctx.laneId();
    uint64_t Mask = 0;
    Ctx.simtIf(Lane < 4, [&] { Mask = Ctx.ballot(true); },
               [&] { Mask = Ctx.ballot(Lane < 8); });
    Ctx.store(Out + Lane, static_cast<Word>(Mask));
  });
  ASSERT_TRUE(R.Completed);
  // Then-side: lanes 0-3 vote -> 0xF.  Else-side: lanes 4-7 of 4..31 -> 0xF0.
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(Dev.memory().load(Out + I), 0xFu);
  for (unsigned I = 4; I < 32; ++I)
    EXPECT_EQ(Dev.memory().load(Out + I), 0xF0u);
}

TEST(ControlFlowTest, MemWaitKindsWakeCorrectly) {
  Device Dev(smallConfig());
  Addr Flag = Dev.hostAlloc(2);
  Addr Out = Dev.hostAlloc(3);
  Dev.memory().store(Flag + 1, 1); // Keep the bit-clear wait blocked.
  LaunchConfig L{1, 3};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    switch (Ctx.laneId()) {
    case 0:
      // Producer: give the waiters time to park first.
      Ctx.compute(5000);
      Ctx.store(Flag, 7);     // wakes Equals(7)
      Ctx.store(Flag + 1, 2); // wakes BitClear(1)
      Ctx.store(Out, 1);
      break;
    case 1:
      Ctx.memWaitEquals(Flag, 7);
      Ctx.store(Out + 1, Ctx.load(Flag));
      break;
    case 2:
      Ctx.memWaitBitClear(Flag + 1, 1);
      Ctx.store(Out + 2, Ctx.load(Flag + 1));
      break;
    }
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Out + 1), 7u);
  EXPECT_EQ(Dev.memory().load(Out + 2), 2u);
}

TEST(ControlFlowTest, MemWaitAlreadySatisfiedDoesNotPark) {
  Device Dev(smallConfig());
  Addr Flag = Dev.hostAlloc(1);
  Dev.memory().store(Flag, 5);
  LaunchConfig L{1, 1};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.memWaitEquals(Flag, 5);
    Ctx.memWaitBitClear(Flag, 2);
    Ctx.store(Flag, 6);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Flag), 6u);
}

TEST(ControlFlowTest, UnsatisfiableMemWaitIsDeadlockNotLivelock) {
  Device Dev(smallConfig());
  Addr Flag = Dev.hostAlloc(1);
  LaunchConfig L{1, 1};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.memWaitEquals(Flag, 1); // Nobody will ever write it.
  });
  EXPECT_FALSE(R.Completed);
  EXPECT_TRUE(R.Deadlocked);
  EXPECT_FALSE(R.WatchdogTripped);
}

TEST(ControlFlowTest, DivergentBlockBarrierIsCaught) {
  // Thread 0 skips the barrier and exits; the rest arrive.  The device
  // releases the barrier when the missing lane exits (graceful semantics).
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(64);
  LaunchConfig L{1, 64};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    if (Ctx.threadIdxInBlock() == 0)
      return;
    Ctx.syncThreads();
    Ctx.store(Out + Ctx.threadIdxInBlock(), 1);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Out + 1), 1u);
}

TEST(ControlFlowTest, WarpWideSimtWhileZeroIterations) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(32);
  LaunchConfig L{1, 32};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.simtWhile([] { return false; }, [&] { Ctx.store(Out, 99); });
    Ctx.store(Out + Ctx.laneId(), 1);
  });
  ASSERT_TRUE(R.Completed);
  for (unsigned I = 0; I < 32; ++I)
    EXPECT_EQ(Dev.memory().load(Out + I), 1u);
}

} // namespace
