//===- tests/simt/DeviceTest.cpp - Simulator end-to-end tests -------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Device.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace gpustm;
using namespace gpustm::simt;

namespace {

DeviceConfig smallConfig() {
  DeviceConfig C;
  C.MemoryWords = 1u << 20;
  C.NumSMs = 2;
  C.WatchdogRounds = 1u << 22;
  return C;
}

TEST(DeviceTest, EveryThreadRuns) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(4096);
  LaunchConfig L{8, 128};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.store(Out + Ctx.globalThreadId(), Ctx.globalThreadId() + 1);
  });
  ASSERT_TRUE(R.Completed);
  for (unsigned I = 0; I < 1024; ++I)
    EXPECT_EQ(Dev.memory().load(Out + I), I + 1) << "thread " << I;
  EXPECT_GT(R.ElapsedCycles, 0u);
  EXPECT_EQ(R.Stats.get("simt.stores"), 1024u);
}

TEST(DeviceTest, MoreBlocksThanResidencyRunInWaves) {
  DeviceConfig C = smallConfig();
  C.MaxBlocksPerSM = 1;
  C.MaxWarpsPerSM = 2;
  C.MaxThreadsPerSM = 64;
  Device Dev(C);
  Addr Out = Dev.hostAlloc(2048);
  LaunchConfig L{32, 64}; // 32 blocks, residency 2 blocks total.
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.atomicAdd(Out + Ctx.blockIdx(), 1);
  });
  ASSERT_TRUE(R.Completed);
  for (unsigned B = 0; B < 32; ++B)
    EXPECT_EQ(Dev.memory().load(Out + B), 64u) << "block " << B;
}

TEST(DeviceTest, AtomicAddIsAtomicAcrossAllThreads) {
  Device Dev(smallConfig());
  Addr Counter = Dev.hostAlloc(1);
  LaunchConfig L{16, 256};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    for (int I = 0; I < 4; ++I)
      Ctx.atomicAdd(Counter, 1);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Counter), 16u * 256u * 4u);
}

TEST(DeviceTest, BlockBarrierOrdersPhases) {
  Device Dev(smallConfig());
  Addr Buf = Dev.hostAlloc(256);
  Addr Flags = Dev.hostAlloc(256);
  LaunchConfig L{2, 128};
  // Phase 1: thread i writes slot i.  Barrier.  Phase 2: thread i reads
  // slot (i+1) % blockDim; must observe the phase-1 value.
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Addr Base = Buf + Ctx.blockIdx() * 128;
    Ctx.store(Base + Ctx.threadIdxInBlock(), 7);
    Ctx.syncThreads();
    Word V = Ctx.load(Base + (Ctx.threadIdxInBlock() + 1) % 128);
    Ctx.store(Flags + Ctx.globalThreadId(), V == 7 ? 1 : 0);
  });
  ASSERT_TRUE(R.Completed);
  for (unsigned I = 0; I < 256; ++I)
    EXPECT_EQ(Dev.memory().load(Flags + I), 1u) << "thread " << I;
}

TEST(DeviceTest, DeterministicAcrossRuns) {
  auto RunOnce = [&](uint64_t *Cycles, uint64_t *Rounds) {
    Device Dev(smallConfig());
    Addr A = Dev.hostAlloc(4096);
    LaunchConfig L{4, 256};
    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      unsigned Tid = Ctx.globalThreadId();
      for (int I = 0; I < 8; ++I) {
        Word V = Ctx.load(A + (Tid * 7 + I * 131) % 4096);
        Ctx.store(A + (Tid + I) % 4096, V + 1);
      }
    });
    ASSERT_TRUE(R.Completed);
    *Cycles = R.ElapsedCycles;
    *Rounds = R.TotalRounds;
  };
  uint64_t C1, R1, C2, R2;
  RunOnce(&C1, &R1);
  RunOnce(&C2, &R2);
  EXPECT_EQ(C1, C2);
  EXPECT_EQ(R1, R2);
}

TEST(DeviceTest, CoalescedAccessUsesFewerTransactions) {
  auto MemTransactions = [&](bool Coalesced) {
    Device Dev(smallConfig());
    Addr A = Dev.hostAlloc(64 * 1024);
    LaunchConfig L{1, 32};
    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      unsigned Tid = Ctx.globalThreadId();
      for (unsigned I = 0; I < 16; ++I) {
        // Coalesced: consecutive lanes hit consecutive words.
        // Scattered: each lane strides across segments.
        Addr Target = Coalesced ? A + I * 32 + Tid : A + Tid * 1024 + I * 64;
        Ctx.store(Target, 1);
      }
    });
    EXPECT_TRUE(R.Completed);
    return R.Stats.get("simt.mem_transactions");
  };
  uint64_t Co = MemTransactions(true);
  uint64_t Sc = MemTransactions(false);
  // 32 lanes in one segment vs 32 lanes in 32 segments.
  EXPECT_LT(Co * 8, Sc);
}

TEST(DeviceTest, WarpSyncAndBallot) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(64);
  LaunchConfig L{1, 64};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    uint64_t Mask = Ctx.ballot(Ctx.laneId() % 2 == 0);
    Ctx.syncWarp();
    Ctx.store(Out + Ctx.globalThreadId(), static_cast<Word>(Mask));
  });
  ASSERT_TRUE(R.Completed);
  // Even lanes of each 32-lane warp vote: 0x55555555.
  for (unsigned I = 0; I < 64; ++I)
    EXPECT_EQ(Dev.memory().load(Out + I), 0x55555555u);
}

TEST(DeviceTest, SimtIfRunsBothSidesSerially) {
  Device Dev(smallConfig());
  Addr Order = Dev.hostAlloc(1);
  Addr Slots = Dev.hostAlloc(32);
  LaunchConfig L{1, 32};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    bool Taken = Ctx.laneId() < 16;
    Ctx.simtIf(
        Taken,
        [&] {
          Word Seq = Ctx.atomicAdd(Order, 1);
          Ctx.store(Slots + Ctx.laneId(), Seq);
        },
        [&] {
          Word Seq = Ctx.atomicAdd(Order, 1);
          Ctx.store(Slots + Ctx.laneId(), Seq);
        });
  });
  ASSERT_TRUE(R.Completed);
  // All taken lanes must have sequenced before every not-taken lane.
  for (unsigned I = 0; I < 16; ++I)
    EXPECT_LT(Dev.memory().load(Slots + I), 16u) << "then lane " << I;
  for (unsigned I = 16; I < 32; ++I)
    EXPECT_GE(Dev.memory().load(Slots + I), 16u) << "else lane " << I;
}

TEST(DeviceTest, SimtWhileReconverges) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(32);
  Addr Done = Dev.hostAlloc(1);
  LaunchConfig L{1, 32};
  // Lane i iterates i+1 times; after the loop every lane must observe that
  // all lanes have finished iterating (reconvergence).
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    unsigned Remaining = Ctx.laneId() + 1;
    Ctx.simtWhile([&] { return Remaining > 0; },
                  [&] {
                    --Remaining;
                    Ctx.atomicAdd(Done, 1);
                  });
    Word Total = Ctx.load(Done);
    Ctx.store(Out + Ctx.laneId(), Total);
  });
  ASSERT_TRUE(R.Completed);
  // Sum of 1..32 iterations = 528; every lane must see the full total.
  for (unsigned I = 0; I < 32; ++I)
    EXPECT_EQ(Dev.memory().load(Out + I), 528u) << "lane " << I;
}

// The paper's Algorithm 1, Scheme #1: a spinlock inside a warp deadlocks
// under SIMT because the winner waits at reconvergence while the loser
// spins.  The simulator must reproduce this (watchdog trip).
TEST(DeviceTest, Scheme1SpinlockLivelocksInWarp) {
  DeviceConfig C = smallConfig();
  C.WatchdogRounds = 100000; // Trip fast.
  Device Dev(C);
  Addr Lock = Dev.hostAlloc(1);
  LaunchConfig L{1, 2};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    bool Acquired = false;
    Ctx.simtWhile([&] { return !Acquired; },
                  [&] { Acquired = Ctx.atomicCAS(Lock, 0, 1) == 0; });
    // Critical section would go here, after reconvergence...
    Ctx.store(Lock, 0);
  });
  EXPECT_FALSE(R.Completed);
  EXPECT_TRUE(R.WatchdogTripped);
}

// The paper's Algorithm 1, Scheme #3: diverging on lock failure works for a
// single lock per thread.
TEST(DeviceTest, Scheme3DivergeOnFailureCompletes) {
  Device Dev(smallConfig());
  Addr Lock = Dev.hostAlloc(1);
  Addr Counter = Dev.hostAlloc(1);
  LaunchConfig L{4, 64};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    bool Done = false;
    while (!Done) {
      if (Ctx.atomicCAS(Lock, 0, 1) == 0) {
        Word V = Ctx.load(Counter);
        Ctx.store(Counter, V + 1);
        Ctx.threadfence();
        Ctx.store(Lock, 0);
        Done = true;
      }
    }
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Counter), 256u);
}

// Scheme #2: serialization within each warp via laneId round-robin.
TEST(DeviceTest, Scheme2WarpSerializationCompletes) {
  Device Dev(smallConfig());
  Addr Lock = Dev.hostAlloc(1);
  Addr Counter = Dev.hostAlloc(1);
  LaunchConfig L{2, 64};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    for (unsigned Turn = 0; Turn < Ctx.warpSize(); ++Turn) {
      if (Ctx.laneId() == Turn) {
        bool Done = false;
        while (!Done) {
          if (Ctx.atomicCAS(Lock, 0, 1) == 0) {
            Word V = Ctx.load(Counter);
            Ctx.store(Counter, V + 1);
            Ctx.store(Lock, 0);
            Done = true;
          }
        }
      }
      Ctx.syncWarp();
    }
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Counter), 128u);
}

TEST(DeviceTest, PartialWarpAndOddBlockDim) {
  Device Dev(smallConfig());
  Addr Out = Dev.hostAlloc(512);
  LaunchConfig L{3, 50}; // 50 threads: one full warp + one partial warp.
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.store(Out + Ctx.globalThreadId(), 1);
  });
  ASSERT_TRUE(R.Completed);
  unsigned Sum = 0;
  for (unsigned I = 0; I < 512; ++I)
    Sum += Dev.memory().load(Out + I);
  EXPECT_EQ(Sum, 150u);
}

TEST(DeviceTest, ComputeCostsCycles) {
  Device Dev(smallConfig());
  LaunchConfig L{1, 32};
  LaunchResult R1 = Dev.launch(L, [&](ThreadCtx &Ctx) { Ctx.compute(10); });
  LaunchResult R2 = Dev.launch(L, [&](ThreadCtx &Ctx) { Ctx.compute(10000); });
  ASSERT_TRUE(R1.Completed);
  ASSERT_TRUE(R2.Completed);
  EXPECT_GT(R2.ElapsedCycles, R1.ElapsedCycles + 5000);
}

TEST(DeviceTest, PhaseAttributionIsTracked) {
  Device Dev(smallConfig());
  Addr A = Dev.hostAlloc(64);
  LaunchConfig L{1, 1};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.setPhase(Phase::Native);
    Ctx.load(A);
    Ctx.setPhase(Phase::Commit);
    Ctx.load(A + 1);
    Ctx.load(A + 2);
    Ctx.setPhase(Phase::Native);
  });
  ASSERT_TRUE(R.Completed);
  uint64_t Native = R.Stats.get("cycles.native");
  uint64_t Commit = R.Stats.get("cycles.commit");
  EXPECT_GT(Native, 0u);
  EXPECT_GT(Commit, 0u);
  EXPECT_NEAR(static_cast<double>(Commit), 2.0 * Native, Native);
}

TEST(DeviceTest, AbortedTxCyclesGoToAbortedBucket) {
  Device Dev(smallConfig());
  Addr A = Dev.hostAlloc(64);
  LaunchConfig L{1, 1};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.txMarkBegin();
    Ctx.setPhase(Phase::Buffering);
    Ctx.load(A);
    Ctx.txMarkEnd(/*Committed=*/false);
    Ctx.txMarkBegin();
    Ctx.load(A);
    Ctx.txMarkEnd(/*Committed=*/true);
    Ctx.setPhase(Phase::Native);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_GT(R.Stats.get("cycles.aborted"), 0u);
  EXPECT_GT(R.Stats.get("cycles.buffering"), 0u);
}

TEST(DeviceTest, SchedFuzzEnvRejectsGarbage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A bad GPUSTM_SCHED_FUZZ is fatal, never the default schedule.
  ::setenv("GPUSTM_SCHED_FUZZ", "abc", 1);
  EXPECT_DEATH({ Device Dev(smallConfig()); },
               "GPUSTM_SCHED_FUZZ='abc' is not a number");
  ::unsetenv("GPUSTM_SCHED_FUZZ");
}

} // namespace
