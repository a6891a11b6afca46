//===- tests/stm/SchedulerTest.cpp - Transaction scheduler tests ----------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Tests for the adaptive transaction scheduler (the paper's Section 4.2
// future work): ticketed admission must bound concurrency, preserve
// correctness, and the feedback controller must shrink the cap under
// pathological conflict rates.
//
//===----------------------------------------------------------------------===//

#include "stm/Tx.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace gpustm;
using namespace gpustm::stm;
using simt::Addr;
using simt::Device;
using simt::DeviceConfig;
using simt::LaunchConfig;
using simt::LaunchResult;
using simt::ThreadCtx;
using simt::Word;

namespace {

DeviceConfig devConfig() {
  DeviceConfig C;
  C.MemoryWords = 8u << 20;
  C.NumSMs = 4;
  C.WatchdogRounds = 1u << 26;
  return C;
}

StmConfig stmConfig() {
  StmConfig C;
  C.Kind = Variant::HVSorting;
  C.NumLocks = 1u << 12;
  C.SharedDataWords = 1u << 12;
  return C;
}

TEST(SchedulerTest, CapOneSerializesAndEliminatesAborts) {
  Device Dev(devConfig());
  Addr Counter = Dev.hostAlloc(1);
  LaunchConfig L{4, 64};
  StmConfig SC = stmConfig();
  SC.EnableScheduler = true;
  SC.SchedulerAdaptive = false;
  SC.SchedulerCap = 1;
  StmRuntime Stm(Dev, SC, L);
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Stm.transaction(Ctx, [&](Tx &T) {
      Word V = T.read(Counter);
      if (!T.valid())
        return;
      T.write(Counter, V + 1);
    });
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Counter), 256u);
  // One transaction at a time cannot conflict.
  EXPECT_EQ(Stm.counters().Aborts, 0u);
}

TEST(SchedulerTest, BoundedConcurrencyStillCorrectUnderContention) {
  Device Dev(devConfig());
  constexpr unsigned NumWords = 32;
  Addr Data = Dev.hostAlloc(NumWords);
  LaunchConfig L{8, 64};
  StmConfig SC = stmConfig();
  SC.EnableScheduler = true;
  SC.SchedulerAdaptive = false;
  SC.SchedulerCap = 24;
  StmRuntime Stm(Dev, SC, L);
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Rng Rand(3 + Ctx.globalThreadId());
    for (int I = 0; I < 3; ++I) {
      Addr A = Data + static_cast<Addr>(Rand.nextBelow(NumWords));
      Stm.transaction(Ctx, [&](Tx &T) {
        Word V = T.read(A);
        if (!T.valid())
          return;
        T.write(A, V + 1);
      });
    }
  });
  ASSERT_TRUE(R.Completed);
  uint64_t Sum = 0;
  for (unsigned I = 0; I < NumWords; ++I)
    Sum += Dev.memory().load(Data + I);
  EXPECT_EQ(Sum, 8u * 64u * 3u);
}

TEST(SchedulerTest, AdaptiveControllerShrinksCapUnderHighConflict) {
  Device Dev(devConfig());
  Addr Hot = Dev.hostAlloc(2); // Two hot words: everything conflicts.
  LaunchConfig L{8, 128};
  StmConfig SC = stmConfig();
  SC.EnableScheduler = true;
  SC.SchedulerAdaptive = true;
  SC.SchedulerPeriod = 128;
  StmRuntime Stm(Dev, SC, L);
  Word InitialCap = Stm.schedulerCap();
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    for (int I = 0; I < 4; ++I) {
      Stm.transaction(Ctx, [&](Tx &T) {
        Word A = T.read(Hot);
        if (!T.valid())
          return;
        Word B = T.read(Hot + 1);
        if (!T.valid())
          return;
        T.write(Hot, A + 1);
        T.write(Hot + 1, B + 1);
      });
    }
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(Dev.memory().load(Hot), 8u * 128u * 4u);
  EXPECT_LT(Stm.schedulerCap(), InitialCap)
      << "controller should shed concurrency on a maximally-contended hot "
         "spot";
}

TEST(SchedulerTest, AdaptiveControllerKeepsCapHighWhenConflictFree) {
  Device Dev(devConfig());
  Addr Data = Dev.hostAlloc(4096);
  LaunchConfig L{8, 128};
  StmConfig SC = stmConfig();
  SC.NumLocks = 1u << 14;
  SC.EnableScheduler = true;
  SC.SchedulerAdaptive = true;
  SC.SchedulerPeriod = 128;
  StmRuntime Stm(Dev, SC, L);
  Word InitialCap = Stm.schedulerCap();
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    // Disjoint slots: no conflicts at all.
    Addr Mine = Data + Ctx.globalThreadId() % 4096;
    for (int I = 0; I < 4; ++I) {
      Stm.transaction(Ctx, [&](Tx &T) {
        Word V = T.read(Mine);
        if (!T.valid())
          return;
        T.write(Mine, V + 1);
      });
    }
  });
  ASSERT_TRUE(R.Completed);
  // The hill-climber oscillates around the optimum; on conflict-free work
  // the optimum is full concurrency, so the cap must stay in the high
  // region rather than collapse.
  EXPECT_GE(Stm.schedulerCap(), InitialCap / 8);
}

} // namespace
