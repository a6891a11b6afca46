//===- tests/simt/TraceTest.cpp - Lane operation observer tests -----------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Device.h"
#include "wmm/MemModel.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace gpustm;
using namespace gpustm::simt;

namespace {

DeviceConfig smallConfig() {
  DeviceConfig C;
  C.MemoryWords = 1u << 16;
  C.NumSMs = 1;
  return C;
}

/// Keeps every reported lane operation.
struct OpLog final : Observer {
  std::vector<TraceEvent> Ops;
  void onOp(const TraceEvent &E) override { Ops.push_back(E); }
};

TEST(TraceTest, CapturesEveryLaneOperationInIssueOrder) {
  Device Dev(smallConfig());
  Addr Data = Dev.hostAlloc(256);
  OpLog Log;
  Dev.addObserver(&Log);
  const std::vector<TraceEvent> &Events = Log.Ops;
  LaunchConfig L{1, 4};
  LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
    Ctx.store(Data + Ctx.laneId(), 1);
    Ctx.threadfence();
    Word V = Ctx.load(Data + Ctx.laneId());
    Ctx.compute(V);
  });
  ASSERT_TRUE(R.Completed);

  // 4 lanes x (store, fence, load, compute) + 4 finish markers.
  unsigned Stores = 0, Fences = 0, Loads = 0, Computes = 0, Finishes = 0;
  uint64_t LastCycle = 0;
  for (const TraceEvent &E : Events) {
    EXPECT_GE(E.IssueCycle, LastCycle) << "trace out of issue order";
    LastCycle = E.IssueCycle;
    switch (E.Kind) {
    case OpKind::Store:
      ++Stores;
      EXPECT_EQ(E.Address, Data + E.LaneIdx);
      break;
    case OpKind::Fence:
      ++Fences;
      break;
    case OpKind::Load:
      ++Loads;
      break;
    case OpKind::Compute:
      ++Computes;
      break;
    case OpKind::None:
      ++Finishes;
      EXPECT_EQ(E.Address, InvalidAddr) << "finish marker kept an address";
      EXPECT_EQ(E.Value, 0u);
      break;
    default:
      ADD_FAILURE() << "unexpected op kind";
    }
  }
  EXPECT_EQ(Stores, 4u);
  EXPECT_EQ(Fences, 4u);
  EXPECT_EQ(Loads, 4u);
  EXPECT_EQ(Computes, 4u);
  EXPECT_EQ(Finishes, 4u);
}

TEST(TraceTest, ValuesAreTakenAfterEachLanesOp) {
  Device Dev(smallConfig());
  Addr Data = Dev.hostAlloc(1);
  Dev.hostFill(Data, 1, 5);
  OpLog Log;
  Dev.addObserver(&Log);
  // One round: lane 0 loads the word, then lane 1 overwrites it.  The
  // load's record must carry the value it read, not the round's end state.
  LaunchResult R = Dev.launch({1, 2}, [&](ThreadCtx &Ctx) {
    if (Ctx.laneId() == 0)
      (void)Ctx.load(Data);
    else
      Ctx.store(Data, 7);
  });
  ASSERT_TRUE(R.Completed);
  ASSERT_EQ(Log.Ops.size(), 4u);
  EXPECT_EQ(Log.Ops[0].Kind, OpKind::Load);
  EXPECT_EQ(Log.Ops[0].LaneIdx, 0u);
  EXPECT_EQ(Log.Ops[0].Value, 5u);
  EXPECT_EQ(Log.Ops[1].Kind, OpKind::Store);
  EXPECT_EQ(Log.Ops[1].LaneIdx, 1u);
  EXPECT_EQ(Log.Ops[1].Value, 7u);
  for (unsigned I = 2; I < 4; ++I) {
    EXPECT_EQ(Log.Ops[I].Kind, OpKind::None);
    EXPECT_EQ(Log.Ops[I].LaneIdx, I - 2);
    EXPECT_EQ(Log.Ops[I].Address, InvalidAddr);
    EXPECT_EQ(Log.Ops[I].Value, 0u);
  }
}

TEST(TraceTest, ObserverCanBeRemoved) {
  Device Dev(smallConfig());
  Addr Data = Dev.hostAlloc(16);
  OpLog Log;
  Dev.addObserver(&Log);
  LaunchConfig L{1, 1};
  (void)Dev.launch(L, [&](ThreadCtx &Ctx) { Ctx.store(Data, 1); });
  size_t AfterFirst = Log.Ops.size();
  EXPECT_GT(AfterFirst, 0u);
  Dev.removeObserver(&Log);
  EXPECT_FALSE(Dev.observed());
  (void)Dev.launch(L, [&](ThreadCtx &Ctx) { Ctx.store(Data, 2); });
  EXPECT_EQ(Log.Ops.size(), AfterFirst);
}

TEST(TraceTest, TracingDoesNotPerturbTiming) {
  auto Run = [&](bool Traced) {
    Device Dev(smallConfig());
    Addr Data = Dev.hostAlloc(4096);
    OpLog Log;
    if (Traced)
      Dev.addObserver(&Log);
    LaunchConfig L{2, 64};
    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      for (int I = 0; I < 8; ++I)
        Ctx.store(Data + (Ctx.globalThreadId() * 31 + I) % 4096, I);
    });
    return R.ElapsedCycles;
  };
  EXPECT_EQ(Run(false), Run(true));
}

// The device's one-shot observer warning is process-wide.  Two threads
// launching observed devices at once (a GPUSTM_JOBS sweep, stmserve
// workers) both reach it; under TSan this test checks that doing so is
// race-free, and everywhere that the warning still prints at most once.

unsigned countOccurrences(const std::string &Text, const std::string &Needle) {
  unsigned N = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

/// Launches a small kernel on \p Threads devices at once, each configured
/// by \p Setup, and returns the modeled cycles of each launch.
template <typename SetupFn>
std::vector<uint64_t> launchConcurrently(unsigned Threads, SetupFn Setup) {
  std::vector<uint64_t> Cycles(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Device Dev(smallConfig());
      Addr Data = Dev.hostAlloc(64);
      wmm::MemModel Model;
      Setup(Dev, Model);
      LaunchResult R = Dev.launch(LaunchConfig{2, 32}, [&](ThreadCtx &Ctx) {
        Ctx.store(Data + Ctx.globalThreadId() % 64, 1);
        Ctx.threadfence();
        Ctx.compute(Ctx.load(Data + (Ctx.globalThreadId() + 1) % 64));
      });
      EXPECT_TRUE(R.Completed);
      Cycles[T] = R.ElapsedCycles;
    });
  for (std::thread &Th : Pool)
    Th.join();
  return Cycles;
}

TEST(TraceTest, ConcurrentObservedWmmLaunchesWarnOnce) {
  testing::internal::CaptureStderr();
  // Stateless (every event is a no-op), so both devices may share it.
  Observer Quiet;
  std::vector<uint64_t> Cycles =
      launchConcurrently(2, [&](Device &Dev, wmm::MemModel &Model) {
        Dev.setWmmModel(&Model);
        Dev.addObserver(&Quiet);
      });
  std::string Err = testing::internal::GetCapturedStderr();
  std::fputs(Err.c_str(), stderr); // keep sanitizer reports visible
  EXPECT_EQ(Cycles[0], Cycles[1]);
  EXPECT_LE(countOccurrences(Err, "weak-memory mode (GPUSTM_WMM) disabled"),
            1u);
}

} // namespace
