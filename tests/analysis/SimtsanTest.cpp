//===- tests/analysis/SimtsanTest.cpp - simtsan detector tests ------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Seeded-bug mutation tests: each kernel below violates exactly one rule
// the detector checks (unlock by a non-owner, a version published without a
// threadfence, a barrier under divergence, a plain store into an in-flight
// transaction's write set, a lost-update race, a lock held past the end of
// a transaction) and must be caught with the expected report kind and
// coordinates.  The clean half of the suite runs the full 6-workload matrix
// with the detector attached and requires zero findings, and verifies the
// hard guarantee that attaching a detector -- alone or beside a trace
// recorder -- never changes modeled results.
//
//===----------------------------------------------------------------------===//

#include "analysis/Simtsan.h"
#include "simt/Device.h"
#include "stm/Runtime.h"
#include "stm/Tx.h"
#include "trace/Recorder.h"
#include "trace/TraceIO.h"
#include "workloads/EigenBench.h"
#include "workloads/Genome.h"
#include "workloads/Harness.h"
#include "workloads/HashTable.h"
#include "workloads/KMeans.h"
#include "workloads/Labyrinth.h"
#include "workloads/RandomArray.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

using namespace gpustm;
using namespace gpustm::analysis;
using namespace gpustm::simt;
using namespace gpustm::workloads;
using stm::Variant;

namespace {

DeviceConfig mutationConfig() {
  DeviceConfig C;
  C.MemoryWords = 1u << 16;
  C.NumSMs = 1; // Both warps on one SM: rounds alternate deterministically.
  C.WatchdogRounds = 1u << 14;
  return C;
}

SimtsanOptions quietOptions() {
  SimtsanOptions O;
  O.PrintToStderr = false; // Reports are asserted on, not read by a human.
  return O;
}

/// A lock table the mutation kernels manage by hand (no STM runtime needed:
/// the detector only sees the registered geometry).
struct FakeStm {
  Addr LockTab;
  Addr Data;
  Addr Scratch;

  FakeStm(Device &Dev, Simtsan &San) {
    LockTab = Dev.hostAlloc(64);
    Data = Dev.hostAlloc(64);
    Scratch = Dev.hostAlloc(256);
    SanStmLayout L;
    L.LockTabBase = LockTab;
    L.NumLocks = 64;
    San.onStmRegister(L);
  }
  /// The lock word covering \p A under the registered geometry.
  Addr lockFor(Addr A) const { return LockTab + (A & 63u); }
};

/// Burn \p N warp rounds with harmless loads of a private scratch word.
void delayRounds(ThreadCtx &Ctx, Addr Scratch, unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    (void)Ctx.load(Scratch + Ctx.globalThreadId() % 256);
}

TEST(SimtsanMutationTest, UnlockByNonOwnerIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  FakeStm S(Dev, San);
  Dev.addObserver(&San);
  Addr Lock = S.lockFor(S.Data);
  // Thread 0 (warp 0) acquires the version lock; thread 32 (warp 1) then
  // stores it back to "unlocked" without owning it.
  LaunchResult R = Dev.launch({1, 64}, [&](ThreadCtx &Ctx) {
    MemClassScope Meta(Ctx, MemClass::Meta);
    if (Ctx.globalThreadId() == 0) {
      Ctx.atomicCAS(Lock, 0, 1);
    } else if (Ctx.globalThreadId() == 32) {
      delayRounds(Ctx, S.Scratch, 4);
      Ctx.store(Lock, 0);
    }
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 1u);
  ASSERT_EQ(San.count(ReportKind::LockNotOwner), 1u);
  const SanReport &Rep = San.reports().front();
  EXPECT_EQ(Rep.Kind, ReportKind::LockNotOwner);
  EXPECT_EQ(Rep.Address, Lock);
  EXPECT_EQ(Rep.Thread, 32u);
  EXPECT_EQ(Rep.Warp, 1u);
  EXPECT_EQ(Rep.Lane, 0u);
  EXPECT_EQ(Rep.Block, 0u);
  EXPECT_GT(Rep.Cycle, 0u);
}

TEST(SimtsanMutationTest, VersionPublishedWithoutFenceIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  FakeStm S(Dev, San);
  Dev.addObserver(&San);
  Addr Lock = S.lockFor(S.Data);
  // Algorithm 3's commit, with the threadfence between write-back and lock
  // release deleted: the new version becomes visible while the write-back
  // store is still unordered.
  LaunchResult R = Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
    if (Ctx.globalThreadId() != 0)
      return;
    {
      MemClassScope Meta(Ctx, MemClass::Meta);
      Ctx.atomicCAS(Lock, 0, 1); // Acquire at version 0.
    }
    {
      MemClassScope Tx(Ctx, MemClass::TxData);
      Ctx.store(S.Data, 42); // Write-back.
    }
    // BUG: no Ctx.threadfence() here.
    MemClassScope Meta(Ctx, MemClass::Meta);
    Ctx.store(Lock, 1u << 1); // Publish version 1.
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 1u);
  ASSERT_EQ(San.count(ReportKind::LockMissingFence), 1u);
  const SanReport &Rep = San.reports().front();
  EXPECT_EQ(Rep.Address, Lock);
  EXPECT_EQ(Rep.Thread, 0u);
  EXPECT_EQ(Rep.Warp, 0u);
}

TEST(SimtsanMutationTest, FencedVersionPublishIsClean) {
  // Control for the mutation above: the same commit with the fence intact
  // must produce zero findings.
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  FakeStm S(Dev, San);
  Dev.addObserver(&San);
  Addr Lock = S.lockFor(S.Data);
  LaunchResult R = Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
    if (Ctx.globalThreadId() != 0)
      return;
    {
      MemClassScope Meta(Ctx, MemClass::Meta);
      Ctx.atomicCAS(Lock, 0, 1);
    }
    {
      MemClassScope Tx(Ctx, MemClass::TxData);
      Ctx.store(S.Data, 42);
    }
    Ctx.threadfence();
    MemClassScope Meta(Ctx, MemClass::Meta);
    Ctx.store(Lock, 1u << 1);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 0u);
}

TEST(SimtsanMutationTest, VersionRegressionIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  FakeStm S(Dev, San);
  Dev.addObserver(&San);
  Addr Lock = S.lockFor(S.Data);
  // Initialize the lock at version 5, acquire, then release at version 3.
  LaunchResult R = Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
    if (Ctx.globalThreadId() != 0)
      return;
    MemClassScope Meta(Ctx, MemClass::Meta);
    Ctx.store(Lock, 5u << 1); // Unheld initialization store: no report.
    Ctx.atomicCAS(Lock, 5u << 1, (5u << 1) | 1u);
    Ctx.store(Lock, 3u << 1); // BUG: version moved backwards.
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 1u);
  ASSERT_EQ(San.count(ReportKind::LockVersionRegression), 1u);
  EXPECT_EQ(San.reports().front().Address, Lock);
  EXPECT_EQ(San.reports().front().Thread, 0u);
}

TEST(SimtsanMutationTest, BarrierUnderDivergenceIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  Dev.addObserver(&San);
  // __syncthreads() inside one side of a SIMT branch: half the warp can
  // never arrive, so the launch cannot complete and the detector must name
  // the divergent arrival.
  LaunchResult R = Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
    Ctx.simtIf(Ctx.laneId() < 16, [&] { Ctx.syncThreads(); });
  });
  EXPECT_FALSE(R.Completed);
  ASSERT_EQ(San.count(ReportKind::BarrierDivergence), 1u);
  const SanReport &Rep = San.reports().front();
  EXPECT_EQ(Rep.Kind, ReportKind::BarrierDivergence);
  EXPECT_EQ(Rep.Warp, 0u);
  EXPECT_EQ(Rep.Block, 0u);
  EXPECT_NE(Rep.Message.find("divergent"), std::string::npos);
}

TEST(SimtsanMutationTest, BarrierSkippedByExitedLanesIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  Dev.addObserver(&San);
  // Half the block returns before the barrier; the barrier only completes
  // because the simulator credits exited lanes.  That is a real-GPU hazard
  // (undefined behavior on hardware) even though the simulation finishes.
  LaunchResult R = Dev.launch({1, 64}, [&](ThreadCtx &Ctx) {
    if (Ctx.globalThreadId() >= 32)
      return;
    Ctx.syncThreads();
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_GE(San.count(ReportKind::BarrierExitSkip), 1u);
  bool Found = false;
  for (const SanReport &Rep : San.reports())
    if (Rep.Kind == ReportKind::BarrierExitSkip) {
      Found = true;
      EXPECT_EQ(Rep.Block, 0u);
    }
  EXPECT_TRUE(Found);
}

TEST(SimtsanMutationTest, PlainStoreToTxOwnedWordIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  FakeStm S(Dev, San);
  Dev.addObserver(&San);
  Addr Lock = S.lockFor(S.Data);
  // Thread 0 runs a well-formed commit (acquire, write-back, fence,
  // release); thread 32 stores the same data word non-transactionally while
  // the lock is held -- the strong-isolation violation the paper's
  // privatization discussion warns about.
  LaunchResult R = Dev.launch({1, 64}, [&](ThreadCtx &Ctx) {
    if (Ctx.globalThreadId() == 0) {
      {
        MemClassScope Meta(Ctx, MemClass::Meta);
        Ctx.atomicCAS(Lock, 0, 1);
      }
      {
        MemClassScope Tx(Ctx, MemClass::TxData);
        Ctx.store(S.Data, 7);
      }
      delayRounds(Ctx, S.Scratch, 8); // Hold the lock while warp 1 runs.
      Ctx.threadfence();
      MemClassScope Meta(Ctx, MemClass::Meta);
      Ctx.store(Lock, 1u << 1);
    } else if (Ctx.globalThreadId() == 32) {
      delayRounds(Ctx, S.Scratch, 4);
      Ctx.store(S.Data, 999); // BUG: plain store into the write set.
    }
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 1u);
  ASSERT_EQ(San.count(ReportKind::IsolationViolation), 1u);
  const SanReport &Rep = San.reports().front();
  EXPECT_EQ(Rep.Address, S.Data);
  EXPECT_EQ(Rep.Thread, 32u);
  EXPECT_EQ(Rep.Warp, 1u);
}

TEST(SimtsanMutationTest, LostUpdateRaceIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  Dev.addObserver(&San);
  Addr Counter = Dev.hostAlloc(1);
  Addr Scratch = Dev.hostAlloc(256);
  // The classic lost update: both warps do a plain read-modify-write of the
  // same counter with no synchronization.
  LaunchResult R = Dev.launch({1, 64}, [&](ThreadCtx &Ctx) {
    if (Ctx.laneId() != 0)
      return;
    if (Ctx.globalThreadId() == 32)
      delayRounds(Ctx, Scratch, 2); // Interleave, don't collide in-round.
    Word V = Ctx.load(Counter);
    Ctx.store(Counter, V + 1);
  });
  ASSERT_TRUE(R.Completed);
  ASSERT_GE(San.count(ReportKind::DataRace), 1u);
  const SanReport &Rep = San.reports().front();
  EXPECT_EQ(Rep.Kind, ReportKind::DataRace);
  EXPECT_EQ(Rep.Address, Counter);
  EXPECT_EQ(Rep.Warp, 1u); // Warp 1's access completes the race...
  EXPECT_EQ(Rep.PrevWarp, 0u); // ...against warp 0's unordered one.
}

TEST(SimtsanMutationTest, AtomicSynchronizedCounterIsClean) {
  // Control for the race above: the same update through atomicAdd is
  // synchronization, not a race.
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  Dev.addObserver(&San);
  Addr Counter = Dev.hostAlloc(1);
  LaunchResult R = Dev.launch({1, 64}, [&](ThreadCtx &Ctx) {
    if (Ctx.laneId() == 0)
      Ctx.atomicAdd(Counter, 1);
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 0u);
  EXPECT_EQ(Dev.memory().load(Counter), 2u);
}

TEST(SimtsanMutationTest, LockHeldAtKernelEndIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  FakeStm S(Dev, San);
  Dev.addObserver(&San);
  Addr Lock = S.lockFor(S.Data);
  LaunchResult R = Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
    if (Ctx.globalThreadId() == 0)
      Ctx.setMemClass(MemClass::Meta), Ctx.atomicCAS(Lock, 0, 1);
    // BUG: never released.
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 1u);
  ASSERT_EQ(San.count(ReportKind::LockLeak), 1u);
  EXPECT_EQ(San.reports().front().Address, Lock);
  EXPECT_EQ(San.reports().front().Thread, 0u);
}

TEST(SimtsanMutationTest, LockHeldAtTransactionEndIsReported) {
  Device Dev(mutationConfig());
  Simtsan San(quietOptions());
  Dev.addObserver(&San); // Before the runtime: it registers its lock table.
  Addr Data = Dev.hostAlloc(2);
  stm::StmConfig SC;
  SC.Kind = Variant::HVSorting;
  SC.NumLocks = 1024;
  SC.Faults.LeakReadLocks = true; // BUG: read-only stripes stay locked.
  stm::StmRuntime Stm(Dev, SC, {1, 32});
  LaunchResult R = Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
    if (Ctx.globalThreadId() != 0)
      return;
    Stm.transaction(Ctx, [&](stm::Tx &T) {
      Word V = T.read(Data);
      if (!T.valid())
        return;
      T.write(Data + 1, V + 1);
    });
  });
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(San.findingCount(), 1u);
  ASSERT_EQ(San.count(ReportKind::LockLeak), 1u);
  const SanReport &Rep = San.reports().front();
  EXPECT_EQ(Rep.Address, Stm.lockWordAddr(Stm.lockIndexFor(Data)));
  EXPECT_EQ(Rep.Thread, 0u);
  EXPECT_NE(Rep.Message.find("end of a committed transaction attempt"),
            std::string::npos)
      << Rep.Message;
}

//===----------------------------------------------------------------------===//
// Clean matrix: the real workloads under the real STM must be silent.
//===----------------------------------------------------------------------===//

std::unique_ptr<Workload> makeSmall(const std::string &Name) {
  if (Name == "RA") {
    RandomArray::Params P;
    P.ArrayWords = 1u << 14;
    P.NumTx = 1024;
    return std::make_unique<RandomArray>(P);
  }
  if (Name == "HT") {
    HashTable::Params P;
    P.TableWords = 1u << 13;
    P.NumTx = 1024;
    return std::make_unique<HashTable>(P);
  }
  if (Name == "EB") {
    EigenBench::Params P;
    P.HotWords = 1u << 14;
    P.NumTx = 1024;
    P.MaxThreads = 1024;
    return std::make_unique<EigenBench>(P);
  }
  if (Name == "LB") {
    Labyrinth::Params P;
    P.GridN = 32;
    P.NumRoutes = 48;
    P.ExpansionCycles = 500;
    return std::make_unique<Labyrinth>(P);
  }
  if (Name == "GN") {
    Genome::Params P;
    P.GenomeLen = 1024;
    P.NumSegments = 1536;
    P.TableWords = 1u << 12;
    return std::make_unique<Genome>(P);
  }
  if (Name == "KM") {
    KMeans::Params P;
    P.NumPoints = 1024;
    P.K = 8;
    return std::make_unique<KMeans>(P);
  }
  return nullptr;
}

HarnessConfig smallConfig(Variant V) {
  HarnessConfig C;
  C.Kind = V;
  C.Launches = {{8, 64}};
  C.NumLocks = 1u << 14;
  C.DeviceCfg.NumSMs = 4;
  C.DeviceCfg.WatchdogRounds = 1u << 26;
  return C;
}

class SimtsanCleanMatrixTest : public ::testing::TestWithParam<const char *> {};

TEST_P(SimtsanCleanMatrixTest, WorkloadHasZeroFindingsUnderEveryVariant) {
  const std::string Name = GetParam();
  for (Variant V : {Variant::CGL, Variant::EGPGV, Variant::VBV,
                    Variant::TBVSorting, Variant::HVSorting,
                    Variant::HVBackoff, Variant::Optimized}) {
    auto W = makeSmall(Name);
    ASSERT_NE(W, nullptr);
    Simtsan San(quietOptions());
    HarnessConfig HC = smallConfig(V);
    if (Name == "LB")
      HC.Launches = {{16, 32}};
    HC.San = &San;
    HarnessResult R = runWorkload(*W, HC);
    ASSERT_TRUE(R.Completed) << R.Error;
    EXPECT_TRUE(R.Verified) << R.Error;
    EXPECT_EQ(San.findingCount(), 0u)
        << Name << "/" << stm::variantName(V) << " first report: "
        << (San.reports().empty() ? "<none stored>"
                                  : San.reports().front().Message);
    EXPECT_EQ(R.SanReports, San.findingCount());
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SimtsanCleanMatrixTest,
                         ::testing::Values("RA", "HT", "EB", "LB", "GN", "KM"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

//===----------------------------------------------------------------------===//
// The hard guarantee: observation never changes modeled results.
//===----------------------------------------------------------------------===//

TEST(SimtsanIdentityTest, DetectorOnAndOffProduceIdenticalModeledResults) {
  auto Run = [](Simtsan *San) {
    auto W = makeSmall("RA");
    HarnessConfig HC = smallConfig(Variant::HVSorting);
    HC.San = San;
    return runWorkload(*W, HC);
  };
  Simtsan San(quietOptions());
  HarnessResult On = Run(&San);
  HarnessResult Off = Run(nullptr);
  ASSERT_TRUE(On.Completed);
  ASSERT_TRUE(Off.Completed);
  EXPECT_EQ(On.TotalCycles, Off.TotalCycles);
  EXPECT_EQ(On.KernelCycles, Off.KernelCycles);
  EXPECT_EQ(On.Stm.Commits, Off.Stm.Commits);
  EXPECT_EQ(On.Stm.Aborts, Off.Stm.Aborts);
  for (const char *Key :
       {"simt.rounds", "simt.lane_steps", "simt.stores", "cycles.native",
        "cycles.commit", "cycles.locking", "cycles.aborted"})
    EXPECT_EQ(On.Sim.get(Key), Off.Sim.get(Key)) << Key;
  EXPECT_EQ(San.findingCount(), 0u);
  EXPECT_EQ(On.SanReports, 0u);
  EXPECT_EQ(Off.SanReports, 0u);
}

// A deadlocked launch discards its lanes' fibers without unwinding them, and
// the device hands their stacks back to its pool and later unmaps them.  A
// clean run after it, on a new device whose stacks may reuse those
// addresses, must be unaffected.  Under ASan this catches stale redzone
// poison from the discarded frames (a false stack-buffer-overflow); both
// steps share one test body because CI's ASan job runs one process per test.
TEST(SimtsanIdentityTest, CleanRunAfterDeadlockedLaunchIsUnaffected) {
  {
    Device Dev(mutationConfig());
    Simtsan San(quietOptions());
    Dev.addObserver(&San);
    LaunchResult R = Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
      Ctx.simtIf(Ctx.laneId() < 16, [&] { Ctx.syncThreads(); });
    });
    ASSERT_FALSE(R.Completed);
  }
  auto W = makeSmall("RA");
  Simtsan San(quietOptions());
  HarnessConfig HC = smallConfig(Variant::HVSorting);
  HC.San = &San;
  HarnessResult R = runWorkload(*W, HC);
  EXPECT_TRUE(R.Completed);
  EXPECT_TRUE(R.Verified);
  EXPECT_EQ(San.findingCount(), 0u);
}

/// The bytes trace::writeTrace gives for \p T (written to \p Path, which
/// is removed again).
std::string traceBytes(const trace::TxTrace &T, const std::string &Path) {
  std::string Err;
  EXPECT_TRUE(trace::writeTrace(T, Path, &Err)) << Err;
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Bytes;
  Bytes << In.rdbuf();
  std::remove(Path.c_str());
  return Bytes.str();
}

TEST(SimtsanIdentityTest, RecorderAndDetectorShareOneRun) {
  // Observers compose: a detector and an op-recording trace recorder on one
  // run each see what they see alone, and the run's modeled results match
  // a run with no observer at all.
  trace::TxTraceRecorder::Options RecOpts;
  RecOpts.RecordOps = true;
  auto Run = [](Simtsan *San, trace::TxTraceRecorder *Rec) {
    auto W = makeSmall("RA");
    HarnessConfig HC = smallConfig(Variant::HVSorting);
    HC.San = San;
    HC.Recorder = Rec;
    HarnessResult R = runWorkload(*W, HC);
    EXPECT_TRUE(R.Completed && R.Verified) << R.Error;
    return R;
  };
  HarnessResult Plain = Run(nullptr, nullptr);
  trace::TxTraceRecorder SoloRec(RecOpts);
  Run(nullptr, &SoloRec);
  Simtsan SoloSan(quietOptions());
  Run(&SoloSan, nullptr);
  trace::TxTraceRecorder BothRec(RecOpts);
  Simtsan BothSan(quietOptions());
  HarnessResult Both = Run(&BothSan, &BothRec);

  EXPECT_EQ(resultDigest(Both), resultDigest(Plain));
  EXPECT_FALSE(BothRec.trace().Events.empty());
  EXPECT_FALSE(BothRec.trace().Ops.empty());
  EXPECT_EQ(BothRec.trace().Events.size(), SoloRec.trace().Events.size());
  EXPECT_EQ(BothRec.trace().Ops.size(), SoloRec.trace().Ops.size());
  EXPECT_TRUE(traceBytes(BothRec.trace(), "simtsan_both.trace") ==
              traceBytes(SoloRec.trace(), "simtsan_solo.trace"))
      << "the recorder saw a different run with the detector attached";
  EXPECT_EQ(BothSan.findingCount(), SoloSan.findingCount());
  EXPECT_EQ(BothSan.findingCount(), 0u);
  EXPECT_EQ(Both.SanReports, 0u);
}

//===----------------------------------------------------------------------===//
// Out-of-bounds hardening (always compiled, detector or not): an OOB word
// access must abort with full coordinates, never index out of the arena.
//===----------------------------------------------------------------------===//

using SimtsanDeathTest = ::testing::Test;

TEST(SimtsanDeathTest, OutOfBoundsStoreAbortsWithCoordinates) {
  ASSERT_DEATH(
      {
        DeviceConfig C;
        C.MemoryWords = 1u << 12;
        Device Dev(C);
        Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
          if (Ctx.globalThreadId() == 0)
            Ctx.store(1u << 20, 42);
        });
      },
      "out-of-bounds global store of word 1048576 .arena holds 4096 words. "
      "by block 0 warp 0 lane 0 .thread 0.");
}

TEST(SimtsanDeathTest, OutOfBoundsLoadAbortsWithCoordinates) {
  ASSERT_DEATH(
      {
        DeviceConfig C;
        C.MemoryWords = 1u << 12;
        Device Dev(C);
        Dev.launch({1, 32}, [&](ThreadCtx &Ctx) {
          if (Ctx.globalThreadId() == 31)
            (void)Ctx.load(~0u);
        });
      },
      "out-of-bounds global load of word 4294967295 .* lane 31 .thread 31.");
}

} // namespace
