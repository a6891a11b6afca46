//===- bench/micro_host.cpp - Host microbenchmarks ------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// google-benchmark microbenchmarks of the building blocks: the fiber
// context switch (the simulator's hot path), the bloom filter, the
// order-preserving lock-log insertion (showing the paper's O(n^2) concern
// and the bucket/binary-search mitigation), and raw warp-round throughput.
//
// Unlike the harness-based bench binaries (which write BENCH_<name>.json
// themselves), machine-readable output here comes from google-benchmark's
// own flags: --benchmark_format=json or --benchmark_out=<file>.
//
//===----------------------------------------------------------------------===//

#include "simt/Device.h"
#include "stm/Bloom.h"
#include "stm/LockLog.h"
#include "support/MathExtras.h"
#include "support/Random.h"
#include "workloads/Harness.h"
#include "workloads/RandomArray.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace gpustm;
using namespace gpustm::simt;
using namespace gpustm::stm;

namespace {

//===----------------------------------------------------------------------===//
// Fiber switch
//===----------------------------------------------------------------------===//

void yieldForever(void *) {
  for (;;)
    Fiber::yieldToHost();
}

void BM_FiberSwitch(benchmark::State &State) {
  StackPool Pool(16 * 1024);
  Fiber F;
  F.init(Pool.acquire(), yieldForever, nullptr);
  for (auto _ : State)
    F.resume();
  State.SetItemsProcessed(State.iterations() * 2); // switch in + out
}
BENCHMARK(BM_FiberSwitch);

// A lane yields from a few frames down (kernel body -> Tx / ThreadCtx op ->
// yieldOp -> Fiber::yieldToHost), and a warp round steps many lanes in
// turn, each on its own 64 KiB device stack.  BM_FiberSwitch's one hot
// fiber sees neither the cache sets those stacks' tops share nor the
// return mispredictions of switching between call chains; this does.
__attribute__((noinline)) void yieldFrame1() {
  Fiber::yieldToHost();
  benchmark::ClobberMemory(); // not a tail call: the frame stays
}

__attribute__((noinline)) void yieldFrame2() {
  yieldFrame1();
  benchmark::ClobberMemory();
}

__attribute__((noinline)) void yieldFrame3() {
  yieldFrame2();
  benchmark::ClobberMemory();
}

void yieldForeverDeep(void *) {
  for (;;)
    yieldFrame3();
}

void BM_FiberSwitchMany(benchmark::State &State) {
  constexpr unsigned NumFibers = 1024;
  StackPool Pool(DeviceConfig().StackBytes, StackLayout::Slab);
  std::vector<Fiber> Fibers(NumFibers);
  for (Fiber &F : Fibers)
    F.init(Pool.acquire(), yieldForeverDeep, nullptr);
  unsigned I = 0;
  for (auto _ : State) {
    Fibers[I].resume();
    I = (I + 1) % NumFibers;
  }
  State.SetItemsProcessed(State.iterations() * 2); // switch in + out
}
BENCHMARK(BM_FiberSwitchMany);

//===----------------------------------------------------------------------===//
// Bloom filter
//===----------------------------------------------------------------------===//

void BM_BloomInsertAndProbe(benchmark::State &State) {
  Rng Rand(1);
  BloomFilter F;
  Addr Addrs[64];
  for (int I = 0; I < 64; ++I)
    Addrs[I] = static_cast<Addr>(Rand.nextBelow(1u << 24));
  size_t I = 0;
  for (auto _ : State) {
    F.insert(Addrs[I & 63]);
    benchmark::DoNotOptimize(F.mayContain(Addrs[(I + 7) & 63]));
    ++I;
  }
}
BENCHMARK(BM_BloomInsertAndProbe);

//===----------------------------------------------------------------------===//
// Lock-log insertion: random and ascending sequences, one vs many buckets.
//===----------------------------------------------------------------------===//

void BM_LockLogInsert(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  unsigned Buckets = static_cast<unsigned>(State.range(1));
  bool Ascending = State.range(2) != 0;

  DeviceConfig DC;
  DC.MemoryWords = 1u << 20;
  DC.NumSMs = 1;
  Device Dev(DC);
  Addr Storage = Dev.hostAlloc(1u << 16);
  Rng Rand(7);
  std::vector<Word> Seq;
  for (unsigned I = 0; I < N; ++I)
    Seq.push_back(Ascending ? I * 3
                            : static_cast<Word>(Rand.nextBelow(1u << 20)));

  uint64_t MemOps = 0;
  for (auto _ : State) {
    // One single-lane kernel performing N inserts; the metric of interest
    // is the simulated memory traffic, reported as items.
    LaunchConfig L{1, 1};
    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      LogView V;
      V.Base = Storage;
      V.Cap = 1u << 14;
      V.WarpSize = 1;
      V.Coalesced = true;
      LockLog Log;
      Log.configure(V, 0, Buckets, (1u << 14) / Buckets,
                    20 - log2Floor(Buckets), LockLog::Mode::Sorted);
      for (Word S : Seq)
        Log.insert(Ctx, S, true, false);
    });
    MemOps += R.Stats.get("simt.loads") + R.Stats.get("simt.stores");
  }
  State.counters["sim_mem_ops_per_insertseq"] =
      static_cast<double>(MemOps) / State.iterations();
}
BENCHMARK(BM_LockLogInsert)
    ->ArgsProduct({{16, 64, 256}, {1, 16}, {0, 1}})
    ->ArgNames({"locks", "buckets", "ascending"});

//===----------------------------------------------------------------------===//
// SM scheduler pick: many resident warps parked on long-latency loads, so
// every round the per-SM scheduler selects among a full candidate set.
// Exercises the issue-time-keyed candidate tracking in Device.cpp (items
// are warp rounds; higher is better).
//===----------------------------------------------------------------------===//

void BM_SchedulerPick(benchmark::State &State) {
  DeviceConfig DC;
  DC.MemoryWords = 1u << 20;
  DC.NumSMs = 1; // all warps compete on one SM's scheduler
  Device Dev(DC);
  Addr A = Dev.hostAlloc(1u << 16);
  uint64_t Rounds = 0;
  for (auto _ : State) {
    LaunchConfig L{6, 256}; // 48 warps resident (Fermi cap: 1536 threads)
    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      for (int I = 0; I < 64; ++I)
        benchmark::DoNotOptimize(
            Ctx.load(A + ((Ctx.globalThreadId() * 33 + I * 977) & 0xffff)));
    });
    Rounds += R.TotalRounds;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Rounds));
}
BENCHMARK(BM_SchedulerPick);

//===----------------------------------------------------------------------===//
// Masked-lane skip: one lane of a full warp runs a long divergent branch
// while the other 31 are masked off.  Measures the per-round engine cost of
// carrying masked lanes (they must cost no fiber switches; items are warp
// rounds of the mostly-masked warp).
//===----------------------------------------------------------------------===//

void BM_MaskedLaneSkip(benchmark::State &State) {
  DeviceConfig DC;
  DC.MemoryWords = 1u << 16;
  DC.NumSMs = 1;
  Device Dev(DC);
  Addr A = Dev.hostAlloc(64);
  uint64_t Rounds = 0;
  for (auto _ : State) {
    LaunchConfig L{1, 32};
    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      Ctx.simtIf(Ctx.laneId() == 0, [&] {
        for (int I = 0; I < 512; ++I)
          Ctx.store(A, static_cast<Word>(I));
      });
    });
    Rounds += R.TotalRounds;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Rounds));
}
BENCHMARK(BM_MaskedLaneSkip);

//===----------------------------------------------------------------------===//
// Watchpoint wake: two single-thread blocks ping-pong through memWait
// parking.  Every iteration parks one thread and wakes it with a store on
// the other side, measuring Device::addWatch / notifyWriteSlow round trips
// (items are individual wakes).
//===----------------------------------------------------------------------===//

void BM_WatchpointWake(benchmark::State &State) {
  DeviceConfig DC;
  DC.MemoryWords = 1u << 16;
  Device Dev(DC);
  Addr A = Dev.hostAlloc(2);
  constexpr Word Iters = 256;
  uint64_t Wakes = 0;
  for (auto _ : State) {
    Dev.memory().store(A, 0);
    Dev.memory().store(A + 1, 0);
    LaunchConfig L{2, 1};
    Dev.launch(L, [&](ThreadCtx &Ctx) {
      Addr Mine = A + Ctx.blockIdx();
      Addr Theirs = A + 1 - Ctx.blockIdx();
      for (Word K = 1; K <= Iters; ++K) {
        if (Ctx.blockIdx() == 0)
          Ctx.store(Mine, K);
        for (;;) {
          if (Ctx.load(Theirs) == K)
            break;
          Ctx.memWaitEquals(Theirs, K);
        }
        if (Ctx.blockIdx() != 0)
          Ctx.store(Mine, K);
      }
    });
    Wakes += 2 * Iters;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Wakes));
}
BENCHMARK(BM_WatchpointWake);

//===----------------------------------------------------------------------===//
// Warp-round throughput of the simulator
//===----------------------------------------------------------------------===//

void BM_WarpRoundThroughput(benchmark::State &State) {
  DeviceConfig DC;
  DC.MemoryWords = 1u << 20;
  Device Dev(DC);
  Addr A = Dev.hostAlloc(1u << 16);
  uint64_t Rounds = 0;
  for (auto _ : State) {
    LaunchConfig L{8, 256};
    LaunchResult R = Dev.launch(L, [&](ThreadCtx &Ctx) {
      for (int I = 0; I < 32; ++I)
        Ctx.store(A + ((Ctx.globalThreadId() + I * 131) & 0xffff), I);
    });
    Rounds += R.TotalRounds;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Rounds));
}
BENCHMARK(BM_WarpRoundThroughput);

//===----------------------------------------------------------------------===//
// Cold vs warm transactional kernel launch
//===----------------------------------------------------------------------===//

workloads::HarnessConfig coldWarmConfig() {
  workloads::HarnessConfig HC;
  HC.Kind = stm::Variant::HVSorting;
  HC.NumLocks = 1u << 12;
  HC.Launches = {{4, 64}};
  return HC;
}

workloads::RandomArray::Params coldWarmParams() {
  workloads::RandomArray::Params P;
  P.ArrayWords = 1u << 12;
  P.NumTx = 1u << 8;
  return P;
}

/// The one-shot path stmserve replaces: workload construction, device
/// arena, setup, and the kernel, all per launch.
void BM_ColdVsWarmLaunch_Cold(benchmark::State &State) {
  workloads::HarnessConfig HC = coldWarmConfig();
  uint64_t Commits = 0;
  for (auto _ : State) {
    workloads::RandomArray W(coldWarmParams());
    workloads::ExecutionContext Ctx(W, HC);
    workloads::HarnessResult R = Ctx.run(HC);
    Commits += R.Stm.Commits;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Commits));
}
BENCHMARK(BM_ColdVsWarmLaunch_Cold)->Unit(benchmark::kMillisecond);

/// The warm path: the same request on a persistent ExecutionContext
/// (arena rewind + input reset per iteration, nothing rebuilt).
void BM_ColdVsWarmLaunch_Warm(benchmark::State &State) {
  workloads::HarnessConfig HC = coldWarmConfig();
  workloads::RandomArray W(coldWarmParams());
  workloads::ExecutionContext Ctx(W, HC);
  uint64_t Commits = 0;
  for (auto _ : State) {
    workloads::HarnessResult R = Ctx.run(HC);
    Commits += R.Stm.Commits;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Commits));
}
BENCHMARK(BM_ColdVsWarmLaunch_Warm)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
