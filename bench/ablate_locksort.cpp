//===- bench/ablate_locksort.cpp - Lock-sorting ablation ------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Ablation for the paper's Section 3.1 livelock argument: commit-time
// locking with
//   (a) no defense (unsorted logs, lockstep retry)  -> intra-warp circular
//       locking livelocks; the run trips the simulator watchdog,
//   (b) encounter-time lock-sorting                 -> completes, and
//   (c) the GPU-specific warp-serialized backoff    -> completes, slower
//       under contention.
//
// Part 1 uses the adversarial reverse-order pattern of Section 2.2 /
// 3.2.2; part 2 compares (b) and (c) on RA as the conflict rate rises
// (smaller array => more conflicts).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "workloads/RandomArray.h"

using namespace gpustm;
using namespace gpustm::bench;
using namespace gpustm::workloads;
using simt::Addr;
using simt::Word;

namespace {

/// The paper's reverse-order locking pattern inside one warp.
void runCircularPattern(BenchJson &Json, bool Sorted) {
  simt::DeviceConfig DC;
  DC.MemoryWords = 8u << 20;
  DC.WatchdogRounds = 300000;
  simt::Device Dev(DC);
  Addr X = Dev.hostAlloc(1);
  Addr Y = Dev.hostAlloc(1);
  simt::LaunchConfig L{1, 2};
  stm::StmConfig SC;
  SC.Kind = stm::Variant::HVSorting;
  SC.NumLocks = 1u << 12;
  SC.DisableSorting = !Sorted;
  SC.PreLockValidation = false;
  stm::StmRuntime Stm(Dev, SC, L);
  simt::LaunchResult R = Dev.launch(L, [&](simt::ThreadCtx &Ctx) {
    bool IsT1 = Ctx.globalThreadId() == 0;
    Addr First = IsT1 ? X : Y;
    Addr Second = IsT1 ? Y : X;
    Stm.transaction(Ctx, [&](stm::Tx &T) {
      Word A = T.read(First);
      if (!T.valid())
        return;
      Word B = T.read(Second);
      if (!T.valid())
        return;
      T.write(First, A + 1);
      T.write(Second, B + 1);
    });
  });
  std::printf("  %-22s %s\n", Sorted ? "encounter-time sorting" : "no sorting",
              R.Completed ? formatString("completed in %llu cycles",
                                         static_cast<unsigned long long>(
                                             R.ElapsedCycles))
                                .c_str()
                          : "LIVELOCK (watchdog tripped)");
  Json.row().str("part", "circular").flag("sorted", Sorted)
      .flag("completed", R.Completed)
      .num("cycles", R.Completed ? R.ElapsedCycles : 0);
}

} // namespace

int main() {
  unsigned Scale = benchScale();
  printBanner("Ablation: encounter-time lock-sorting vs alternatives",
              "Sections 2.2, 3.1 (livelock-freedom)");

  BenchJson Json("ablate_locksort");
  std::printf("\nPart 1: reverse-order locking inside one warp "
              "(T1: X then Y, T2: Y then X)\n");
  runCircularPattern(Json, /*Sorted=*/false);
  runCircularPattern(Json, /*Sorted=*/true);

  std::printf("\nPart 2: sorting vs warp-serialized backoff on RA as "
              "conflicts rise\n");
  std::printf("%-12s %15s %12s %15s %12s\n", "array-words", "sorted",
              "aborts", "backoff", "aborts");

  const size_t ArraySizes[] = {1u << 18, 1u << 14, 1u << 11};
  struct Cell {
    size_t ArrayWords = 0;
    int Policy = 0;
  };
  std::vector<Cell> Cells;
  for (size_t ArrayWords : ArraySizes)
    for (int I = 0; I < 2; ++I)
      Cells.push_back({ArrayWords, I});

  std::vector<HarnessResult> Results =
      runSweep<HarnessResult>(Cells.size(), [&](size_t CI) {
        RandomArray::Params P;
        P.ArrayWords = Cells[CI].ArrayWords;
        P.NumTx = 8192 * Scale;
        RandomArray W(P);
        int I = Cells[CI].Policy;
        HarnessConfig HC;
        HC.Kind = I == 1 ? stm::Variant::HVBackoff : stm::Variant::HVSorting;
        HC.Launches = {{32u * Scale, 256}};
        HC.NumLocks = 1u << 16;
        return runWorkload(W, HC);
      });

  size_t CellIdx = 0;
  for (size_t ArrayWords : ArraySizes) {
    uint64_t Cycles[2];
    double Aborts[2];
    for (int I = 0; I < 2; ++I) {
      const HarnessResult &R = Results[CellIdx++];
      Cycles[I] = R.Completed && R.Verified ? R.TotalCycles : 0;
      Aborts[I] = R.abortRate();
      static const char *Policies[] = {"sorted", "backoff"};
      auto Row = Json.row();
      Row.str("part", "ra-sweep")
          .num("array_words", static_cast<uint64_t>(ArrayWords))
          .str("policy", Policies[I])
          .num("cycles", Cycles[I])
          .num("abort_rate", Aborts[I]);
      wallFields(Row, R);
    }
    std::printf("%-12s %15llu %12s %15llu %12s\n",
                formatCount(ArrayWords).c_str(),
                static_cast<unsigned long long>(Cycles[0]),
                fmtPercent(Aborts[0]).c_str(),
                static_cast<unsigned long long>(Cycles[1]),
                fmtPercent(Aborts[1]).c_str());
    std::fflush(stdout);
  }
  std::printf("\nSorting guarantees livelock-freedom with no backoff "
              "machinery or tuning, and in this cycle model it is also the "
              "faster policy at every conflict rate swept, its lead growing "
              "as conflicts rise.  Warp-serialized backoff aborts less often "
              "but spends more cycles in its serialized retries than the "
              "aborts it saves.  See EXPERIMENTS.md.\n");
  return 0;
}
