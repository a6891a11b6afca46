//===- bench/simspeed.cpp - Host simulator-throughput baseline ------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Unlike the figure/table benches (which report *modeled* GPU numbers),
// this bench tracks how fast the simulator itself runs on the host: warp
// rounds per second and lane fiber switches per round across a small set
// of engine regimes -- locking with parked waiters (CGL), read-set
// revalidation floods (VBV), lock-sorted commit (HV-Sorting), and the
// paper's optimized variant on contrasting workloads.  BENCH_simspeed.json
// is the regression baseline for host-performance work: modeled cycles
// must stay bit-identical across host optimizations while wall_ms and
// rounds_per_sec move.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace gpustm;
using namespace gpustm::bench;
using namespace gpustm::workloads;

int main() {
  unsigned Scale = benchScale();
  printBanner("Simulator speed: host throughput across engine regimes",
              "host-side baseline (no paper artifact)");

  // Engine regimes, cheapest cells first.  VBV runs on HT (not RA: the RA
  // read-set revalidation flood alone takes minutes and would dwarf every
  // other row; HT exercises the same code path at a bench-friendly size).
  struct Scenario {
    const char *Workload;
    stm::Variant Kind;
    const char *Regime;
  };
  const std::vector<Scenario> Scenarios = {
      {"RA", stm::Variant::CGL, "ticket lock, parked waiters"},
      {"RA", stm::Variant::HVSorting, "sorted commit locking"},
      {"RA", stm::Variant::Optimized, "hierarchical validation"},
      {"HT", stm::Variant::VBV, "global-seqlock revalidation"},
      {"HT", stm::Variant::Optimized, "low-conflict hash table"},
      {"KM", stm::Variant::Optimized, "high-conflict tiny data"},
  };

  size_t NumLocks = (64u << 10) * Scale;
  BenchJson Json("simspeed");

  std::vector<HarnessResult> Results =
      runSweep<HarnessResult>(Scenarios.size(), [&](size_t I) {
        HarnessConfig HC;
        HC.Kind = Scenarios[I].Kind;
        HC.Launches = launchFor(Scenarios[I].Workload, Scale);
        HC.NumLocks = NumLocks;
        auto W = makeWorkload(Scenarios[I].Workload, Scale);
        return runWorkload(*W, HC);
      });

  std::printf("%-4s %-16s %-30s %12s %12s %10s %8s\n", "WL", "Variant",
              "Regime", "rounds", "rounds/sec", "wall-ms", "sw/rnd");
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const Scenario &S = Scenarios[I];
    const HarnessResult &R = Results[I];
    uint64_t Rounds = R.Sim.get("simt.rounds");
    std::printf("%-4s %-16s %-30s %12llu %12.0f %10.1f %8.2f\n", S.Workload,
                stm::variantName(S.Kind), S.Regime,
                static_cast<unsigned long long>(Rounds), R.roundsPerSec(),
                R.wallMs(), R.switchesPerRound());
    auto Row = Json.row();
    Row.str("workload", S.Workload)
        .str("variant", stm::variantName(S.Kind))
        .str("regime", S.Regime)
        .num("cycles", R.TotalCycles)
        .num("commits", R.Stm.Commits)
        .num("aborts", R.Stm.Aborts)
        .num("rounds", Rounds)
        .flag("ok", R.Completed && R.Verified);
    wallFields(Row, R);
  }

  std::printf("\nrounds/sec and wall-ms are host throughput (vary run to "
              "run); cycles/commits/aborts/rounds are modeled and must be "
              "bit-identical across host optimizations.\n");
  return 0;
}
