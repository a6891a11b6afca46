//===- bench/san_overhead.cpp - simtsan host-overhead measurement ---------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Measures what attaching the simtsan detector (src/analysis/) costs in
// host wall time: each scenario simulates once with no observer and once
// with the detector attached, on the same workload and configuration.  The
// detector-on side pays for every observer event: accesses, lane ops and
// transaction events.  Modeled numbers must be bit-identical between the
// two runs (asserted here and by tests/analysis); only wall time may move.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "analysis/Simtsan.h"

using namespace gpustm;
using namespace gpustm::bench;
using namespace gpustm::workloads;

int main() {
  unsigned Scale = benchScale();
  printBanner("simtsan overhead: detector-on vs detector-off wall time",
              "host-side baseline (no paper artifact)");
  struct Scenario {
    const char *Workload;
    stm::Variant Kind;
  };
  // One access-heavy STM regime, one atomic/parked-waiter regime, one
  // low-conflict regime: the detector's per-access cost differs across them.
  const std::vector<Scenario> Scenarios = {
      {"RA", stm::Variant::HVSorting},
      {"RA", stm::Variant::CGL},
      {"HT", stm::Variant::Optimized},
      {"KM", stm::Variant::Optimized},
  };

  size_t NumLocks = (64u << 10) * Scale;
  BenchJson Json("san_overhead");

  // Cells: scenario x {off, on}.  Detector-on cells each own a Simtsan so
  // parallel sweep workers never share mutable state.
  std::vector<HarnessResult> Results =
      runSweep<HarnessResult>(Scenarios.size() * 2, [&](size_t Cell) {
        const Scenario &S = Scenarios[Cell / 2];
        bool WithSan = (Cell % 2) != 0;
        HarnessConfig HC;
        HC.Kind = S.Kind;
        HC.Launches = launchFor(S.Workload, Scale);
        HC.NumLocks = NumLocks;
        analysis::SimtsanOptions SanOpts;
        SanOpts.PrintToStderr = false;
        analysis::Simtsan San(SanOpts);
        if (WithSan)
          HC.San = &San;
        auto W = makeWorkload(S.Workload, Scale);
        return runWorkload(*W, HC);
      });

  std::printf("%-4s %-16s %12s %12s %12s %9s %9s\n", "WL", "Variant",
              "cycles", "off-ms", "on-ms", "slowdown", "findings");
  bool ModeledIdentical = true;
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const Scenario &S = Scenarios[I];
    const HarnessResult &Off = Results[2 * I];
    const HarnessResult &On = Results[2 * I + 1];
    if (Off.TotalCycles != On.TotalCycles ||
        Off.Stm.Commits != On.Stm.Commits || Off.Stm.Aborts != On.Stm.Aborts)
      ModeledIdentical = false;
    double Slowdown = Off.wallMs() == 0 ? 0.0 : On.wallMs() / Off.wallMs();
    std::printf("%-4s %-16s %12llu %12.1f %12.1f %8.2fx %9llu\n", S.Workload,
                stm::variantName(S.Kind),
                static_cast<unsigned long long>(On.TotalCycles), Off.wallMs(),
                On.wallMs(), Slowdown,
                static_cast<unsigned long long>(On.SanReports));
    Json.row()
        .str("workload", S.Workload)
        .str("variant", stm::variantName(S.Kind))
        .num("cycles", On.TotalCycles)
        .num("commits", On.Stm.Commits)
        .num("aborts", On.Stm.Aborts)
        .num("findings", On.SanReports)
        .flag("modeled_identical", Off.TotalCycles == On.TotalCycles)
        .flag("ok", On.Completed && On.Verified && Off.Completed &&
                        Off.Verified && On.SanReports == 0)
        .num("wall_ms_off", Off.wallMs())
        .num("wall_ms_on", On.wallMs())
        .num("slowdown", Slowdown);
  }

  std::printf("\noff-ms/on-ms/slowdown are host throughput (vary run to "
              "run); cycles/commits/aborts must be bit-identical between "
              "the two columns%s.\n",
              ModeledIdentical ? " (verified)" : "");
  if (!ModeledIdentical) {
    std::fprintf(stderr, "san_overhead: modeled results changed with the "
                         "detector attached\n");
    return 1;
  }
  return 0;
}
