//===- bench/stmbench/stmbench.cpp - End-to-end and per-layer bench -------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// stmbench measures one workload per process and prints every metric as a
/// `workload metric value unit` line, then one JSON result line.  Untraced
/// runs report the end-to-end metrics; traced runs (--trace 1) report the
/// per-layer metrics and write the spans recorded around each layer call.
///
/// Layers are the repository's modules, timed from outside around their
/// public calls: `harness` (Workload construction, the ExecutionContext
/// constructor and run(), Workload::verify), `simt` (Device::launch),
/// `stm` (counters and modeled phase cycles from HarnessResult), and
/// `serve` (StmServer::submit / drain and RequestResult).  No observer
/// (trace, simtsan, wmm, lint) is attached.
///
/// Usage:
///   stmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///            [--smoke] [--spans FILE] [--detail FILE] [--reference FILE]
///
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "serve/Server.h"
#include "support/Random.h"
#include "workloads/All.h"
#include "workloads/Genome.h"
#include "workloads/Harness.h"
#include "workloads/HashTable.h"
#include "workloads/KMeans.h"
#include "workloads/Labyrinth.h"
#include "workloads/RandomArray.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

extern char **environ;

using namespace gpustm;
using namespace gpustm::stmbench;
using workloads::ExecutionContext;
using workloads::HarnessConfig;
using workloads::HarnessResult;
using workloads::Workload;

namespace {

//===----------------------------------------------------------------------===//
// Metric names (BENCHMARK.json lists the same names, units and directions)
//===----------------------------------------------------------------------===//

const std::vector<std::string> EndToEndMetrics = {"wall_s", "setup_s",
                                                  "peak_rss_mb",
                                                  "modeled_cycles"};

const std::vector<std::string> PerLayerMetrics = {
    "simt.rounds", "simt.lane_steps", "simt.switches_per_round",
    "simt.mem_transactions", "simt.atomics", "simt.kernel_s",
    "simt.ns_per_lane_step", "simt.ns_per_round", "simt.empty_launch_ms",
    "simt.arena_mb",
    "stm.commits", "stm.aborts", "stm.commit_ratio",
    "stm.aborts_read_validation", "stm.aborts_commit_validation",
    "stm.lock_failures", "stm.stale_snapshots", "stm.false_conflicts_avoided",
    "stm.vbv_runs", "stm.tx_reads", "stm.tx_writes",
    "stm.speedup_vs_cgl_geomean",
    "cycles.native", "cycles.tx-init", "cycles.buffering",
    "cycles.consistency", "cycles.locking", "cycles.commit", "cycles.aborted",
    "harness.make_s", "harness.context_build_s", "harness.context_rss_mb",
    "harness.first_run_rss_mb", "harness.run_overhead_s", "harness.verify_s",
    "serve.queue_share", "serve.worker_util", "serve.cold_over_warm",
    "serve.contexts_built", "serve.cold_runs", "serve.warm_runs",
    "serve.batches", "serve.batch_size_mean", "serve.backlog_end",
    "bench.modeled_drift", "bench.trace_overhead_frac"};

/// The serve layer's per-layer metrics and units.  They are shares and
/// counts, so the simulation workload, which has no server, reports an
/// exact 0 rather than a time.
const std::vector<std::pair<std::string, std::string>> ServeLayerMetrics = {
    {"serve.queue_share", "ratio"},   {"serve.worker_util", "ratio"},
    {"serve.cold_over_warm", "ratio"}, {"serve.contexts_built", "count"},
    {"serve.cold_runs", "count"},     {"serve.warm_runs", "count"},
    {"serve.batches", "count"},       {"serve.batch_size_mean", "count"},
    {"serve.backlog_end", "count"}};

/// The modeled-cycle phases of LaunchResult::Stats, as `cycles.<phase>`.
const char *const CyclePhases[] = {"native",      "tx-init", "buffering",
                                   "consistency", "locking", "commit",
                                   "aborted"};

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 55;
  bool Trace = false;
  bool Smoke = false;
  std::string SpansPath = "BENCH_stmbench_spans.json";
  std::string DetailPath;
  std::string ReferencePath;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "stmbench: %s\n"
               "usage: stmbench --workload "
               "paper-matrix|serve-mixed\n"
               "                [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke]\n"
               "                [--spans FILE] [--detail FILE] "
               "[--reference FILE]\n",
               Msg);
  std::exit(2);
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno != 0 || *End != '\0' || S[0] == '-')
    return false;
  Out = V;
  return true;
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, O.Seed))
        usage("--seed takes an unsigned integer");
    } else if (A == "--seconds") {
      char *End = nullptr;
      O.Seconds = std::strtod(V, &End);
      if (*End != '\0' || !(O.Seconds > 0) || O.Seconds > 3600)
        usage("--seconds takes a number in (0, 3600]");
    } else if (A == "--trace") {
      if (!parseUnsigned(V, N) || N > 1)
        usage("--trace takes 0 or 1");
      O.Trace = N == 1;
    } else if (A == "--spans") {
      O.SpansPath = V;
    } else if (A == "--detail") {
      O.DetailPath = V;
    } else if (A == "--reference") {
      O.ReferencePath = V;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (O.Workload.empty())
    usage("--workload is required");
  return O;
}

/// Every run measures the default build with no observer attached and the
/// serial round loop: GPUSTM_* variables would change what is measured
/// (tracing, sanitizer, weak memory, device jobs), so they are cleared.
void clearGpustmEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "GPUSTM_", 7) == 0)
      Names.emplace_back(*E, std::strcspn(*E, "="));
  for (const std::string &Name : Names) {
    std::fprintf(stderr, "stmbench: ignoring %s\n", Name.c_str());
    unsetenv(Name.c_str());
  }
}

/// --seed 0 keeps every workload's built-in Params::Seed; any other seed
/// is mixed into each of them.
uint64_t seedMix(uint64_t Seed) {
  if (Seed == 0)
    return 0;
  uint64_t State = Seed;
  return splitMix64(State);
}

std::string hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Workload definitions
//===----------------------------------------------------------------------===//

/// One row of a simulation workload: a workload instance and its context,
/// on which every listed variant runs warm (as the Figure 2 bench does).
struct RowSpec {
  std::string Name;
  std::function<std::unique_ptr<Workload>(uint64_t Mix)> Make;
  std::vector<simt::LaunchConfig> Launches;
  size_t NumLocks = 0;
  /// CGL, listed first, is the baseline: timed in the pass like every
  /// cell, but excluded from modeled cycles, which describe the STM cells.
  std::vector<stm::Variant> Variants;
};

std::function<std::unique_ptr<Workload>(uint64_t)>
makeRA(unsigned NumTx, size_t ArrayWords) {
  return [=](uint64_t Mix) {
    workloads::RandomArray::Params P;
    P.NumTx = NumTx;
    P.ArrayWords = ArrayWords;
    P.Seed ^= Mix;
    return std::make_unique<workloads::RandomArray>(P);
  };
}

std::function<std::unique_ptr<Workload>(uint64_t)>
makeHT(unsigned NumTx, size_t TableWords) {
  return [=](uint64_t Mix) {
    workloads::HashTable::Params P;
    P.NumTx = NumTx;
    P.TableWords = TableWords;
    P.Seed ^= Mix;
    return std::make_unique<workloads::HashTable>(P);
  };
}

std::function<std::unique_ptr<Workload>(uint64_t)>
makeGN(unsigned GenomeLen, unsigned NumSegments, size_t TableWords) {
  return [=](uint64_t Mix) {
    workloads::Genome::Params P;
    P.GenomeLen = GenomeLen;
    P.NumSegments = NumSegments;
    P.TableWords = TableWords;
    P.Seed ^= Mix;
    return std::make_unique<workloads::Genome>(P);
  };
}

std::function<std::unique_ptr<Workload>(uint64_t)>
makeLB(unsigned GridN, unsigned NumRoutes) {
  return [=](uint64_t Mix) {
    workloads::Labyrinth::Params P;
    P.GridN = GridN;
    P.NumRoutes = NumRoutes;
    P.Seed ^= Mix;
    return std::make_unique<workloads::Labyrinth>(P);
  };
}

std::function<std::unique_ptr<Workload>(uint64_t)> makeKM(unsigned NumPoints) {
  return [=](uint64_t Mix) {
    workloads::KMeans::Params P;
    P.NumPoints = NumPoints;
    P.Seed ^= Mix;
    return std::make_unique<workloads::KMeans>(P);
  };
}

/// Figure 2's matrix, its VBV column cut to one row.  RA, HT and GN run at
/// a quarter of scale 1 (transactions, threads, data and locks all divided
/// by four, so the shared-data : lock ratios that decide HV against TBV are
/// scale 1's); LB runs at scale 1; KM keeps scale 1's 512 threads with one
/// point each, so its conflict rate stays high.  The last row is HT under
/// STM-VBV, Figure 2's critical-path cell at a size that fits a pass: every
/// commit bumps NOrec's global sequence lock, so every running transaction
/// revalidates its whole read set and the round loop switches ~25 lanes per
/// warp round.  One pass is ~2.4 s of host time instead of Figure 2's
/// minutes.  --smoke divides everything by 8.
std::vector<RowSpec> paperMatrixRows(bool Smoke) {
  using stm::Variant;
  std::vector<Variant> Fig2 = {Variant::CGL,       Variant::EGPGV,
                               Variant::TBVSorting, Variant::HVSorting,
                               Variant::HVBackoff,  Variant::Optimized};
  unsigned D = Smoke ? 8 : 1;
  return {
      {"RA", makeRA(2048 / D, (64u << 10) / D), {{8 / D, 256}},
       (16u << 10) / D, Fig2},
      {"HT", makeHT(2048 / D, (16u << 10) / D), {{8 / D, 256}},
       (16u << 10) / D, Fig2},
      {"GN", makeGN(2048 / D, 3072 / D, (8u << 10) / D),
       {{8 / D, 256}, {4 / D ? 4 / D : 1, 64}}, (16u << 10) / D, Fig2},
      {"LB", makeLB(64 / D, 192 / D), {{64 / D, 32}}, (64u << 10) / D, Fig2},
      {"KM", makeKM(512 / D), {{64 / D, 8}}, (64u << 10) / D, Fig2},
      {"HT-VBV", makeHT(1024 / D, (64u << 10) / D),
       {{4 / D ? 4 / D : 1, 256}}, (64u << 10) / D,
       {Variant::CGL, Variant::VBV}},
  };
}

/// serve-mixed: request classes, pool size, and load.
struct ServePlan {
  /// Every request class once: the traffic mix, of which the streams are
  /// copies.
  std::vector<serve::Request> Classes;
  /// Two workers, not three: on a shared 4-core host, three busy workers
  /// showed twice the run-to-run spread of burst time, and every worker
  /// holds its own contexts.
  unsigned Workers = 2;
  /// Copies of the mix in one closed-loop burst of phase A (108 requests,
  /// ~1.7 s on a 4-core host).
  unsigned BurstCopies = 18;
  /// Untraced bursts phase A runs even when phase B leaves no room, so the
  /// best burst is picked from several moments of the host.
  unsigned MinBursts = 6;
  /// Copies of the mix in phase B's open-loop arrivals (216 requests, ~10 s
  /// of arrivals on a 4-core host, 21 of them beyond the 90th percentile),
  /// which leave phase A the rest of a 55 s run: about twenty set-ups and
  /// bursts.
  unsigned ArrivalCopies = 36;
  /// Phase B's offered load as a share of the capacity phase A measured in
  /// the same run: about 40% of the rate phase A's bursts complete at.  At
  /// 0.5 and 0.6, with HT requests in the mix, arrival clusters queued
  /// behind batches of HT requests decided the 90th percentile, and it
  /// spread by 0.16 to 0.32 from seed to seed, against 0.10 at 0.35 in runs
  /// interleaved on the same seeds.
  double LoadShare = 0.35;
};

/// LB under the six non-VBV variants at scale 1 with the result cache off:
/// every request executes, so the numbers are execution, not memoization.
/// LB is the only workload whose scale-1 launch is small (2048 threads);
/// with HT@1 (8192 threads) in the mix, burst time spread 2 to 5 times as
/// much as paper-matrix's passes in runs interleaved with them (four sets),
/// against 1.2 times for LB alone (one set).  GN@1 contexts are ~470 MB
/// each.
ServePlan servePlan(bool Smoke) {
  using stm::Variant;
  ServePlan P;
  std::vector<Variant> Variants = {Variant::CGL,        Variant::EGPGV,
                                   Variant::TBVSorting, Variant::HVSorting,
                                   Variant::HVBackoff,  Variant::Optimized};
  if (Smoke) {
    Variants = {Variant::CGL, Variant::HVSorting};
    P.BurstCopies = 6;
    P.ArrivalCopies = 9;
  }
  for (Variant V : Variants) {
    serve::Request R;
    R.Workload = "LB";
    R.Kind = V;
    R.Scale = 1;
    P.Classes.push_back(R);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Shared bookkeeping
//===----------------------------------------------------------------------===//

/// One executed cell (or probed request class) and what it cost.
struct CellRun {
  HarnessResult R;
  uint64_t CglCycles = 0; ///< The row's baseline cycles (speedup base).
  double HostS = 0;       ///< ExecutionContext::run.
  double VerifyS = 0;     ///< The extra Workload::verify (traced runs).
  bool Baseline = false;
};

/// What one run checks and counts: every executed cell or request is an
/// attempt; it fails when it did not complete or verify, or when its
/// digest differs from an earlier execution of the same cell in this run
/// or from the committed reference.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// First digest seen per cell key, in first-seen order.
  std::vector<std::pair<std::string, uint64_t>> Digests;

  void attempt(const std::string &Key, bool Ok, const std::string &Error) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    std::fprintf(stderr, "stmbench: %s failed: %s\n", Key.c_str(),
                 Error.c_str());
  }

  void check(const std::string &Key, bool Ok, uint64_t Digest,
             std::string Error) {
    auto It = std::find_if(Digests.begin(), Digests.end(),
                           [&](const auto &KD) { return KD.first == Key; });
    if (It == Digests.end()) {
      Digests.emplace_back(Key, Digest);
    } else if (It->second != Digest) {
      Ok = false;
      Error = "digest " + hex64(Digest) + " differs from " + hex64(It->second);
    }
    attempt(Key, Ok, Error);
  }
};

/// The committed seed-0 digest of every cell or request class of one
/// workload (reference_digests.txt).  Smoke sizes and runs without
/// --reference compare nothing.
class Reference {
public:
  explicit Reference(const Options &O) {
    if (O.Smoke || O.ReferencePath.empty())
      return;
    std::ifstream In(O.ReferencePath);
    if (!In) {
      std::fprintf(stderr, "stmbench: cannot read %s\n",
                   O.ReferencePath.c_str());
      std::exit(1);
    }
    Compared = true;
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream F(Line);
      std::string W, Cell, Digest;
      if (Line.empty() || Line[0] == '#' || !(F >> W >> Cell >> Digest))
        continue;
      if (W == O.Workload)
        Digests[Cell] = Digest;
    }
  }

  /// False, and \p Key counts as drifted, when \p Digest is not the
  /// reference's (or \p Key has none).  Always true when not compared.
  bool matches(const std::string &Key, uint64_t Digest, std::string &Error) {
    if (!Compared)
      return true;
    auto It = Digests.find(Key);
    if (It != Digests.end() && It->second == hex64(Digest))
      return true;
    Drifted.insert(Key);
    Error = "digest " + hex64(Digest) + " differs from the reference " +
            (It == Digests.end() ? std::string("(none)") : It->second);
    return false;
  }

  /// Cells or request classes that drifted; -1 when nothing was compared.
  long drift() const {
    return Compared ? static_cast<long>(Drifted.size()) : -1;
  }

private:
  bool Compared = false;
  std::map<std::string, std::string> Digests;
  std::set<std::string> Drifted;
};

/// simt and stm metrics of traced passes: counts from the first pass (they
/// repeat exactly), host times as medians over the passes.
void reportLayers(const std::vector<std::vector<CellRun>> &Passes,
                  MetricSheet &M) {
  const std::vector<CellRun> &First = Passes.front();
  StatsSet Sim, StmSim;
  stm::StmCounters C;
  std::vector<double> Speedups;
  for (const CellRun &Cell : First) {
    Sim.merge(Cell.R.Sim);
    if (Cell.Baseline)
      continue;
    StmSim.merge(Cell.R.Sim);
    const stm::StmCounters &S = Cell.R.Stm;
    C.Commits += S.Commits;
    C.Aborts += S.Aborts;
    C.AbortsReadValidation += S.AbortsReadValidation;
    C.AbortsCommitValidation += S.AbortsCommitValidation;
    C.LockFailures += S.LockFailures;
    C.StaleSnapshots += S.StaleSnapshots;
    C.FalseConflictsAvoided += S.FalseConflictsAvoided;
    C.VbvRuns += S.VbvRuns;
    C.TxReads += S.TxReads;
    C.TxWrites += S.TxWrites;
    if (Cell.CglCycles && Cell.R.TotalCycles)
      Speedups.push_back(static_cast<double>(Cell.CglCycles) /
                         static_cast<double>(Cell.R.TotalCycles));
  }
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  double Rounds = D(Sim.get("simt.rounds"));
  double Steps = D(Sim.get("simt.lane_steps"));
  M.set("simt.rounds", Rounds, "count");
  M.set("simt.lane_steps", Steps, "count");
  M.set("simt.switches_per_round", Rounds ? Steps / Rounds : 0, "ratio");
  M.set("simt.mem_transactions", D(Sim.get("simt.mem_transactions")), "count");
  M.set("simt.atomics", D(Sim.get("simt.atomics")), "count");

  std::vector<double> Kernel, Overhead, Verify;
  for (const std::vector<CellRun> &Pass : Passes) {
    double K = 0, Run = 0, V = 0;
    for (const CellRun &Cell : Pass) {
      K += D(Cell.R.WallNanos) / 1e9;
      Run += Cell.HostS;
      V += Cell.VerifyS;
    }
    Kernel.push_back(K);
    Overhead.push_back(Run - K);
    Verify.push_back(V);
  }
  double KernelS = median(Kernel);
  M.set("simt.kernel_s", KernelS, "s");
  M.set("simt.ns_per_lane_step", Steps ? KernelS * 1e9 / Steps : 0, "ns");
  M.set("simt.ns_per_round", Rounds ? KernelS * 1e9 / Rounds : 0, "ns");
  M.set("harness.run_overhead_s", median(Overhead), "s");
  M.set("harness.verify_s", median(Verify), "s");

  M.set("stm.commits", D(C.Commits), "count");
  M.set("stm.aborts", D(C.Aborts), "count");
  M.set("stm.commit_ratio",
        C.Commits + C.Aborts ? D(C.Commits) / D(C.Commits + C.Aborts) : 0,
        "ratio");
  M.set("stm.aborts_read_validation", D(C.AbortsReadValidation), "count");
  M.set("stm.aborts_commit_validation", D(C.AbortsCommitValidation), "count");
  M.set("stm.lock_failures", D(C.LockFailures), "count");
  M.set("stm.stale_snapshots", D(C.StaleSnapshots), "count");
  M.set("stm.false_conflicts_avoided", D(C.FalseConflictsAvoided), "count");
  M.set("stm.vbv_runs", D(C.VbvRuns), "count");
  M.set("stm.tx_reads", D(C.TxReads), "count");
  M.set("stm.tx_writes", D(C.TxWrites), "count");
  M.set("stm.speedup_vs_cgl_geomean", geomean(Speedups), "ratio");
  for (const char *Phase : CyclePhases) {
    std::string Name = std::string("cycles.") + Phase;
    M.set(Name, D(StmSim.get(Name)), "cycles");
  }
}

/// A workload instance and its warmed execution context.
struct Context {
  std::unique_ptr<Workload> W;
  std::unique_ptr<ExecutionContext> Ctx;
};

/// Host costs of one set-up (summed over its contexts).
struct SetupSample {
  double TotalS = 0, MakeS = 0, BuildS = 0, EmptyLaunchS = 0;
  double BuildRssMb = 0, LaunchRssMb = 0, ArenaMb = 0;
};

/// Field-wise medians of \p Setups.
SetupSample medianSetup(const std::vector<SetupSample> &Setups) {
  SetupSample Med;
  for (double SetupSample::*Field :
       {&SetupSample::TotalS, &SetupSample::MakeS, &SetupSample::BuildS,
        &SetupSample::EmptyLaunchS, &SetupSample::BuildRssMb,
        &SetupSample::LaunchRssMb, &SetupSample::ArenaMb}) {
    std::vector<double> V;
    for (const SetupSample &S : Setups)
      V.push_back(S.*Field);
    Med.*Field = median(V);
  }
  return Med;
}

/// The simt and harness metrics a set-up measures.
void reportSetup(const SetupSample &S, MetricSheet &M) {
  M.set("simt.empty_launch_ms", S.EmptyLaunchS * 1e3, "ms");
  M.set("simt.arena_mb", S.ArenaMb, "MB");
  M.set("harness.make_s", S.MakeS, "s");
  M.set("harness.context_build_s", S.BuildS, "s");
  M.set("harness.context_rss_mb", S.BuildRssMb, "MB");
  M.set("harness.first_run_rss_mb", S.LaunchRssMb, "MB");
}

simt::LaunchConfig widest(const std::vector<simt::LaunchConfig> &Launches) {
  simt::LaunchConfig W = Launches.front();
  for (const simt::LaunchConfig &L : Launches) {
    W.GridDim = std::max(W.GridDim, L.GridDim);
    W.BlockDim = std::max(W.BlockDim, L.BlockDim);
  }
  return W;
}

/// Build one context, timing from outside the workload's construction
/// (\p Make), the ExecutionContext constructor (device arena plus
/// Workload::setup), and one empty launch at the widest shape, which maps
/// and faults in the fiber stacks later runs reuse.  Adds the costs to \p S.
Context buildContext(const std::function<std::unique_ptr<Workload>()> &Make,
                     const HarnessConfig &Shape, const std::string &Label,
                     SetupSample &S, SpanLog &Spans) {
  Context C;
  Clock::time_point A = Clock::now();
  C.W = Make();
  Clock::time_point B = Clock::now();
  double Rss0 = currentRssMb();
  C.Ctx = std::make_unique<ExecutionContext>(*C.W, Shape);
  Clock::time_point D = Clock::now();
  double Rss1 = currentRssMb();
  C.Ctx->device().launch(widest(Shape.Launches), [](simt::ThreadCtx &) {});
  Clock::time_point E = Clock::now();
  S.MakeS += secondsBetween(A, B);
  S.BuildS += secondsBetween(B, D);
  S.EmptyLaunchS += secondsBetween(D, E);
  S.BuildRssMb += Rss1 - Rss0;
  S.LaunchRssMb += currentRssMb() - Rss1;
  S.ArenaMb += static_cast<double>(C.Ctx->device().memory().size()) * 4 /
               (1024.0 * 1024.0);
  std::string Args = "\"context\": \"" + Label + "\"";
  Spans.span("harness.make", A, B, 1, Args);
  Spans.span("harness.context_build", B, D, 1, Args);
  Spans.span("simt.empty_launch", D, E, 1, Args);
  return C;
}

/// Run one cell on \p C and time it.  Traced runs also time an extra
/// Workload::verify and record both spans.  \p Cgl carries a row's baseline
/// cycles from its CGL cell to the cells after it.
CellRun runCell(Context &C, const HarnessConfig &HC, const std::string &Key,
                bool Traced, uint64_t &Cgl, SpanLog &Spans) {
  CellRun Cell;
  Cell.Baseline = HC.Kind == stm::Variant::CGL;
  Clock::time_point A = Clock::now();
  Cell.R = C.Ctx->run(HC);
  Clock::time_point B = Clock::now();
  Cell.HostS = secondsBetween(A, B);
  if (Cell.Baseline)
    Cgl = Cell.R.TotalCycles;
  Cell.CglCycles = Cgl;
  if (Traced) {
    std::string Err;
    C.W->verify(C.Ctx->device(), Cell.R.Stm, Err);
    Clock::time_point D = Clock::now();
    Cell.VerifyS = secondsBetween(B, D);
    Spans.span("harness.run", A, B, 1,
               "\"cell\": \"" + Key + "\", \"kernel_ns\": " +
                   std::to_string(Cell.R.WallNanos));
    Spans.span("workloads.verify", B, D, 1);
  }
  return Cell;
}

/// One row of the per-cell JSON detail (modeled phase cycles included).
std::string cellJson(const std::string &Key, const CellRun &Cell,
                     double HostMs) {
  const HarnessResult &R = Cell.R;
  std::ostringstream S;
  S << "{\"cell\": \"" << Key << "\", \"digest\": \"" << hex64(
      workloads::resultDigest(R))
    << "\", \"baseline\": " << (Cell.Baseline ? "true" : "false")
    << ", \"ok\": " << (R.Completed && R.Verified ? "true" : "false")
    << ", \"cycles\": " << R.TotalCycles << ", \"cgl_cycles\": "
    << Cell.CglCycles << ", \"commits\": " << R.Stm.Commits
    << ", \"aborts\": " << R.Stm.Aborts << ", \"host_ms\": " << HostMs;
  for (const char *Phase : CyclePhases) {
    std::string Name = std::string("cycles.") + Phase;
    S << ", \"" << Name << "\": " << R.Sim.get(Name);
  }
  S << "}";
  return S.str();
}

//===----------------------------------------------------------------------===//
// Simulation workload: paper-matrix
//===----------------------------------------------------------------------===//

HarnessConfig rowConfig(const RowSpec &Spec, stm::Variant V) {
  HarnessConfig HC;
  HC.Kind = V;
  HC.Launches = Spec.Launches;
  HC.NumLocks = Spec.NumLocks;
  return HC;
}

struct SimRow {
  Context C;
  const RowSpec *Spec = nullptr;
};

/// Build every row's context.  Any previous rows are released first, so
/// only one set is ever resident.
SetupSample buildRows(const std::vector<RowSpec> &Specs, uint64_t Mix,
                      std::vector<SimRow> &Rows, SpanLog &Spans) {
  Rows.clear();
  SetupSample S;
  Clock::time_point T0 = Clock::now();
  for (const RowSpec &Spec : Specs)
    Rows.push_back({buildContext([&] { return Spec.Make(Mix); },
                                 rowConfig(Spec, Spec.Variants.front()),
                                 Spec.Name, S, Spans),
                    &Spec});
  Clock::time_point T1 = Clock::now();
  S.TotalS = secondsBetween(T0, T1);
  Spans.span("bench.setup", T0, T1, 1);
  return S;
}

std::string cellKey(const SimRow &Row, stm::Variant V) {
  return Row.Spec->Name + "/" + stm::variantName(V);
}

/// One pass: every variant of every row, in table order.
std::vector<CellRun> runPass(std::vector<SimRow> &Rows, bool Traced,
                             SpanLog &Spans) {
  std::vector<CellRun> Cells;
  for (SimRow &Row : Rows) {
    uint64_t Cgl = 0;
    for (stm::Variant V : Row.Spec->Variants)
      Cells.push_back(runCell(Row.C, rowConfig(*Row.Spec, V),
                              cellKey(Row, V), Traced, Cgl, Spans));
  }
  return Cells;
}

/// The seeded pass: the rows built with the run's seed mixed into every
/// Params seed, run once, each cell checked by Workload::verify.  It is not
/// timed: KM's and LB's modeled cycles move by up to 2.3x from one seed's
/// inputs to another's, which would put the draw of the inputs into every
/// host time.
void runSeededPass(const std::vector<RowSpec> &Specs, uint64_t Seed,
                   Outcome &Out, SpanLog &Spans) {
  std::vector<SimRow> Rows;
  buildRows(Specs, seedMix(Seed), Rows, Spans);
  Clock::time_point A = Clock::now();
  std::vector<CellRun> Pass = runPass(Rows, /*Traced=*/false, Spans);
  Spans.span("bench.seeded_pass", A, Clock::now(), 1);
  size_t I = 0;
  for (SimRow &Row : Rows)
    for (stm::Variant V : Row.Spec->Variants) {
      const CellRun &Cell = Pass[I++];
      Out.attempt("seed " + std::to_string(Seed) + " " + cellKey(Row, V),
                  Cell.R.Completed && Cell.R.Verified, Cell.R.Error);
    }
}

void runSim(const Options &O, const std::vector<RowSpec> &Specs,
            Reference &Ref, MetricSheet &M, Outcome &Out, SpanLog &Spans,
            std::vector<std::string> &DetailRows) {
  runSeededPass(Specs, O.Seed, Out, Spans);

  // The measured phase: set-up and pass in turn, until the next pair would
  // overrun the budget.  Each pass runs on the rows just built, so set-ups
  // and passes both sample the host over the whole run: its speed drifts by
  // a tenth or more within a minute, and a block of set-ups at the start saw
  // only one moment of it.  The rows are built with their built-in seeds,
  // as --seed 0 builds them, so every seed times the same work and every
  // cell of every pass can be checked against the committed reference.
  // Traced runs alternate untraced and traced passes, so the difference
  // between the two medians is the tracing overhead.
  enum class Role { Timed, Traced };
  std::vector<SimRow> Rows;
  std::vector<SetupSample> Setups;
  std::vector<std::pair<Role, std::vector<CellRun>>> Passes;
  std::vector<double> PassWall, TracedWall;
  Clock::time_point T0 = Clock::now();
  double Last = 0;
  do {
    Role Kind = O.Trace && Passes.size() % 2 == 1 ? Role::Traced : Role::Timed;
    Clock::time_point A = Clock::now();
    Setups.push_back(buildRows(Specs, /*Mix=*/0, Rows, Spans));
    Clock::time_point B = Clock::now();
    Passes.emplace_back(Kind, runPass(Rows, Kind == Role::Traced, Spans));
    Last = secondsSince(A);
    Spans.span("bench.pass", B, Clock::now(), 1,
               Kind == Role::Traced ? "\"traced\": true" : "\"traced\": false");
    (Kind == Role::Traced ? TracedWall : PassWall).push_back(secondsSince(B));
  } while ((O.Trace && TracedWall.empty()) ||
           secondsSince(T0) + Last <= O.Seconds);
  SetupSample Setup = medianSetup(Setups);

  std::vector<std::vector<double>> CellMs;
  double Cycles = 0;
  for (const auto &[Kind, Pass] : Passes) {
    size_t I = 0;
    for (SimRow &Row : Rows)
      for (stm::Variant V : Row.Spec->Variants) {
        const CellRun &Cell = Pass[I++];
        std::string Key = cellKey(Row, V), Error = Cell.R.Error;
        uint64_t Digest = workloads::resultDigest(Cell.R);
        bool Ok = Cell.R.Completed && Cell.R.Verified &&
                  Ref.matches(Key, Digest, Error);
        Out.check(Key, Ok, Digest, Error);
        if (&Pass == &Passes.front().second && !Cell.Baseline)
          Cycles += static_cast<double>(Cell.R.TotalCycles);
        if (Kind != Role::Timed)
          continue;
        if (CellMs.size() < I)
          CellMs.resize(I);
        CellMs[I - 1].push_back(Cell.HostS * 1e3);
      }
  }
  const std::vector<CellRun> &First = Passes.front().second;

  // wall_s is the best pass the run saw: every cell's fastest run, summed.
  // Other tenants of the host slow it by up to a third for seconds to
  // minutes at a time, and no pass of a run may fall in a quiet moment;
  // each cell's fastest run of ~25 repeats far better from run to run than
  // the median pass (README.md, Noise).  The median pass is printed beside.
  double BestS = 0;
  for (const std::vector<double> &Ms : CellMs)
    BestS += minimum(Ms) / 1e3;
  M.set("wall_s", BestS, "s", "passes=" + std::to_string(PassWall.size()));
  M.set("wall_median_s", median(PassWall), "s");
  M.set("setup_s", Setup.TotalS, "s",
        "setups=" + std::to_string(Setups.size()));
  M.set("peak_rss_mb", peakRssMb(), "MB");
  M.set("modeled_cycles", Cycles, "cycles");

  if (O.Trace) {
    std::vector<std::vector<CellRun>> Traced;
    for (const auto &[Kind, Pass] : Passes)
      if (Kind == Role::Traced)
        Traced.push_back(Pass);
    reportLayers(Traced, M);
    reportSetup(Setup, M);
    for (const auto &[Name, Unit] : ServeLayerMetrics)
      M.set(Name, 0, Unit, "(no server in this workload)");
    double Untraced = median(PassWall);
    M.set("bench.trace_overhead_frac",
          Untraced ? (median(TracedWall) - Untraced) / Untraced : 0, "ratio");
  }

  size_t I = 0;
  for (SimRow &Row : Rows)
    for (stm::Variant V : Row.Spec->Variants) {
      DetailRows.push_back(
          cellJson(cellKey(Row, V), First[I], minimum(CellMs[I])));
      ++I;
    }
}

//===----------------------------------------------------------------------===//
// serve-mixed
//===----------------------------------------------------------------------===//

/// \p Copies of the mix, in an order shuffled by \p Rand: every stream holds
/// the same multiset of requests, so the draw changes only the order (and,
/// in phase B, the arrival times), not the amount of work.
std::vector<serve::Request> shuffledStream(const ServePlan &Plan,
                                           unsigned Copies, Rng &Rand) {
  std::vector<serve::Request> S;
  for (unsigned C = 0; C < Copies; ++C)
    S.insert(S.end(), Plan.Classes.begin(), Plan.Classes.end());
  for (size_t I = S.size(); I > 1; --I)
    std::swap(S[I - 1], S[Rand.nextBelow(I)]);
  return S;
}

serve::ServerConfig serverConfig(const ServePlan &Plan) {
  serve::ServerConfig SC;
  SC.Workers = Plan.Workers;
  SC.QueueDepth = 64;
  SC.BatchCap = 8;
  SC.CacheResults = 0;
  return SC;
}

/// The harness layer as the server drives it, timed from outside: one
/// context per context key, then every class of that key run on it once.
/// Gives the serve workload's simt, stm and harness metrics and a digest
/// per class that the served results must match.
void probeHarness(const ServePlan &Plan, Reference &Ref, MetricSheet &M,
                  Outcome &Out, SpanLog &Spans) {
  std::map<std::string, std::vector<serve::Request>> ByKey;
  std::vector<std::string> Keys;
  for (const serve::Request &R : Plan.Classes) {
    if (!ByKey.count(serve::contextKey(R)))
      Keys.push_back(serve::contextKey(R));
    ByKey[serve::contextKey(R)].push_back(R);
  }
  SetupSample S;
  std::vector<CellRun> Cells;
  for (const std::string &Key : Keys) {
    const serve::Request &First = ByKey[Key].front();
    Context C = buildContext(
        [&] { return workloads::makeWorkload(First.Workload, First.Scale); },
        serve::requestConfig(First), Key, S, Spans);
    uint64_t Cgl = 0;
    for (const serve::Request &R : ByKey[Key]) {
      Cells.push_back(runCell(C, serve::requestConfig(R), serve::requestKey(R),
                              /*Traced=*/true, Cgl, Spans));
      const HarnessResult &HR = Cells.back().R;
      std::string Key = serve::requestKey(R), Error = HR.Error;
      uint64_t Digest = workloads::resultDigest(HR);
      bool Ok = HR.Completed && HR.Verified && Ref.matches(Key, Digest, Error);
      Out.check(Key, Ok, Digest, Error);
    }
  }
  reportLayers({Cells}, M);
  reportSetup(S, M);
}

/// Record queue and service spans of served requests: \p SubmitAt is when
/// each submit() returned (the request's enqueue time).
void requestSpans(SpanLog &Spans, const std::vector<serve::RequestResult> &Res,
                  const std::vector<Clock::time_point> &SubmitAt,
                  uint64_t &NextId) {
  auto Ms = [](double V) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(V));
  };
  for (size_t I = 0; I < Res.size(); ++I) {
    const serve::RequestResult &R = Res[I];
    Clock::time_point Start = SubmitAt[I] + Ms(R.QueueMs);
    std::string Args = "\"request\": " + std::to_string(NextId) +
                       ", \"class\": \"" + serve::requestKey(R.Req) +
                       "\", \"temperature\": \"" +
                       serve::temperatureName(R.Temp) + "\"";
    Spans.asyncSpan("serve.queue", NextId, SubmitAt[I], Start, Args);
    Spans.span("serve.service", Start, Start + Ms(R.ServiceMs), 10 + R.Worker,
               Args);
    ++NextId;
  }
}

void runServe(const Options &O, const ServePlan &Plan, Reference &Ref,
              MetricSheet &M, Outcome &Out, SpanLog &Spans,
              std::vector<std::string> &DetailRows) {
  if (O.Trace)
    probeHarness(Plan, Ref, M, Out, Spans);

  Rng Rand(0x5e4e ^ seedMix(O.Seed));
  std::map<std::string, std::vector<double>> ServiceMsByTemp;
  std::map<std::string, std::vector<double>> ServiceMsByClass;
  std::map<std::string, uint64_t> CyclesByClass;
  auto Check = [&](const std::vector<serve::RequestResult> &Res) {
    for (const serve::RequestResult &R : Res) {
      std::string Key = serve::requestKey(R.Req), Error = R.Error;
      bool Ok = R.Ok && Ref.matches(Key, R.Digest, Error);
      Out.check(Key, Ok, R.Digest, Error);
      ServiceMsByTemp[serve::temperatureName(R.Temp)].push_back(R.ServiceMs);
      ServiceMsByClass[serve::requestKey(R.Req)].push_back(R.ServiceMs);
      CyclesByClass[serve::requestKey(R.Req)] = R.Cycles;
    }
  };

  // Set-up: a fresh server and its warm-up, which fills the context pool.
  // Per context key it submits one request per worker, 2 ms apart: each
  // runs far longer than that, so each lands on an idle worker that finds
  // no idle context and builds one (a key is retried if a request finished
  // early).  The pool then holds as many contexts per key as workers can
  // use at once, so no later request builds one and the resident set is
  // the same in every run.
  std::vector<serve::Request> WarmUp;
  for (const serve::Request &R : Plan.Classes) {
    bool Seen = false;
    for (const serve::Request &W : WarmUp)
      Seen |= serve::contextKey(W) == serve::contextKey(R);
    if (!Seen)
      WarmUp.push_back(R);
  }
  std::unique_ptr<serve::StmServer> Server;
  // Runs and batches after each server's warm-up, summed over the servers.
  serve::ServerStats AtStart, Sum;
  auto Retire = [&] {
    if (!Server)
      return;
    serve::ServerStats S = Server->stats();
    Sum.ColdRuns += S.ColdRuns - AtStart.ColdRuns;
    Sum.WarmRuns += S.WarmRuns - AtStart.WarmRuns;
    Sum.Batches += S.Batches - AtStart.Batches;
  };
  auto StartServer = [&] {
    Retire();
    Server.reset();
    Clock::time_point A = Clock::now();
    Server = std::make_unique<serve::StmServer>(serverConfig(Plan));
    for (size_t K = 0; K < WarmUp.size(); ++K) {
      for (unsigned Try = 0;
           Try < 4 && Server->stats().ContextsBuilt < (K + 1) * Plan.Workers;
           ++Try) {
        for (unsigned W = 0; W < Plan.Workers; ++W) {
          if (W)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          Server->submit(WarmUp[K]);
        }
        Check(Server->drain());
      }
    }
    AtStart = Server->stats();
    Spans.span("bench.setup", A, Clock::now(), 1);
    return secondsSince(A);
  };

  // Phase B's arrivals are drawn first: Poisson arrivals, as exponential
  // gaps of mean 1, which phase B scales to its rate once phase A has
  // measured the pool's capacity.
  std::vector<serve::Request> Arrivals =
      shuffledStream(Plan, Plan.ArrivalCopies, Rand);
  std::vector<double> UnitDue;
  double T = 0;
  for (size_t I = 0; I < Arrivals.size(); ++I) {
    T -= std::log(1 - Rand.nextDouble());
    UnitDue.push_back(T);
  }
  // Every burst of every run submits the same order, drawn once from a
  // fixed seed: the order decides the batches and the drain tail, so, as
  // paper-matrix's timed passes do, every seed times the same work.
  Rng BurstRand(0xb0257);
  const std::vector<serve::Request> BurstReqs =
      shuffledStream(Plan, Plan.BurstCopies, BurstRand);
  double BurstSize = static_cast<double>(BurstReqs.size());

  // Phase A: set-up and closed-loop burst in turn, so the set-up's median,
  // like the bursts, samples the host over the whole phase.  A burst is
  // submitted at once (submit() blocks at the queue bound) and drained; its
  // time runs from its first submit to the return of drain(), drain tail
  // included.  wall_s is the fastest untraced burst, for the reason runSim
  // gives.  The set-up has already run a request on every pooled context,
  // so every burst is timed; traced runs alternate untraced and traced
  // bursts.  Capacity is the workers over the mean service time, which,
  // unlike burst time, leaves out the drain tail's idle worker.  After
  // MinBursts untraced bursts, bursts run while phase B, at LoadShare of
  // that capacity, would still fit in the budget after the next one.
  uint64_t NextId = 0;
  std::vector<double> SetupS, BurstS, TracedBurstS;
  double ServiceSum = 0, Served = 0, WallSum = 0, Cycles = 0;
  auto ArrivalRate = [&] {
    return Plan.LoadShare * Plan.Workers * Served / ServiceSum;
  };
  Clock::time_point A0 = Clock::now();
  double Last = 0;
  for (unsigned Burst = 0;
       BurstS.size() < Plan.MinBursts || (O.Trace && TracedBurstS.empty()) ||
       secondsSince(A0) + Last + UnitDue.back() / ArrivalRate() <= O.Seconds;
       ++Burst) {
    bool Traced = O.Trace && Burst % 2 == 1;
    Clock::time_point S0 = Clock::now();
    SetupS.push_back(StartServer());
    std::vector<Clock::time_point> SubmitAt;
    Clock::time_point W0 = Clock::now();
    for (const serve::Request &R : BurstReqs) {
      Server->submit(R);
      SubmitAt.push_back(Clock::now());
    }
    std::vector<serve::RequestResult> Res = Server->drain();
    double BurstWall = secondsSince(W0);
    Last = secondsSince(S0);
    Spans.span("bench.burst", W0, Clock::now(), 1,
               Traced ? "\"traced\": true" : "\"traced\": false");
    Check(Res);
    if (Traced)
      requestSpans(Spans, Res, SubmitAt, NextId);
    Cycles = 0;
    for (const serve::RequestResult &R : Res) {
      ServiceSum += R.ServiceMs / 1e3;
      Cycles += static_cast<double>(R.Cycles);
    }
    Served += static_cast<double>(Res.size());
    WallSum += BurstWall;
    (Traced ? TracedBurstS : BurstS).push_back(BurstWall);
  }

  // Phase B: the open loop at LoadShare of the capacity phase A measured,
  // on the last burst's server, so a host that runs slower or faster for a
  // while changes latency by its speed, not by pushing the queue towards
  // saturation.  Latency counts from the due time, so a late generator or
  // a queue stall is charged to the requests.
  double WallS = minimum(BurstS), Rate = ArrivalRate();
  std::vector<double> DueS;
  for (double U : UnitDue)
    DueS.push_back(U / Rate);
  std::vector<Clock::time_point> SubmitAt;
  std::vector<double> LagMs;
  Clock::time_point B0 = Clock::now();
  for (size_t I = 0; I < Arrivals.size(); ++I) {
    Clock::time_point Due =
        B0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(DueS[I]));
    std::this_thread::sleep_until(Due);
    LagMs.push_back(secondsSince(Due) * 1e3);
    Server->submit(Arrivals[I]);
    SubmitAt.push_back(Clock::now());
  }
  std::vector<serve::RequestResult> Res = Server->drain();
  Spans.span("bench.open_loop", B0, Clock::now(), 1);
  Check(Res);
  if (O.Trace)
    requestSpans(Spans, Res, SubmitAt, NextId);
  std::vector<double> LatencyMs;
  double QueueSum = 0, TotalSum = 0;
  unsigned Backlog = 0;
  for (size_t I = 0; I < Res.size(); ++I) {
    double Submit = secondsBetween(B0, SubmitAt[I]);
    LatencyMs.push_back((Submit - DueS[I]) * 1e3 + Res[I].TotalMs);
    QueueSum += Res[I].QueueMs;
    TotalSum += Res[I].TotalMs;
    Backlog += Submit + Res[I].TotalMs / 1e3 >
               secondsBetween(B0, SubmitAt.back());
  }
  Retire();

  M.set("wall_s", WallS, "s", "bursts=" + std::to_string(BurstS.size()));
  M.set("wall_median_s", median(BurstS), "s");
  M.set("setup_s", median(SetupS), "s",
        "setups=" + std::to_string(SetupS.size()));
  M.set("peak_rss_mb", peakRssMb(), "MB");
  M.set("modeled_cycles", Cycles, "cycles");
  std::string N = "n=" + std::to_string(LatencyMs.size());
  M.set("latency_p50_ms", nearestRank(LatencyMs, 0.50), "ms", N);
  M.set("latency_p90_ms", nearestRank(LatencyMs, 0.90), "ms", N);
  M.set("serve.gen_lag_ms_p90", nearestRank(LagMs, 0.90), "ms",
        "n=" + std::to_string(LagMs.size()));
  M.set("serve.req_per_s", BurstSize / WallS, "1/s");
  M.set("serve.offered_per_s", Rate, "1/s");

  if (O.Trace) {
    double Executed = static_cast<double>(Sum.ColdRuns + Sum.WarmRuns);
    double Batches = static_cast<double>(Sum.Batches);
    double Cold = median(ServiceMsByTemp["cold"]);
    double Warm = median(ServiceMsByTemp["warm"]);
    std::map<std::string, double> V = {
        {"serve.queue_share", TotalSum ? QueueSum / TotalSum : 0},
        {"serve.worker_util", ServiceSum / (Plan.Workers * WallSum)},
        {"serve.cold_over_warm", Warm ? Cold / Warm : 0},
        {"serve.contexts_built",
         static_cast<double>(Server->stats().ContextsBuilt)},
        {"serve.cold_runs", static_cast<double>(Sum.ColdRuns)},
        {"serve.warm_runs", static_cast<double>(Sum.WarmRuns)},
        {"serve.batches", Batches},
        {"serve.batch_size_mean", Batches ? Executed / Batches : 0},
        {"serve.backlog_end", static_cast<double>(Backlog)}};
    for (const auto &[Name, Unit] : ServeLayerMetrics)
      M.set(Name, V.at(Name), Unit);
    double Untraced = median(BurstS);
    M.set("bench.trace_overhead_frac",
          Untraced ? (median(TracedBurstS) - Untraced) / Untraced : 0,
          "ratio");
  }

  for (const auto &[Key, Digest] : Out.Digests) {
    std::ostringstream S;
    S << "{\"cell\": \"" << Key << "\", \"digest\": \"" << hex64(Digest)
      << "\", \"cycles\": " << CyclesByClass[Key]
      << ", \"service_ms\": " << median(ServiceMsByClass[Key]) << "}";
    DetailRows.push_back(S.str());
  }
}

//===----------------------------------------------------------------------===//
// Output and main
//===----------------------------------------------------------------------===//

void writeDetail(const Options &O, const MetricSheet &M, const Outcome &Out,
                 const std::vector<std::string> &Rows) {
  std::FILE *F = std::fopen(O.DetailPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "stmbench: cannot write %s\n", O.DetailPath.c_str());
    return;
  }
  std::fprintf(F,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
               "\"smoke\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
               " \"values\": {",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Trace ? 1 : 0, O.Smoke ? "true" : "false",
               static_cast<unsigned long long>(Out.Attempted),
               static_cast<unsigned long long>(Out.Failed));
  const char *Sep = "";
  for (const MetricSheet::Entry &E : M.entries()) {
    std::fprintf(F, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", Sep,
                 E.Name.c_str(), E.Value, E.Unit.c_str());
    Sep = ", ";
  }
  std::fprintf(F, "},\n \"cells\": [\n");
  for (size_t I = 0; I < Rows.size(); ++I)
    std::fprintf(F, "  %s%s\n", Rows[I].c_str(),
                 I + 1 < Rows.size() ? "," : "");
  std::fprintf(F, "]}\n");
  std::fclose(F);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  clearGpustmEnvironment();

  MetricSheet M;
  Outcome Out;
  SpanLog Spans(O.Trace);
  std::vector<std::string> DetailRows;
  Clock::time_point Start = Clock::now();
  Reference Ref(O);
  if (O.Workload == "paper-matrix")
    runSim(O, paperMatrixRows(O.Smoke), Ref, M, Out, Spans, DetailRows);
  else if (O.Workload == "serve-mixed")
    runServe(O, servePlan(O.Smoke), Ref, M, Out, Spans, DetailRows);
  else
    usage(("unknown workload " + O.Workload).c_str());
  Spans.span("bench.workload", Start, Clock::now(), 1,
             "\"workload\": \"" + O.Workload + "\"");

  long Drift = Ref.drift();
  M.set("bench.modeled_drift", Drift < 0 ? 0 : static_cast<double>(Drift),
        "count", Drift < 0 ? "(not compared: smoke sizes or no reference)" : "");
  if (O.Trace) {
    if (!Spans.write(O.SpansPath))
      std::fprintf(stderr, "stmbench: cannot write %s\n", O.SpansPath.c_str());
    else
      std::printf("%s spans %s\n", O.Workload.c_str(), O.SpansPath.c_str());
  }
  M.set("attempted", static_cast<double>(Out.Attempted), "count");
  M.set("fail_frac",
        Out.Attempted ? static_cast<double>(Out.Failed) / Out.Attempted : 0,
        "ratio");
  M.print(O.Workload);
  if (!O.DetailPath.empty())
    writeDetail(O, M, Out, DetailRows);

  std::string Metrics, Missing;
  if (!M.json(O.Trace ? PerLayerMetrics : EndToEndMetrics, Metrics, Missing)) {
    std::fprintf(stderr, "stmbench: metric %s was not measured\n",
                 Missing.c_str());
    return 1;
  }
  bool Correct = Out.Failed == 0 && Out.Attempted != 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Metrics.c_str());
  return Correct ? 0 : 1;
}
