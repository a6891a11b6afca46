//===- bench/Common.h - Shared benchmark harness helpers --------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-figure/per-table bench binaries.  Every binary
/// runs with no arguments; GPUSTM_SCALE=<n> (environment) stretches data
/// sizes and thread counts toward the paper's magnitudes.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_BENCH_COMMON_H
#define GPUSTM_BENCH_COMMON_H

#include "support/EnvOptions.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "workloads/All.h"
#include "workloads/Harness.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gpustm {
namespace bench {

/// Scale factor from the environment (default 1).  GPUSTM_SCALE feeds
/// array sizing and thread counts everywhere, so zero, garbage, and
/// overflowing values are fatal instead of silently producing an empty or
/// absurd matrix (the cap is far beyond paper scale).
inline unsigned benchScale() {
  return static_cast<unsigned>(
      envUnsignedInRange("GPUSTM_SCALE", 1, 1, 1u << 20));
}

/// Banner naming the experiment and the paper artifact it regenerates.
inline void printBanner(const char *Title, const char *PaperArtifact) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s\n", Title);
  std::printf("Reproduces: %s  (GPU-STM, CGO 2014)\n", PaperArtifact);
  std::printf("Scale: %u (set GPUSTM_SCALE to change)\n", benchScale());
  if (hostJobs() > 1)
    std::printf("Host jobs: %u (GPUSTM_JOBS; results identical to serial)\n",
                hostJobs());
  std::printf("==============================================================="
              "=========\n");
}

/// Deterministic sweep runner: every matrix cell of a bench is an
/// independent single-threaded simulation (its own Device, StmRuntime, and
/// Workload built inside \p Cell), so cells run concurrently on GPUSTM_JOBS
/// host threads.  Results come back in cell-index order regardless of the
/// interleaving, so rendering -- and every modeled number -- is bit-identical
/// to a serial run.  Benches build the full cell list first, call this, then
/// render sequentially.
template <typename R>
std::vector<R> runSweep(size_t NumCells, const std::function<R(size_t)> &Cell) {
  return parallelMapIndexed<R>(NumCells, hostJobs(), Cell);
}

/// Apply the GPUSTM_BENCH_WORKLOADS filter (comma-separated workload names)
/// to \p Names, preserving order.  Empty/unset keeps every workload.  Used
/// by tests and CI to run reduced matrices.
inline std::vector<std::string>
filterWorkloads(std::vector<std::string> Names) {
  std::string Filter = envString("GPUSTM_BENCH_WORKLOADS", "");
  if (Filter.empty())
    return Names;
  std::vector<std::string> Wanted;
  for (size_t Pos = 0; Pos <= Filter.size();) {
    size_t Comma = Filter.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Filter.size();
    if (Comma > Pos)
      Wanted.push_back(Filter.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  // A typo in the filter must not silently run an empty matrix that
  // "passes": unknown names are fatal, listing what is valid here.
  for (const std::string &W : Wanted) {
    bool Known = false;
    for (const std::string &N : Names)
      if (N == W) {
        Known = true;
        break;
      }
    if (!Known) {
      std::string Valid;
      for (const std::string &N : Names)
        Valid += (Valid.empty() ? "" : ", ") + N;
      reportFatalError(formatString(
          "GPUSTM_BENCH_WORKLOADS: unknown workload '%s'; valid names: %s",
          W.c_str(), Valid.c_str()));
    }
  }
  std::vector<std::string> Out;
  for (const std::string &N : Names)
    for (const std::string &W : Wanted)
      if (N == W) {
        Out.push_back(N);
        break;
      }
  return Out;
}

/// "3.42x" style speedup cell.
inline std::string fmtSpeedup(double S) { return formatString("%.2fx", S); }

/// "12.3%" style percentage cell.
inline std::string fmtPercent(double P) { return formatString("%.1f%%", 100 * P); }

/// The per-thread STM variants of Figure 2 in paper order (CGL is the
/// baseline, not listed).
inline std::vector<stm::Variant> figure2Variants() {
  return {stm::Variant::EGPGV,     stm::Variant::VBV,
          stm::Variant::TBVSorting, stm::Variant::HVSorting,
          stm::Variant::HVBackoff, stm::Variant::Optimized};
}

/// Paper-shaped (scaled) launch configuration for each workload, modeled on
/// Table 2 (shared with tools/stmtrace).
inline std::vector<simt::LaunchConfig>
launchFor(const std::string &Name, unsigned Scale) {
  return workloads::paperLaunches(Name, Scale);
}

/// Machine-readable companion to the printed tables: every bench binary
/// also writes BENCH_<name>.json ({"bench", "scale", "rows": [...]}) into
/// the working directory, so plots can regenerate without scraping stdout.
class BenchJson {
public:
  /// One row under construction; key/value setters return *this so rows
  /// read as one chained expression.  The row is committed by ~Row.
  class Row {
  public:
    Row(BenchJson &Parent) : Parent(Parent) {}
    Row(const Row &) = delete;
    Row &operator=(const Row &) = delete;
    ~Row() { Parent.Rows.push_back("{" + Fields + "}"); }

    Row &str(const char *Key, const std::string &Value) {
      return field(Key, "\"" + escape(Value) + "\"");
    }
    Row &num(const char *Key, double Value) {
      return field(Key, formatString("%.6g", Value));
    }
    Row &num(const char *Key, uint64_t Value) {
      return field(Key,
                   formatString("%llu",
                                static_cast<unsigned long long>(Value)));
    }
    Row &flag(const char *Key, bool Value) {
      return field(Key, Value ? "true" : "false");
    }

  private:
    Row &field(const char *Key, const std::string &Rendered) {
      if (!Fields.empty())
        Fields += ",";
      Fields += "\"" + escape(Key) + "\":" + Rendered;
      return *this;
    }
    static std::string escape(const std::string &S) {
      std::string Out;
      for (char C : S) {
        if (C == '"' || C == '\\')
          Out.push_back('\\');
        Out.push_back(C);
      }
      return Out;
    }

    BenchJson &Parent;
    std::string Fields;
  };

  explicit BenchJson(const std::string &Name)
      : Name(Name), Start(std::chrono::steady_clock::now()) {}
  BenchJson(const BenchJson &) = delete;
  BenchJson &operator=(const BenchJson &) = delete;
  ~BenchJson() {
    if (!Written)
      write();
  }

  Row row() { return Row(*this); }

  /// Write BENCH_<name>.json now (also called by the destructor).  The
  /// header carries the host throughput context: the machine's core count,
  /// the GPUSTM_JOBS worker count, and the bench's total wall time
  /// (construction to write).  Comparisons for determinism must exclude the
  /// wall_ms* fields and the jobs knob.
  void write() {
    Written = true;
    double WallMsTotal =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - Start)
            .count();
    std::string Path = "BENCH_" + Name + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return;
    }
    std::fprintf(F,
                 "{\"bench\":\"%s\",\"scale\":%u,\"host_cores\":%u,"
                 "\"jobs\":%u,\"wall_ms_total\":%.3f,",
                 Name.c_str(), benchScale(),
                 std::thread::hardware_concurrency(), hostJobs(),
                 WallMsTotal);
    std::fprintf(F, "\"rows\":[\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F, "%s%s\n", Rows[I].c_str(),
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(F, "]}\n");
    std::fclose(F);
    std::printf("(json: %s)\n", Path.c_str());
  }

private:
  std::string Name;
  std::vector<std::string> Rows;
  std::chrono::steady_clock::time_point Start;
  bool Written = false;
};

/// Append the standard host-side throughput fields to a JSON row:
/// wall_ms (host time simulating the cell), rounds_per_sec (simulated warp
/// rounds per host second), switches_per_round (lane fiber switches per
/// round).  Wall-clock fields vary run to run and are excluded from
/// determinism comparisons.
inline BenchJson::Row &wallFields(BenchJson::Row &Row,
                                  const workloads::HarnessResult &R) {
  return Row.num("wall_ms", R.wallMs())
      .num("rounds_per_sec", R.roundsPerSec())
      .num("switches_per_round", R.switchesPerRound());
}

} // namespace bench
} // namespace gpustm

#endif // GPUSTM_BENCH_COMMON_H
