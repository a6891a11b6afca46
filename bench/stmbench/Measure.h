//===- bench/stmbench/Measure.h - Timing, metrics, spans --------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of stmbench: host clocks and resident-set readings,
/// order statistics, the named metric sheet a run prints and reports, and
/// the in-memory span log written out as Chrome trace-event JSON (which
/// Perfetto loads) when a traced run ends.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_BENCH_STMBENCH_MEASURE_H
#define GPUSTM_BENCH_STMBENCH_MEASURE_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

namespace gpustm {
namespace stmbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

inline double secondsSince(Clock::time_point From) {
  return secondsBetween(From, Clock::now());
}

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
inline double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Current resident set of this process (/proc/self/statm), in MiB.
inline double currentRssMb() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  long Pages = 0, Resident = 0;
  int Fields = std::fscanf(F, "%ld %ld", &Pages, &Resident);
  std::fclose(F);
  if (Fields != 2)
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Median (mean of the middle two for an even count); 0 for no samples.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Smallest sample; 0 for no samples.
inline double minimum(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

/// Nearest-rank percentile \p Q in (0, 1]; 0 for no samples.
inline double nearestRank(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

/// Geometric mean of positive samples; 0 for no samples.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// The named values one workload run produced, in insertion order.  Every
/// value is printed as a `workload metric value unit` line; the metrics
/// BENCHMARK.json lists for the run (its end-to-end or per-layer set) also
/// go into the final JSON result line with all their digits.
class MetricSheet {
public:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
    std::string Note;
  };

  void set(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Note = "") {
    for (Entry &E : Entries)
      if (E.Name == Name) {
        E = Entry{Name, Value, Unit, Note};
        return;
      }
    Entries.push_back(Entry{Name, Value, Unit, Note});
  }

  const Entry *find(const std::string &Name) const {
    for (const Entry &E : Entries)
      if (E.Name == Name)
        return &E;
    return nullptr;
  }

  const std::vector<Entry> &entries() const { return Entries; }

  void print(const std::string &Workload) const {
    for (const Entry &E : Entries)
      std::printf("%s %s %.10g %s%s%s\n", Workload.c_str(), E.Name.c_str(),
                  E.Value, E.Unit.c_str(), E.Note.empty() ? "" : " ",
                  E.Note.c_str());
  }

  /// `{"name": {"value": v, "unit": "u"}, ...}` over \p Names, in order.
  /// Returns false (and names the culprit in \p Missing) when one of them
  /// was never set.
  bool json(const std::vector<std::string> &Names, std::string &Out,
            std::string &Missing) const {
    Out = "{";
    for (const std::string &Name : Names) {
      const Entry *E = find(Name);
      if (!E) {
        Missing = Name;
        return false;
      }
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "%.17g", E->Value);
      if (Out.size() > 1)
        Out += ", ";
      Out += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
             E->Unit + "\"}";
    }
    Out += "}";
    return true;
  }

private:
  std::vector<Entry> Entries;
};

/// Spans recorded around the benchmark's calls into each layer, kept in
/// memory and written once at exit.  Disabled logs record nothing.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  /// A complete span on track \p Tid; \p Args is a JSON object body
  /// (`"k": v, ...`) or empty.
  void span(const char *Name, Clock::time_point Start, Clock::time_point End,
            unsigned Tid, const std::string &Args = "") {
    if (!Enabled)
      return;
    Events.push_back(formatEvent(Name, "X", Start, Tid, Args) +
                     formatDuration(Start, End) + "}");
  }

  /// A span of request \p Id that may overlap others on its track (Chrome
  /// async begin/end pair).
  void asyncSpan(const char *Name, uint64_t Id, Clock::time_point Start,
                 Clock::time_point End, const std::string &Args = "") {
    if (!Enabled)
      return;
    std::string IdField = ", \"cat\": \"serve\", \"id\": " + std::to_string(Id);
    Events.push_back(formatEvent(Name, "b", Start, 0, Args) + IdField + "}");
    Events.push_back(formatEvent(Name, "e", End, 0, "") + IdField + "}");
  }

  /// Write `{"traceEvents": [...]}` to \p Path; false on I/O failure.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t I = 0; I < Events.size(); ++I)
      std::fprintf(F, "%s%s\n", Events[I].c_str(),
                   I + 1 < Events.size() ? "," : "");
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  std::string formatEvent(const char *Name, const char *Phase,
                          Clock::time_point At, unsigned Tid,
                          const std::string &Args) const {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"ph\": \"%s\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f",
                  Name, Phase, Tid, micros(Origin, At));
    std::string Event = Buf;
    if (!Args.empty())
      Event += ", \"args\": {" + Args + "}";
    return Event;
  }
  static std::string formatDuration(Clock::time_point Start,
                                    Clock::time_point End) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), ", \"dur\": %.3f", micros(Start, End));
    return Buf;
  }
  static double micros(Clock::time_point From, Clock::time_point To) {
    return std::chrono::duration<double, std::micro>(To - From).count();
  }

  bool Enabled;
  Clock::time_point Origin;
  std::vector<std::string> Events;
};

} // namespace stmbench
} // namespace gpustm

#endif // GPUSTM_BENCH_STMBENCH_MEASURE_H
