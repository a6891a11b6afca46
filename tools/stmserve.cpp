//===- tools/stmserve.cpp - Kernel-stream serving CLI ---------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the serving layer (src/serve/):
///
///   stmserve run    --builtin smoke             # serve a stream, summary
///   stmserve bench  --seed 7 --count 48         # latency percentiles
///   stmserve replay --script reqs.txt -o d.txt  # per-request digests
///   stmserve replay --script reqs.txt -o d.txt --oneshot
///                                               # same stream, fresh
///                                               # one-shot runs (CI diffs
///                                               # the two digest files)
///
/// Streams come from --script <file>, --builtin <name>, --seed/--count
/// (the deterministic mixed-traffic generator), or GPUSTM_SERVER_SCRIPT.
///
//===----------------------------------------------------------------------===//

#include "Args.h"
#include "serve/Server.h"
#include "support/Format.h"
#include "workloads/All.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace gpustm;
using namespace gpustm::serve;
using tools::Args;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> [stream] [options]\n"
      "\n"
      "commands:\n"
      "  run     Serve the stream; print per-request lines and a summary.\n"
      "  bench   Serve the stream; print latency percentiles by\n"
      "          temperature (cold / warm / cached) and throughput.\n"
      "  replay  Serve the stream; emit '<idx> <workload> <variant> <scale>\n"
      "          <digest> <ok>' lines (-o <file> or stdout).  With\n"
      "          --oneshot, run each request as a fresh one-shot instead of\n"
      "          through the server -- the two outputs must be identical.\n"
      "\n"
      "stream (first match wins):\n"
      "  --script <file>     request script: '<workload> <variant> [scale]\n"
      "                      [xN]' per line, '#' comments\n"
      "  --builtin <name>    built-in script ('smoke')\n"
      "  --seed N --count N  deterministic mixed-traffic generator\n"
      "  GPUSTM_SERVER_SCRIPT=<file> when no stream option is given\n"
      "\n"
      "options:\n"
      "  --workers N   worker threads (default GPUSTM_SERVER_WORKERS)\n"
      "  --queue N     submit-queue depth (default GPUSTM_SERVER_QUEUE)\n"
      "  --batch N     max requests per context checkout\n"
      "  --no-cache    disable the deterministic result cache\n"
      "  --no-verify   skip the workload oracles\n"
      "  -o <file>     replay: write digest lines there instead of stdout\n",
      Argv0);
  return 2;
}

/// Built-in request scripts; "smoke" is the CI stream: short, mixed
/// variants over three workloads, with repeats so the cache and the warm
/// path are both exercised.
const char *builtinScript(const std::string &Name) {
  if (Name == "smoke")
    return "# stmserve builtin 'smoke'\n"
           "HT hv x2\n"
           "HT opt\n"
           "RA hv x2\n"
           "HT vbv\n"
           "KM opt x2\n"
           "HT tbv\n"
           "RA opt\n"
           "HT backoff\n"
           "KM cgl\n"
           "HT cgl x2\n"
           "RA hv\n"
           "HT egpgv\n";
  return nullptr;
}

struct StreamOptions {
  std::string Script;
  std::string Builtin;
  uint64_t Seed = 0;
  unsigned Count = 0;
};

/// Resolve the request stream per the usage precedence; fatal diagnostics
/// go through stderr with a nonzero exit.
bool resolveStream(const StreamOptions &Opts, std::vector<Request> &Out) {
  std::string Err;
  if (!Opts.Script.empty()) {
    if (loadRequestScript(Opts.Script, Out, Err))
      return true;
    std::fprintf(stderr, "stmserve: %s\n", Err.c_str());
    return false;
  }
  if (!Opts.Builtin.empty()) {
    const char *Text = builtinScript(Opts.Builtin);
    if (!Text) {
      std::fprintf(stderr, "stmserve: unknown builtin '%s'\n",
                   Opts.Builtin.c_str());
      return false;
    }
    if (parseRequestScript(Text, Out, Err))
      return true;
    std::fprintf(stderr, "stmserve: builtin '%s': %s\n", Opts.Builtin.c_str(),
                 Err.c_str());
    return false;
  }
  if (Opts.Count != 0) {
    // Mixed traffic over the paper's bench workloads; VBV stays off RA/LB
    // (its read-set revalidation flood there takes minutes per request,
    // which is a bench scenario, not a smoke stream).
    Out = makeMixedStream(Opts.Seed, Opts.Count, {"HT", "KM"},
                          {stm::Variant::CGL, stm::Variant::VBV,
                           stm::Variant::TBVSorting, stm::Variant::HVSorting,
                           stm::Variant::HVBackoff, stm::Variant::Optimized,
                           stm::Variant::EGPGV});
    std::vector<Request> RaPart = makeMixedStream(
        Opts.Seed + 1, Opts.Count / 2, {"RA"},
        {stm::Variant::CGL, stm::Variant::TBVSorting, stm::Variant::HVSorting,
         stm::Variant::HVBackoff, stm::Variant::Optimized,
         stm::Variant::EGPGV});
    Out.insert(Out.end(), RaPart.begin(), RaPart.end());
    return true;
  }
  if (requestsFromEnv(Out))
    return true;
  std::fprintf(stderr, "stmserve: no stream given (--script/--builtin/"
                       "--seed+--count/GPUSTM_SERVER_SCRIPT)\n");
  return false;
}

void printLatencyLine(const char *Label, const LatencyStats &S) {
  if (S.Count == 0) {
    std::printf("  %-7s       (none)\n", Label);
    return;
  }
  std::printf("  %-7s %5u  p50 %9.2f ms  p95 %9.2f ms  p99 %9.2f ms  "
              "mean %9.2f ms  max %9.2f ms\n",
              Label, S.Count, S.P50, S.P95, S.P99, S.Mean, S.Max);
}

int serveAndReport(const std::vector<Request> &Stream,
                   const ServerConfig &Config, bool PerRequestLines) {
  StmServer Server(Config);
  auto Start = std::chrono::steady_clock::now();
  std::vector<RequestResult> Results = Server.serve(Stream);
  double WallMs =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - Start)
          .count();

  unsigned Failed = 0;
  std::vector<double> Cold, Warm, Cached, All;
  uint64_t Commits = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    const RequestResult &R = Results[I];
    if (!R.Ok) {
      ++Failed;
      std::fprintf(stderr, "stmserve: request %zu (%s) failed: %s\n", I,
                   requestKey(R.Req).c_str(), R.Error.c_str());
    }
    if (PerRequestLines)
      std::printf("%4zu  %-22s %-6s w%-2u %10.2f ms  (queue %8.2f ms)  "
                  "%016llx\n",
                  I, requestKey(R.Req).c_str(), temperatureName(R.Temp),
                  R.Worker, R.ServiceMs, R.QueueMs,
                  static_cast<unsigned long long>(R.Digest));
    (R.Temp == Temperature::Cold    ? Cold
     : R.Temp == Temperature::Warm ? Warm
                                   : Cached)
        .push_back(R.ServiceMs);
    All.push_back(R.TotalMs);
    Commits += R.Commits;
  }

  ServerStats Stats = Server.stats();
  std::printf("\n%zu request(s), %u worker(s), wall %.1f ms: "
              "%.2f req/s, %.0f commits/s\n",
              Results.size(), Server.config().Workers, WallMs,
              1e3 * static_cast<double>(Results.size()) / WallMs,
              1e3 * static_cast<double>(Commits) / WallMs);
  std::printf("contexts built %llu, batches %llu, cold %llu, warm %llu, "
              "cache hits %llu\n",
              static_cast<unsigned long long>(Stats.ContextsBuilt),
              static_cast<unsigned long long>(Stats.Batches),
              static_cast<unsigned long long>(Stats.ColdRuns),
              static_cast<unsigned long long>(Stats.WarmRuns),
              static_cast<unsigned long long>(Stats.CacheHits));
  std::printf("service latency by temperature:\n");
  printLatencyLine("cold", latencyStats(Cold));
  printLatencyLine("warm", latencyStats(Warm));
  printLatencyLine("cached", latencyStats(Cached));
  std::printf("end-to-end latency (queue + service):\n");
  printLatencyLine("all", latencyStats(All));
  if (Failed != 0) {
    std::fprintf(stderr, "stmserve: %u request(s) failed\n", Failed);
    return 1;
  }
  return 0;
}

int replay(const std::vector<Request> &Stream, const ServerConfig &Config,
           bool OneShot, const std::string &OutPath) {
  std::vector<RequestResult> Results;
  if (OneShot) {
    // Reference path: every request on a fresh workload + device, exactly
    // as the fig benches run cells.  The server output must match this
    // bit-for-bit.
    for (const Request &Req : Stream) {
      auto W = workloads::makeWorkload(Req.Workload, Req.Scale);
      workloads::HarnessConfig HC = requestConfig(Req);
      HC.Verify = Config.Verify;
      workloads::HarnessResult HR = workloads::runWorkload(*W, HC);
      RequestResult R;
      R.Req = Req;
      R.Ok = HR.Completed && (!Config.Verify || HR.Verified);
      R.Error = HR.Error;
      R.Digest = workloads::resultDigest(HR);
      Results.push_back(R);
    }
  } else {
    StmServer Server(Config);
    Results = Server.serve(Stream);
  }

  std::FILE *Out = stdout;
  if (!OutPath.empty()) {
    Out = std::fopen(OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "stmserve: cannot write %s\n", OutPath.c_str());
      return 1;
    }
  }
  unsigned Failed = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    const RequestResult &R = Results[I];
    std::fprintf(Out, "%zu %s %s %u %016llx %d\n", I, R.Req.Workload.c_str(),
                 stm::variantName(R.Req.Kind), R.Req.Scale,
                 static_cast<unsigned long long>(R.Digest), R.Ok ? 1 : 0);
    if (!R.Ok)
      ++Failed;
  }
  if (Out != stdout)
    std::fclose(Out);
  if (Failed != 0)
    std::fprintf(stderr, "stmserve: %u request(s) failed\n", Failed);
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd != "run" && Cmd != "bench" && Cmd != "replay")
    return usage(Argv[0]);

  StreamOptions Stream;
  ServerConfig Config;
  bool OneShot = false;
  std::string OutPath;

  // --workers, --queue and --batch take the ranges of their GPUSTM_SERVER_*
  // variables.
  Args A{"stmserve", Argc, Argv};
  while (!A.done()) {
    std::string Arg = A.next();
    bool Ok = true;
    if (Arg == "--script")
      Ok = A.value("--script", Stream.Script);
    else if (Arg == "--builtin")
      Ok = A.value("--builtin", Stream.Builtin);
    else if (Arg == "--seed")
      Ok = A.number("--seed", Stream.Seed);
    else if (Arg == "--count")
      Ok = A.number("--count", Stream.Count, 1, 1u << 20);
    else if (Arg == "--workers")
      Ok = A.number("--workers", Config.Workers, 1, 256);
    else if (Arg == "--queue")
      Ok = A.number("--queue", Config.QueueDepth, 1, 1u << 20);
    else if (Arg == "--batch")
      Ok = A.number("--batch", Config.BatchCap, 1, 4096);
    else if (Arg == "--no-cache")
      Config.CacheResults = 0;
    else if (Arg == "--no-verify")
      Config.Verify = false;
    else if (Arg == "--oneshot")
      OneShot = true;
    else if (Arg == "-o" || Arg == "--out")
      Ok = A.value(Arg.c_str(), OutPath);
    else {
      std::fprintf(stderr, "stmserve: unknown option '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
    if (!Ok)
      return 2;
  }

  std::vector<Request> Requests;
  if (!resolveStream(Stream, Requests))
    return 2;
  if (Requests.empty()) {
    std::fprintf(stderr, "stmserve: empty request stream\n");
    return 2;
  }

  if (Cmd == "replay")
    return replay(Requests, Config, OneShot, OutPath);
  return serveAndReport(Requests, Config, Cmd == "run");
}
