//===- tools/stmfuzz.cpp - Differential STM fuzzing CLI -------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the fuzz subsystem (DESIGN.md section 10):
///
///   stmfuzz run --seeds 10000               # fuzz a seed range
///   stmfuzz one 12345                       # one seed, verbose
///   stmfuzz repro 12345                     # print a regression test
///   stmfuzz show 12345                      # dump the generated program
///
//===----------------------------------------------------------------------===//

#include "Args.h"
#include "fuzz/FuzzWorkload.h"
#include "fuzz/Fuzzer.h"
#include "support/Format.h"
#include "support/Parallel.h"

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

using namespace gpustm;
using tools::Args;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> ...\n"
      "\n"
      "  run  [--seeds N] [--start S] [-v <variant>]... [--trace-sample N]\n"
      "       [--jobs N] [--watchdog N] [--digest-out F]\n"
      "       [--repro-out F] [--no-shrink] [--max-failures N]\n"
      "       [--check-determinism]\n"
      "       [--wmm] [--wmm-seed N] [--wmm-buffer N]\n"
      "      Fuzz seeds S..S+N-1 (default 0..499) under every requested\n"
      "      variant (default: all seven), checking each run against the\n"
      "      sequential oracle and trace-checking every --trace-sample'th\n"
      "      seed.  On failure, greedily shrinks the first failing seed and\n"
      "      prints a standalone regression test.  --digest-out writes one\n"
      "      'seed digest' line per seed for cross-process determinism\n"
      "      diffs (e.g. --jobs 1 vs --jobs 4 in CI).  --wmm runs\n"
      "      every variant under the weak-memory model (src/wmm/); on\n"
      "      failure the minimal reordering witness is printed.\n"
      "  one <seed> [run options]\n"
      "      Run a single seed and print every variant's outcome.\n"
      "  repro <seed> [run options]\n"
      "      Run a single seed and print a standalone regression test\n"
      "      (checked in under tests/fuzz/ once the bug is fixed).\n"
      "  show <seed>\n"
      "      Print the generated program without running it.\n"
      "\n"
      "      Variants: cgl vbv tbv hv backoff opt egpgv (or paper names).\n",
      Argv0);
  return 2;
}

struct RunOptions {
  uint64_t Seeds = 500;
  uint64_t Start = 0;
  unsigned Jobs = 0; // 0 = GPUSTM_JOBS.
  std::string DigestOut;
  std::string ReproOut;
  bool Shrink = true;
  unsigned MaxFailures = 10;
  fuzz::FuzzOptions Fuzz;
};

/// Parse one flag shared by run/one/repro; returns 0 when consumed,
/// 2 on error, -1 when the flag is unknown.
int parseRunFlag(Args &A, const std::string &Arg, RunOptions &R) {
  const char *F = Arg.c_str();
  auto Num = [&](auto &Out, uint64_t Min, uint64_t Max) {
    return A.number(F, Out, Min, Max) ? 0 : 2;
  };
  std::string Val;
  if (Arg == "--seeds")
    return Num(R.Seeds, 1, tools::MaxSeeds);
  if (Arg == "--start")
    return Num(R.Start, 0, UINT64_MAX);
  if (Arg == "--trace-sample")
    return Num(R.Fuzz.TraceSamplePeriod, 0, UINT32_MAX);
  if (Arg == "--jobs")
    return Num(R.Jobs, 1, 256);
  if (Arg == "--watchdog")
    return Num(R.Fuzz.WatchdogRounds, 1, UINT64_MAX);
  if (Arg == "--max-failures")
    return Num(R.MaxFailures, 0, UINT32_MAX);
  if (Arg == "--wmm-seed") {
    R.Fuzz.Wmm = true;
    return Num(R.Fuzz.WmmSeed, 0, UINT64_MAX);
  }
  if (Arg == "--wmm-buffer") {
    R.Fuzz.Wmm = true;
    return Num(R.Fuzz.WmmBuffer, 0, 64);
  }
  if (Arg == "-v" || Arg == "--variant") {
    if (!A.value(F, Val))
      return 2;
    stm::Variant Kind;
    if (!stm::parseVariant(Val, Kind)) {
      std::fprintf(stderr, "stmfuzz: unknown variant '%s'\n", Val.c_str());
      return 2;
    }
    R.Fuzz.Variants.push_back(Kind);
  } else if (Arg == "--digest-out") {
    if (!A.value(F, R.DigestOut))
      return 2;
  } else if (Arg == "--repro-out") {
    if (!A.value(F, R.ReproOut))
      return 2;
  } else if (Arg == "--no-shrink") {
    R.Shrink = false;
  } else if (Arg == "--check-determinism") {
    R.Fuzz.CheckDeterminism = true;
  } else if (Arg == "--wmm") {
    R.Fuzz.Wmm = true;
  } else {
    return -1;
  }
  return 0;
}

void printOutcomes(const fuzz::SeedResult &R) {
  for (const fuzz::VariantOutcome &V : R.Outcomes)
    std::printf("  %-16s %s%s%s  digest %016llx\n", stm::variantName(V.Kind),
                V.Passed ? "ok" : "FAIL (", V.Passed ? "" : V.Check.c_str(),
                V.Passed ? "" : ")",
                static_cast<unsigned long long>(V.Digest));
}

/// Shrink the first failure (options narrowed to its failing variants) and
/// print the minimized program plus a regression test; also writes the
/// test to \p ReproOut when set.
void reportFailure(uint64_t Seed, const fuzz::SeedResult &R,
                   const RunOptions &Opts) {
  std::fprintf(stderr, "%s", R.failureSummary().c_str());
  fuzz::FuzzOptions Narrow = Opts.Fuzz;
  Narrow.Variants.clear();
  bool TraceFailed = false;
  for (const fuzz::VariantOutcome &V : R.Outcomes)
    if (!V.Passed) {
      Narrow.Variants.push_back(V.Kind);
      TraceFailed |= V.Check == "trace" || V.Check == "trace-identity";
    }
  Narrow.TraceSamplePeriod = TraceFailed ? 1 : 0;

  fuzz::FuzzProgram P = fuzz::generateProgram(Seed);
  std::fprintf(stderr, "failing program: %s\n", P.summary().c_str());
  if (Opts.Shrink) {
    fuzz::FuzzProgram Small = fuzz::shrinkProgram(P, Narrow);
    std::fprintf(stderr, "shrunk to: %s\n", Small.summary().c_str());
  }
  std::string Test = fuzz::reproTestSource(Seed, Narrow, R);
  std::printf("%s", Test.c_str());
  if (!Opts.ReproOut.empty()) {
    if (std::FILE *F = std::fopen(Opts.ReproOut.c_str(), "w")) {
      std::fputs(Test.c_str(), F);
      std::fclose(F);
      std::fprintf(stderr, "repro test written to %s\n",
                   Opts.ReproOut.c_str());
    } else {
      std::fprintf(stderr, "stmfuzz: cannot write %s\n",
                   Opts.ReproOut.c_str());
    }
  }
}

int cmdRun(Args &A) {
  RunOptions Opts;
  while (!A.done()) {
    std::string Arg = A.next();
    int Rc = parseRunFlag(A, Arg, Opts);
    if (Rc == 2)
      return 2;
    if (Rc == -1) {
      std::fprintf(stderr, "stmfuzz: unknown run option '%s'\n", Arg.c_str());
      return 2;
    }
  }
  unsigned Jobs = Opts.Jobs != 0 ? Opts.Jobs : hostJobs();

  std::atomic<uint64_t> Done{0};
  std::vector<fuzz::SeedResult> Results =
      parallelMapIndexed<fuzz::SeedResult>(
          static_cast<size_t>(Opts.Seeds), Jobs, [&](size_t I) {
            fuzz::SeedResult R =
                fuzz::runSeed(Opts.Start + I, Opts.Fuzz);
            uint64_t N = ++Done;
            if (N % 500 == 0)
              std::fprintf(stderr, "stmfuzz: %llu/%llu seeds\n",
                           static_cast<unsigned long long>(N),
                           static_cast<unsigned long long>(Opts.Seeds));
            return R;
          });

  if (!Opts.DigestOut.empty()) {
    std::FILE *F = std::fopen(Opts.DigestOut.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "stmfuzz: cannot write %s\n",
                   Opts.DigestOut.c_str());
      return 1;
    }
    for (const fuzz::SeedResult &R : Results)
      std::fprintf(F, "%llu %016llx\n",
                   static_cast<unsigned long long>(R.Seed),
                   static_cast<unsigned long long>(R.combinedDigest()));
    std::fclose(F);
  }

  std::vector<uint64_t> Failing;
  for (const fuzz::SeedResult &R : Results)
    if (!R.Passed)
      Failing.push_back(R.Seed);
  std::printf("stmfuzz: %llu seeds, %zu failing\n",
              static_cast<unsigned long long>(Opts.Seeds), Failing.size());
  if (Failing.empty())
    return 0;

  for (size_t I = 0; I < Failing.size() && I < Opts.MaxFailures; ++I)
    std::fprintf(stderr, "%s",
                 Results[Failing[I] - Opts.Start].failureSummary().c_str());
  if (Failing.size() > Opts.MaxFailures)
    std::fprintf(stderr, "(%zu further failing seeds not shown)\n",
                 Failing.size() - Opts.MaxFailures);
  reportFailure(Failing.front(), Results[Failing.front() - Opts.Start], Opts);
  return 1;
}

int cmdOne(Args &A, bool Repro) {
  if (A.done())
    return usage(A.Argv[0]);
  uint64_t Seed = 0;
  if (!A.number("seed", Seed))
    return 2;
  RunOptions Opts;
  while (!A.done()) {
    std::string Arg = A.next();
    int Rc = parseRunFlag(A, Arg, Opts);
    if (Rc == 2)
      return 2;
    if (Rc == -1) {
      std::fprintf(stderr, "stmfuzz: unknown option '%s'\n", Arg.c_str());
      return 2;
    }
  }
  fuzz::FuzzProgram P = fuzz::generateProgram(Seed);
  fuzz::SeedResult R = fuzz::runProgram(P, Opts.Fuzz);
  if (Repro) {
    fuzz::FuzzOptions Printed = Opts.Fuzz;
    if (Printed.TraceSamplePeriod > 1)
      Printed.TraceSamplePeriod = 1; // The test always trace-checks.
    std::printf("%s", fuzz::reproTestSource(Seed, Printed, R).c_str());
    return R.Passed ? 0 : 1;
  }
  std::printf("%s\n", P.summary().c_str());
  printOutcomes(R);
  if (!R.Passed)
    reportFailure(Seed, R, Opts);
  return R.Passed ? 0 : 1;
}

int cmdShow(Args &A) {
  if (A.done())
    return usage(A.Argv[0]);
  uint64_t Seed = 0;
  if (!A.number("seed", Seed))
    return 2;
  fuzz::FuzzProgram P = fuzz::generateProgram(Seed);
  std::printf("%s\n", P.summary().c_str());
  for (size_t T = 0; T < P.Tasks.size(); ++T) {
    if (P.Tasks[T].Txs.empty())
      continue;
    std::printf("task %zu:\n", T);
    for (size_t X = 0; X < P.Tasks[T].Txs.size(); ++X) {
      const fuzz::FuzzTx &Tx = P.Tasks[T].Txs[X];
      std::printf("  tx %zu%s%s: %zu preop(s),", X,
                  Tx.ReadOnly ? " [read-only]" : "",
                  Tx.AbortFirstAttempt ? " [abort-first]" : "",
                  Tx.PreOps.size());
      for (const fuzz::FuzzOp &Op : Tx.Ops)
        std::printf(" %s(%u%s)",
                    Op.Kind == fuzz::FuzzOpKind::TxRead    ? "R"
                    : Op.Kind == fuzz::FuzzOpKind::TxWrite ? "W"
                                                           : "RMW",
                    Op.Slot, Op.AccAddr ? "+acc" : "");
      std::printf("\n");
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  Args A{"stmfuzz", Argc, Argv};
  std::string Cmd = Argv[1];
  if (Cmd == "run")
    return cmdRun(A);
  if (Cmd == "one")
    return cmdOne(A, /*Repro=*/false);
  if (Cmd == "repro")
    return cmdOne(A, /*Repro=*/true);
  if (Cmd == "show")
    return cmdShow(A);
  std::fprintf(stderr, "stmfuzz: unknown command '%s'\n", Cmd.c_str());
  return usage(Argv[0]);
}
