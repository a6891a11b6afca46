//===- tools/stmlitmus.cpp - Weak-memory litmus CLI -----------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the weak-memory litmus checker (src/wmm/):
///
///   stmlitmus list                    # built-in tests and expectations
///   stmlitmus run [names...]          # run the suite (or a subset)
///
/// Each test declares a forbidden outcome and whether the weak-memory
/// model is expected to reach it; a reachable outcome prints the minimal
/// reordering witness found.  Exit status 1 when any expectation fails.
///
//===----------------------------------------------------------------------===//

#include "Args.h"
#include "support/Format.h"
#include "wmm/Litmus.h"

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
      "  list\n"
      "      Print every built-in litmus test with its expectation.\n"
      "  run  [--seed N] [--buffer N] [--max-executions N] [--random N]\n"
      "       [-v] [names...]\n"
      "      Run the named tests (default: the whole suite).  A test\n"
      "      passes when the reachability of its forbidden outcome matches\n"
      "      the declared expectation; reachable outcomes print their\n"
      "      minimal reordering witness under -v (always on failure).\n",
      Argv0);
  return 2;
}

int cmdList() {
  for (const wmm::LitmusTest &T : wmm::builtinSuite())
    std::printf("%-28s %-11s %s\n", T.Name.c_str(),
                T.ExpectForbiddenReachable ? "reachable" : "unreachable",
                T.Note.c_str());
  return 0;
}

int cmdRun(Args &A) {
  wmm::LitmusRunOptions Opt;
  bool Verbose = false;
  std::vector<std::string> Names;
  while (!A.done()) {
    std::string Arg = A.next();
    bool Ok = true;
    if (Arg == "--seed")
      Ok = A.number("--seed", Opt.Seed);
    else if (Arg == "--buffer")
      Ok = A.number("--buffer", Opt.StoreBufferCap, 0, 64);
    else if (Arg == "--max-executions")
      Ok = A.number("--max-executions", Opt.MaxExecutions, 1, UINT32_MAX);
    else if (Arg == "--random")
      Ok = A.number("--random", Opt.RandomExecutions);
    else if (Arg == "-v" || Arg == "--verbose")
      Verbose = true;
    else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "stmlitmus: unknown option '%s'\n", Arg.c_str());
      return 2;
    } else
      Names.push_back(Arg);
    if (!Ok)
      return 2;
  }

  std::vector<wmm::LitmusTest> Suite = wmm::builtinSuite();
  std::vector<const wmm::LitmusTest *> Selected;
  if (Names.empty()) {
    for (const wmm::LitmusTest &T : Suite)
      Selected.push_back(&T);
  } else {
    for (const std::string &N : Names) {
      const wmm::LitmusTest *Found = nullptr;
      for (const wmm::LitmusTest &T : Suite)
        if (T.Name == N)
          Found = &T;
      if (!Found) {
        std::fprintf(stderr, "stmlitmus: unknown test '%s' (try list)\n",
                     N.c_str());
        return 2;
      }
      Selected.push_back(Found);
    }
  }

  unsigned Failures = 0;
  for (const wmm::LitmusTest *T : Selected) {
    wmm::LitmusResult R = wmm::runLitmus(*T, Opt);
    std::printf("%-28s %s  forbidden %s (expected %s), %u execution%s%s\n",
                T->Name.c_str(), R.Passed ? "ok  " : "FAIL",
                R.ForbiddenReached ? "reached" : "not reached",
                T->ExpectForbiddenReachable ? "reachable" : "unreachable",
                R.Executions, R.Executions == 1 ? "" : "s",
                R.Exhaustive ? " (exhaustive)" : "");
    if ((Verbose || !R.Passed) && R.ForbiddenReached)
      std::printf("%s", R.WitnessText.c_str());
    if (!R.Passed)
      ++Failures;
  }
  std::printf("stmlitmus: %zu test%s, %u failing\n", Selected.size(),
              Selected.size() == 1 ? "" : "s", Failures);
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "run") {
    Args A{"stmlitmus", Argc, Argv};
    return cmdRun(A);
  }
  std::fprintf(stderr, "stmlitmus: unknown command '%s'\n", Cmd.c_str());
  return usage(Argv[0]);
}
