//===- tools/stmlint.cpp - Pre-launch static analysis CLI -----------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the stmlint static analyzer:
///
///   stmlint check -w RA -v hv             # one workload, one variant
///   stmlint matrix -o report.json         # 7 variants x 6 workloads
///   stmlint fuzz --seeds 16               # exact analysis of fuzz programs
///
/// Exit status is non-zero iff some analyzed cell has an error-severity
/// finding (capacity overflow, isolation violation, invalid config).
///
//===----------------------------------------------------------------------===//

#include "Args.h"
#include "analysis/static/Lint.h"
#include "fuzz/FuzzProgram.h"
#include "fuzz/FuzzWorkload.h"
#include "fuzz/Fuzzer.h"
#include "support/Format.h"
#include "workloads/All.h"
#include "workloads/LintDriver.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace gpustm;
using tools::Args;

namespace {

const char *const AllWorkloads[] = {"RA", "HT", "EB", "LB", "GN", "KM"};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> ...\n"
      "\n"
      "  check -w <RA|HT|EB|LB|GN|KM> [-v <variant>] [--scale N]\n"
      "        [--locks N] [--disable-sorting] [-o <out.json>]\n"
      "      Statically analyze one workload under one variant: worst-case\n"
      "      log capacity vs caps, lock-stripe collisions, strong-isolation\n"
      "      overlaps, acquire ordering, predicted conflict density.\n"
      "  matrix [--scale N] [--locks N] [-o <out.json>]\n"
      "      Analyze the full 7-variant x 6-workload evaluation matrix.\n"
      "  fuzz [--seeds N] [--start SEED] [-o <out.json>]\n"
      "      Analyze generated fuzz programs (a closed IR: the analysis is\n"
      "      exact up to data-dependent indices) under every variant.\n"
      "\n"
      "      Variants: cgl vbv tbv hv backoff opt egpgv (or paper names).\n",
      Argv0);
  return 2;
}

/// Analyze one (workload, variant) cell and append its report.
bool lintCell(const std::string &WorkloadName, stm::Variant Kind,
              unsigned Scale, size_t NumLocks, bool DisableSorting,
              std::vector<staticlint::LintReport> &Reports) {
  std::unique_ptr<workloads::Workload> W =
      workloads::makeWorkload(WorkloadName, Scale);
  workloads::HarnessConfig HC;
  HC.Kind = Kind;
  HC.Launches = workloads::paperLaunches(WorkloadName, Scale);
  HC.NumLocks = NumLocks;
  HC.DisableSorting = DisableSorting;
  workloads::LintDriverResult R = workloads::lintWorkload(*W, HC);
  if (!R.Modeled) {
    std::fprintf(stderr, "stmlint: %s has no static footprint model\n",
                 WorkloadName.c_str());
    return false;
  }
  staticlint::printLintReport(stdout, R.Report);
  Reports.push_back(std::move(R.Report));
  return true;
}

/// Write the collected reports when -o was given; returns process exit.
int finish(const std::vector<staticlint::LintReport> &Reports,
           const std::string &OutPath) {
  unsigned Errors = 0, Warnings = 0;
  for (const staticlint::LintReport &R : Reports) {
    Errors += R.errors();
    Warnings += R.warnings();
  }
  if (!OutPath.empty()) {
    std::string Err;
    if (!staticlint::writeLintJson(Reports, OutPath, &Err)) {
      std::fprintf(stderr, "stmlint: %s\n", Err.c_str());
      return 2;
    }
  }
  std::printf("stmlint: %zu cell(s), %u error(s), %u warning(s)\n",
              Reports.size(), Errors, Warnings);
  return Errors ? 1 : 0;
}

int cmdCheck(Args &A) {
  std::string WorkloadName, Out;
  stm::Variant Kind = stm::Variant::HVSorting;
  unsigned Scale = 1;
  size_t NumLocks = 1u << 16;
  bool DisableSorting = false;

  while (!A.done()) {
    std::string Arg = A.next();
    std::string Val;
    if (Arg == "-w" || Arg == "--workload") {
      if (!A.value(Arg.c_str(), WorkloadName))
        return 2;
    } else if (Arg == "-v" || Arg == "--variant") {
      if (!A.value(Arg.c_str(), Val))
        return 2;
      if (!stm::parseVariant(Val, Kind)) {
        std::fprintf(stderr, "stmlint: unknown variant '%s'\n", Val.c_str());
        return 2;
      }
    } else if (Arg == "--scale") {
      if (!A.number("--scale", Scale, 1, tools::MaxScale))
        return 2;
    } else if (Arg == "--locks") {
      if (!A.number("--locks", NumLocks, 1, tools::MaxLocks))
        return 2;
    } else if (Arg == "--disable-sorting") {
      DisableSorting = true;
    } else if (Arg == "-o") {
      if (!A.value(Arg.c_str(), Out))
        return 2;
    } else {
      std::fprintf(stderr, "stmlint: unknown argument '%s'\n", Arg.c_str());
      return 2;
    }
  }
  if (WorkloadName.empty()) {
    std::fprintf(stderr, "stmlint: check needs -w <workload>\n");
    return 2;
  }
  std::vector<staticlint::LintReport> Reports;
  if (!lintCell(WorkloadName, Kind, Scale, NumLocks, DisableSorting, Reports))
    return 2;
  return finish(Reports, Out);
}

int cmdMatrix(Args &A) {
  std::string Out;
  unsigned Scale = 1;
  size_t NumLocks = 1u << 16;

  while (!A.done()) {
    std::string Arg = A.next();
    if (Arg == "--scale") {
      if (!A.number("--scale", Scale, 1, tools::MaxScale))
        return 2;
    } else if (Arg == "--locks") {
      if (!A.number("--locks", NumLocks, 1, tools::MaxLocks))
        return 2;
    } else if (Arg == "-o") {
      if (!A.value(Arg.c_str(), Out))
        return 2;
    } else {
      std::fprintf(stderr, "stmlint: unknown argument '%s'\n", Arg.c_str());
      return 2;
    }
  }
  std::vector<staticlint::LintReport> Reports;
  for (const char *Name : AllWorkloads)
    for (stm::Variant Kind : fuzz::allVariants())
      if (!lintCell(Name, Kind, Scale, NumLocks, /*DisableSorting=*/false,
                    Reports))
        return 2;
  return finish(Reports, Out);
}

int cmdFuzz(Args &A) {
  std::string Out;
  unsigned Seeds = 16;
  uint64_t Start = 1;

  while (!A.done()) {
    std::string Arg = A.next();
    if (Arg == "--seeds") {
      if (!A.number("--seeds", Seeds, 1, tools::MaxSeeds))
        return 2;
    } else if (Arg == "--start") {
      if (!A.number("--start", Start))
        return 2;
    } else if (Arg == "-o") {
      if (!A.value(Arg.c_str(), Out))
        return 2;
    } else {
      std::fprintf(stderr, "stmlint: unknown argument '%s'\n", Arg.c_str());
      return 2;
    }
  }
  std::vector<staticlint::LintReport> Reports;
  for (uint64_t Seed = Start; Seed < Start + Seeds; ++Seed) {
    fuzz::FuzzProgram P = fuzz::generateProgram(Seed);
    for (stm::Variant Kind : fuzz::allVariants()) {
      fuzz::FuzzWorkload W(P);
      workloads::LintDriverResult R = workloads::lintWorkload(
          W, fuzz::makeConfig(P, Kind, fuzz::FuzzOptions()));
      if (!R.Modeled) {
        std::fprintf(stderr, "stmlint: fuzz seed %llu has no model\n",
                     static_cast<unsigned long long>(Seed));
        return 2;
      }
      staticlint::printLintReport(stdout, R.Report);
      Reports.push_back(std::move(R.Report));
    }
  }
  return finish(Reports, Out);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  Args A{"stmlint", Argc, Argv};
  if (Cmd == "check")
    return cmdCheck(A);
  if (Cmd == "matrix")
    return cmdMatrix(A);
  if (Cmd == "fuzz")
    return cmdFuzz(A);
  return usage(Argv[0]);
}
