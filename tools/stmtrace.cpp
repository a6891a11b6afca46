//===- tools/stmtrace.cpp - Transaction-trace CLI -------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the trace subsystem:
///
///   stmtrace record -w RA -v hv -o ra.trace   # run a workload, record
///   stmtrace check  ra.trace                  # serializability + opacity
///   stmtrace report ra.trace                  # aborts, contention, waste
///   stmtrace export ra.trace -o ra.json       # Perfetto / chrome://tracing
///
//===----------------------------------------------------------------------===//

#include "Args.h"
#include "analysis/Simtsan.h"
#include "support/Format.h"
#include "trace/Analysis.h"
#include "trace/Checker.h"
#include "trace/Perfetto.h"
#include "trace/Recorder.h"
#include "trace/TraceIO.h"
#include "workloads/All.h"
#include "workloads/Harness.h"

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
      "  record -w <RA|HT|EB|LB|GN|KM> [-v <variant>] [--scale N]\n"
      "         [--locks N] [--ops] [--no-verify] -o <trace>\n"
      "      Run a workload under the harness and record a binary trace.\n"
      "      Variants: cgl vbv tbv hv backoff opt egpgv (or paper names).\n"
      "  check <trace>\n"
      "      Verify serializability and opacity offline; non-zero exit and\n"
      "      a cause-specific diagnostic on violation.\n"
      "  report <trace> [--top N]\n"
      "      Abort-cause attribution, wasted work, contention heatmap.\n"
      "  export <trace> [-o <out.json>] [--ops]\n"
      "      Chrome trace_event JSON for Perfetto / chrome://tracing.\n"
      "  san    -w <RA|HT|EB|LB|GN|KM> [-v <variant>] [--scale N]\n"
      "         [--locks N] [--no-verify] [--max-reports N] [-o <out.json>]\n"
      "      Run a workload with the simtsan race/isolation/SIMT-hazard\n"
      "      detector attached; print every finding and exit non-zero if\n"
      "      there are any.\n",
      Argv0);
  return 2;
}

int cmdRecord(Args &A) {
  std::string WorkloadName, Out;
  stm::Variant Kind = stm::Variant::HVSorting;
  unsigned Scale = 1;
  uint64_t NumLocks = 1u << 16;
  bool RecordOps = false, Verify = true;

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
        std::fprintf(stderr, "stmtrace: unknown variant '%s'\n", Val.c_str());
        return 2;
      }
    } else if (Arg == "--scale") {
      if (!A.number("--scale", Scale, 1, tools::MaxScale))
        return 2;
    } else if (Arg == "--locks") {
      if (!A.number("--locks", NumLocks, 1, tools::MaxLocks))
        return 2;
    } else if (Arg == "-o" || Arg == "--out") {
      if (!A.value(Arg.c_str(), Out))
        return 2;
    } else if (Arg == "--ops") {
      RecordOps = true;
    } else if (Arg == "--no-verify") {
      Verify = false;
    } else {
      std::fprintf(stderr, "stmtrace: unknown record option '%s'\n",
                   Arg.c_str());
      return 2;
    }
  }
  if (WorkloadName.empty() || Out.empty()) {
    std::fprintf(stderr, "stmtrace: record needs -w <workload> -o <trace>\n");
    return 2;
  }

  std::unique_ptr<workloads::Workload> W =
      workloads::makeWorkload(WorkloadName, Scale);
  workloads::HarnessConfig HC;
  HC.Kind = Kind;
  HC.Launches = workloads::paperLaunches(WorkloadName, Scale);
  HC.NumLocks = NumLocks;
  HC.Verify = Verify;
  trace::TxTraceRecorder::Options RecOpts;
  RecOpts.RecordOps = RecordOps;
  trace::TxTraceRecorder Recorder(RecOpts);
  HC.Recorder = &Recorder;

  workloads::HarnessResult R = workloads::runWorkload(*W, HC);
  if (!R.Completed || (Verify && !R.Verified)) {
    std::fprintf(stderr, "stmtrace: %s/%s run failed: %s\n",
                 WorkloadName.c_str(), stm::variantName(Kind),
                 R.Error.c_str());
    return 1;
  }
  std::string Err;
  if (!trace::writeTrace(Recorder.trace(), Out, &Err)) {
    std::fprintf(stderr, "stmtrace: %s\n", Err.c_str());
    return 1;
  }
  std::printf("recorded %s/%s: %zu tx events, %llu cycles, "
              "%llu commits, %llu aborts -> %s\n",
              WorkloadName.c_str(), stm::variantName(Kind),
              Recorder.trace().Events.size(),
              static_cast<unsigned long long>(R.TotalCycles),
              static_cast<unsigned long long>(R.Stm.Commits),
              static_cast<unsigned long long>(R.Stm.Aborts), Out.c_str());
  return 0;
}

bool loadTrace(const std::string &Path, trace::TxTrace &T) {
  std::string Err;
  if (!trace::readTrace(T, Path, &Err)) {
    std::fprintf(stderr, "stmtrace: %s\n", Err.c_str());
    return false;
  }
  return true;
}

int cmdCheck(Args &A) {
  if (A.done())
    return usage(A.Argv[0]);
  std::string Path = A.next();
  trace::TxTrace T;
  if (!loadTrace(Path, T))
    return 1;
  trace::CheckResult R = trace::checkTrace(T);
  if (!R.ok()) {
    std::fprintf(stderr, "FAIL %s: %s: %s\n", Path.c_str(),
                 trace::checkStatusName(R.Status), R.Message.c_str());
    return 1;
  }
  std::printf("OK %s: %llu attempts, %llu update commits replayed, "
              "%llu reads explained\n",
              Path.c_str(), static_cast<unsigned long long>(R.Attempts),
              static_cast<unsigned long long>(R.CommitsReplayed),
              static_cast<unsigned long long>(R.ReadsExplained));
  return 0;
}

int cmdReport(Args &A) {
  if (A.done())
    return usage(A.Argv[0]);
  std::string Path = A.next();
  size_t TopN = 10;
  while (!A.done()) {
    std::string Arg = A.next();
    if (Arg == "--top") {
      if (!A.number("--top", TopN, 0, UINT32_MAX))
        return 2;
    } else {
      std::fprintf(stderr, "stmtrace: unknown report option '%s'\n",
                   Arg.c_str());
      return 2;
    }
  }
  trace::TxTrace T;
  if (!loadTrace(Path, T))
    return 1;
  trace::TraceReport Rep = trace::analyzeTrace(T, TopN);
  trace::printReport(stdout, T, Rep);
  return 0;
}

int cmdExport(Args &A) {
  if (A.done())
    return usage(A.Argv[0]);
  std::string Path = A.next();
  std::string Out = Path + ".json";
  bool IncludeInstants = false;
  while (!A.done()) {
    std::string Arg = A.next();
    if (Arg == "-o" || Arg == "--out") {
      if (!A.value(Arg.c_str(), Out))
        return 2;
    } else if (Arg == "--ops") {
      IncludeInstants = true;
    } else {
      std::fprintf(stderr, "stmtrace: unknown export option '%s'\n",
                   Arg.c_str());
      return 2;
    }
  }
  trace::TxTrace T;
  if (!loadTrace(Path, T))
    return 1;
  std::string Err;
  if (!trace::writePerfettoJson(T, Out, IncludeInstants, &Err)) {
    std::fprintf(stderr, "stmtrace: %s\n", Err.c_str());
    return 1;
  }
  std::printf("wrote %s (load in ui.perfetto.dev or chrome://tracing)\n",
              Out.c_str());
  return 0;
}

int cmdSan(Args &A) {
  std::string WorkloadName, Out;
  stm::Variant Kind = stm::Variant::HVSorting;
  unsigned Scale = 1;
  uint64_t NumLocks = 1u << 16;
  uint64_t MaxReports = 100;
  bool Verify = true;

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
        std::fprintf(stderr, "stmtrace: unknown variant '%s'\n", Val.c_str());
        return 2;
      }
    } else if (Arg == "--scale") {
      if (!A.number("--scale", Scale, 1, tools::MaxScale))
        return 2;
    } else if (Arg == "--locks") {
      if (!A.number("--locks", NumLocks, 1, tools::MaxLocks))
        return 2;
    } else if (Arg == "--max-reports") {
      if (!A.number("--max-reports", MaxReports))
        return 2;
    } else if (Arg == "-o" || Arg == "--out") {
      if (!A.value(Arg.c_str(), Out))
        return 2;
    } else if (Arg == "--no-verify") {
      Verify = false;
    } else {
      std::fprintf(stderr, "stmtrace: unknown san option '%s'\n", Arg.c_str());
      return 2;
    }
  }
  if (WorkloadName.empty()) {
    std::fprintf(stderr, "stmtrace: san needs -w <workload>\n");
    return 2;
  }
  std::unique_ptr<workloads::Workload> W =
      workloads::makeWorkload(WorkloadName, Scale);
  workloads::HarnessConfig HC;
  HC.Kind = Kind;
  HC.Launches = workloads::paperLaunches(WorkloadName, Scale);
  HC.NumLocks = NumLocks;
  HC.Verify = Verify;
  analysis::SimtsanOptions SanOpts;
  SanOpts.MaxReports = MaxReports;
  SanOpts.PrintToStderr = false; // Findings are printed in one block below.
  analysis::Simtsan San(SanOpts);
  HC.San = &San;

  workloads::HarnessResult R = workloads::runWorkload(*W, HC);
  if (!R.Completed || (Verify && !R.Verified)) {
    std::fprintf(stderr, "stmtrace: %s/%s run failed: %s\n",
                 WorkloadName.c_str(), stm::variantName(Kind),
                 R.Error.c_str());
    return 1;
  }
  if (!Out.empty() && !San.writeJsonFile(Out)) {
    std::fprintf(stderr, "stmtrace: cannot write %s\n", Out.c_str());
    return 1;
  }

  std::printf("simtsan %s/%s: %llu cycles, %llu commits, %llu aborts, "
              "%llu finding(s)\n",
              WorkloadName.c_str(), stm::variantName(Kind),
              static_cast<unsigned long long>(R.TotalCycles),
              static_cast<unsigned long long>(R.Stm.Commits),
              static_cast<unsigned long long>(R.Stm.Aborts),
              static_cast<unsigned long long>(San.findingCount()));
  for (unsigned K = 0; K < analysis::NumReportKinds; ++K) {
    uint64_t N = San.count(static_cast<analysis::ReportKind>(K));
    if (N != 0)
      std::printf("  %-24s %llu\n",
                  analysis::reportKindName(static_cast<analysis::ReportKind>(K)),
                  static_cast<unsigned long long>(N));
  }
  for (const analysis::SanReport &Rep : San.reports())
    std::printf("%s: %s [block %u warp %u lane %u thread %u sm %u "
                "cycle %llu]\n",
                analysis::reportKindName(Rep.Kind), Rep.Message.c_str(),
                Rep.Block, Rep.Warp, Rep.Lane, Rep.Thread, Rep.Sm,
                static_cast<unsigned long long>(Rep.Cycle));
  if (San.findingCount() > San.reports().size())
    std::printf("(%llu finding(s) beyond the --max-reports cap not shown)\n",
                static_cast<unsigned long long>(San.findingCount() -
                                                San.reports().size()));
  return San.findingCount() == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  Args A{"stmtrace", Argc, Argv};
  std::string Cmd = Argv[1];
  if (Cmd == "record")
    return cmdRecord(A);
  if (Cmd == "check")
    return cmdCheck(A);
  if (Cmd == "report")
    return cmdReport(A);
  if (Cmd == "export")
    return cmdExport(A);
  if (Cmd == "san")
    return cmdSan(A);
  std::fprintf(stderr, "stmtrace: unknown command '%s'\n", Cmd.c_str());
  return usage(Argv[0]);
}
