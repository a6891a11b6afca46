//===- tools/Args.h - Command-line cursor shared by the CLIs ----*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The argv cursor the subcommand CLIs (stmfuzz, stmlint, stmtrace) parse
/// their flags with: `<tool> <command> [args...]`, walked one token at a
/// time past the command.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_TOOLS_ARGS_H
#define GPUSTM_TOOLS_ARGS_H

#include <cstdio>
#include <string>

namespace gpustm {
namespace tools {

/// Positional/flag cursor over argv.
struct Args {
  const char *Tool; ///< Prefix of diagnostics ("stmtrace: ...").
  int Argc;
  char **Argv;
  int I = 2; // past "<prog> <command>"

  bool done() const { return I >= Argc; }
  std::string next() { return Argv[I++]; }
  /// Take the value following \p Flag; false (with a diagnostic) at the end
  /// of argv.
  bool value(const char *Flag, std::string &Out) {
    if (done()) {
      std::fprintf(stderr, "%s: %s needs a value\n", Tool, Flag);
      return false;
    }
    Out = next();
    return true;
  }
};

} // namespace tools
} // namespace gpustm

#endif // GPUSTM_TOOLS_ARGS_H
