//===- tools/Args.h - Command-line cursor shared by the CLIs ----*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The argv cursor every CLI (stmfuzz, stmlint, stmlitmus, stmserve,
/// stmtrace) parses its flags with: `<tool> <command> [args...]`, walked
/// one token at a time past the command.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_TOOLS_ARGS_H
#define GPUSTM_TOOLS_ARGS_H

#include "support/EnvOptions.h"

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace gpustm {
namespace tools {

/// Upper bounds of the workload --scale (GPUSTM_SCALE's) and --locks flags,
/// and of a fuzz corpus's --seeds (every seed's result is held until the
/// run ends).
constexpr uint64_t MaxScale = 1u << 20;
constexpr uint64_t MaxLocks = 1u << 26;
constexpr uint64_t MaxSeeds = 1u << 24;

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
  /// Take the next token as the unsigned integer \p What (the flag it
  /// follows, or a positional's name) in [\p Min, \p Max].  False, with a
  /// diagnostic naming \p What and the accepted range, when it is missing
  /// or parseUnsignedInRange rejects it; the command then exits 2.
  template <typename T>
  bool number(const char *What, T &Out, uint64_t Min = 0,
              uint64_t Max = std::numeric_limits<T>::max()) {
    std::string Text;
    if (!value(What, Text))
      return false;
    uint64_t V = 0;
    if (const char *Why = parseUnsignedInRange(Text.c_str(), Min, Max, V)) {
      std::fprintf(stderr, "%s: %s '%s' %s; accepted range is %llu..%llu\n",
                   Tool, What, Text.c_str(), Why,
                   static_cast<unsigned long long>(Min),
                   static_cast<unsigned long long>(Max));
      return false;
    }
    Out = static_cast<T>(V);
    return true;
  }
};

} // namespace tools
} // namespace gpustm

#endif // GPUSTM_TOOLS_ARGS_H
