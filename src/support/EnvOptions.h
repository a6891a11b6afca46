//===- support/EnvOptions.h - Environment-variable options ------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmark binaries accept scale knobs through environment variables so
/// that `for b in build/bench/*; do $b; done` works with no arguments while
/// still allowing paper-scale runs (e.g. GPUSTM_SCALE=4).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SUPPORT_ENVOPTIONS_H
#define GPUSTM_SUPPORT_ENVOPTIONS_H

#include <cstdint>
#include <string>

namespace gpustm {

/// Parse \p Text as an unsigned integer (decimal, or 0x-hex / 0-octal as
/// strtoull reads them) in [\p Min, \p Max].  On success stores it in
/// \p Out and returns nullptr; otherwise returns why the text was rejected:
/// "is not a number", "has trailing garbage" (8x is not read as 8;
/// trailing whitespace is tolerated), "is negative", "overflows" (uint64)
/// or "is out of range".  The one numeric parser of environment variables
/// and command-line flags.
const char *parseUnsignedInRange(const char *Text, uint64_t Min, uint64_t Max,
                                 uint64_t &Out);

/// Read an unsigned integer in [\p Min, \p Max] from the environment, or
/// \p Default when the variable is unset or empty.  A bad value never
/// silently degrades: a set value that parseUnsignedInRange rejects is a
/// fatal error naming the variable, the offending value, why, and the
/// accepted range.
uint64_t envUnsignedInRange(const char *Name, uint64_t Default, uint64_t Min,
                            uint64_t Max);

/// Read a boolean from the environment, or \p Default when unset or
/// unrecognized.  Accepts 1/0, true/false, yes/no, on/off (any case).
bool envBool(const char *Name, bool Default);

/// Read a string from the environment, or \p Default when unset.
std::string envString(const char *Name, const std::string &Default);

} // namespace gpustm

#endif // GPUSTM_SUPPORT_ENVOPTIONS_H
