//===- support/EnvOptions.cpp - Environment-variable options --------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/EnvOptions.h"
#include "support/Error.h"
#include "support/Format.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace gpustm {

const char *parseUnsignedInRange(const char *Text, uint64_t Min, uint64_t Max,
                                 uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long Parsed = std::strtoull(Text, &End, 0);
  if (End == Text)
    return "is not a number";
  while (std::isspace(static_cast<unsigned char>(*End)))
    ++End;
  if (*End != '\0')
    return "has trailing garbage";
  // strtoull accepts "-1" as a huge wrapped value; reject negatives.
  const char *P = Text;
  while (std::isspace(static_cast<unsigned char>(*P)))
    ++P;
  if (*P == '-')
    return "is negative";
  if (errno == ERANGE)
    return "overflows";
  if (Parsed < Min || Parsed > Max)
    return "is out of range";
  Out = Parsed;
  return nullptr;
}

uint64_t envUnsignedInRange(const char *Name, uint64_t Default, uint64_t Min,
                            uint64_t Max) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  uint64_t Parsed = 0;
  if (const char *Why = parseUnsignedInRange(Value, Min, Max, Parsed))
    reportFatalError(formatString(
        "%s='%s' %s; accepted range is %llu..%llu (unset for default %llu)",
        Name, Value, Why, static_cast<unsigned long long>(Min),
        static_cast<unsigned long long>(Max),
        static_cast<unsigned long long>(Default)));
  return Parsed;
}

bool envBool(const char *Name, bool Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  std::string Lower;
  for (const char *P = Value; *P; ++P)
    Lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*P))));
  if (Lower == "1" || Lower == "true" || Lower == "yes" || Lower == "on")
    return true;
  if (Lower == "0" || Lower == "false" || Lower == "no" || Lower == "off")
    return false;
  return Default;
}

std::string envString(const char *Name, const std::string &Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return Value;
}

} // namespace gpustm
