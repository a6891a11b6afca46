//===- stm/ConfigCheck.cpp - Centralized StmConfig validation -------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "stm/ConfigCheck.h"

#include "stm/LockLog.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/MathExtras.h"

using namespace gpustm;
using namespace gpustm::stm;

std::string stm::validateStmConfig(const StmConfig &Config) {
  if (Config.NumLocks == 0 || !isPowerOf2(Config.NumLocks))
    return formatString("NumLocks must be a nonzero power of two (got %zu)",
                        Config.NumLocks);
  if (Config.ReadSetCap == 0)
    return "ReadSetCap must be nonzero";
  if (Config.WriteSetCap == 0)
    return "WriteSetCap must be nonzero";
  if (Config.LockLogBuckets == 0 || Config.LockLogBuckets > LockLog::MaxBuckets)
    return formatString("LockLogBuckets must be in [1, %u] (got %u)",
                        LockLog::MaxBuckets, Config.LockLogBuckets);
  if (Config.LockLogBucketCap == 0)
    return "LockLogBucketCap must be nonzero";
  if (Config.SharedDataWords != 0 &&
      (Config.ReadSetCap > 16 * Config.SharedDataWords ||
       Config.WriteSetCap > 16 * Config.SharedDataWords))
    return formatString(
        "log caps (read %u / write %u) are over 16x SharedDataWords (%zu); "
        "likely transposed arguments",
        Config.ReadSetCap, Config.WriteSetCap, Config.SharedDataWords);
  if (Config.Kind == Variant::Optimized && Config.SharedDataWords == 0)
    return "STM-Optimized requires SharedDataWords to select HV vs TBV";
  return std::string();
}

void stm::checkStmConfigOrDie(const StmConfig &Config) {
  std::string Err = validateStmConfig(Config);
  if (!Err.empty())
    reportFatalError("invalid StmConfig: " + Err);
}
