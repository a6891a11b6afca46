//===- stm/ConfigCheck.h - Centralized StmConfig validation -----*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One diagnostic path for rejecting malformed StmConfig values, shared by
/// StmRuntime (fatal at construction), the fuzzer (generated configs), and
/// stmlint (the `config.invalid` check).  Keeping the rules in one place
/// guarantees the static analyzer rejects exactly what the runtime would.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_STM_CONFIGCHECK_H
#define GPUSTM_STM_CONFIGCHECK_H

#include "stm/Config.h"

#include <string>

namespace gpustm {
namespace stm {

/// Returns an empty string when \p Config is well-formed, otherwise a
/// one-line diagnostic describing the first violated rule:
///  - NumLocks must be a nonzero power of two (the stripe hash is a mask);
///  - ReadSetCap and WriteSetCap must be nonzero;
///  - LockLogBuckets must be in [1, LockLog::MaxBuckets] and
///    LockLogBucketCap nonzero;
///  - when SharedDataWords is declared, log caps over 16x the total shared
///    data are rejected as transposed-argument mistakes;
///  - STM-Optimized needs SharedDataWords to pick HV vs TBV.
std::string validateStmConfig(const StmConfig &Config);

/// validateStmConfig, escalated to reportFatalError on the first violation.
void checkStmConfigOrDie(const StmConfig &Config);

} // namespace stm
} // namespace gpustm

#endif // GPUSTM_STM_CONFIGCHECK_H
