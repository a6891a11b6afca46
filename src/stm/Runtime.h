//===- stm/Runtime.h - GPU-STM runtime (STM_STARTUP et al.) -----*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// StmRuntime is the host-visible half of GPU-STM (STM_STARTUP /
/// STM_SHUTDOWN / STM_NEW_WARP in the paper's Figure 1): it allocates the
/// global metadata (version-lock table, global clock/sequence lock, the
/// per-warp coalesced read/write/lock logs) in simulated global memory and
/// exposes the transactional execution entry point used by kernels.
///
/// Typical kernel code:
/// \code
///   Dev.launch(L, [&](simt::ThreadCtx &Ctx) {
///     Stm.transaction(Ctx, [&](stm::Tx &T) {
///       Word V = T.read(A);
///       if (!T.valid()) return;     // the paper's opacity flag
///       T.write(B, V + 1);
///     });
///   });
/// \endcode
///
/// transaction() retries the body until a commit succeeds, exactly like the
/// `while(!done) done = TXCommit()` loop of Figure 1.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_STM_RUNTIME_H
#define GPUSTM_STM_RUNTIME_H

#include "simt/Device.h"
#include "stm/Bloom.h"
#include "stm/Config.h"
#include "stm/LockLog.h"
#include "stm/TxEvents.h"
#include "stm/TxLogs.h"
#include "support/FunctionRef.h"
#include "support/Stats.h"

#include <vector>

namespace gpustm {
namespace stm {

class Tx;

/// Host-side aggregate counters for one or more launches.
struct StmCounters {
  uint64_t Commits = 0;
  uint64_t ReadOnlyCommits = 0;
  uint64_t Aborts = 0;
  uint64_t AbortsReadValidation = 0;
  uint64_t AbortsCommitValidation = 0;
  uint64_t LockFailures = 0;
  uint64_t StaleSnapshots = 0;         ///< TBV check found version > snapshot.
  uint64_t FalseConflictsAvoided = 0;  ///< ... but VBV then passed (HV wins).
  uint64_t VbvRuns = 0;
  uint64_t TxReads = 0;
  uint64_t TxWrites = 0;
};

/// Per-thread transaction descriptor ("registers" of the running
/// transaction: snapshot, flags, set sizes, bloom filter, lock-log bucket
/// counters).  The logs themselves live in simulated global memory.
struct TxDesc {
  Word Snapshot = 0;
  bool Valid = true;   ///< The paper's isOpaque flag.
  bool PassTBV = true; ///< Set false when a timestamp check went stale.
  unsigned ReadCount = 0;
  unsigned WriteCount = 0;
  /// Clock/sequence value of the last successful commit: the transaction's
  /// serialization order (used by the serializability-replay tests).
  Word LastCommitVersion = 0;
  /// Why the current attempt went invalid (event tracing's cause enum;
  /// reset by begin(), read by the transaction() retry loop on abort).
  AbortCause LastAbort = AbortCause::None;
  BloomFilter WriteBloom;
  LockLog Locks;
  LogView ReadAddrs, ReadVals, WriteAddrs, WriteVals;
  unsigned Lane = 0;
};

/// The GPU-STM runtime (see file comment).
class StmRuntime {
public:
  /// STM_STARTUP: allocate global metadata sized for launches of at most
  /// \p MaxLaunch on \p Dev.
  StmRuntime(simt::Device &Dev, const StmConfig &Config,
             const simt::LaunchConfig &MaxLaunch);
  StmRuntime(const StmRuntime &) = delete;
  StmRuntime &operator=(const StmRuntime &) = delete;

  /// Run \p Body as one transaction, retrying until it commits.  For CGL
  /// the body runs under the single global lock with direct memory access.
  void transaction(simt::ThreadCtx &Ctx, function_ref<void(Tx &)> Body);

  const StmConfig &config() const { return Config; }

  /// The global-lock index guarding word address \p A (the paper derives
  /// it from the address bits; table size is a power of two).
  Word lockIndexFor(simt::Addr A) const {
    return static_cast<Word>(A & (Config.NumLocks - 1));
  }
  /// Address of the version-lock word for lock index \p Idx.
  simt::Addr lockWordAddr(Word Idx) const { return LockTabBase + Idx; }

  /// Counters accumulated since the last resetCounters().
  const StmCounters &counters() const { return Counters; }
  void resetCounters() { Counters = StmCounters(); }
  /// Counters exported as a named StatsSet.
  StatsSet statsSet() const;

  /// Effective validation policy after STM-Optimized's adaptive selection.
  Validation validation() const { return Val; }

  /// Serialization order of the given thread's last committed transaction.
  Word lastCommitVersion(unsigned GlobalThreadId) const {
    return Descs[GlobalThreadId].LastCommitVersion;
  }

  /// True while the device has an observer attached (the emit points'
  /// cold-path guard).  Transaction events go to the device's observers
  /// (simt::Observer::onTxEvent); emission is host-side only, so modeled
  /// cycles and counters are unchanged by it.
  bool tracing() const { return Dev.observed(); }

private:
  friend class Tx;

  TxDesc &descFor(const simt::ThreadCtx &Ctx) {
    return Descs[Ctx.globalThreadId()];
  }

  void cglTransaction(simt::ThreadCtx &Ctx, function_ref<void(Tx &)> Body);

  /// Deliver one event to every observer (callers guard with tracing()).
  void emitEvent(const simt::ThreadCtx &Ctx, TxEventKind K, AbortCause C,
                 simt::Addr A, Word V, Word Aux);

  simt::Device &Dev;
  StmConfig Config;
  Validation Val;
  /// The variant's commit-locking policy (StmConfig::locking()), fixed for
  /// the runtime's life.
  CommitLocking Locking;

  // Global metadata addresses in simulated memory.
  simt::Addr LockTabBase = simt::InvalidAddr;
  simt::Addr ClockAddr = simt::InvalidAddr;   ///< Global clock (TBV/HV).
  simt::Addr SeqLockAddr = simt::InvalidAddr; ///< NOrec sequence lock (VBV).
  simt::Addr CglTicketAddr = simt::InvalidAddr;  ///< CGL ticket counter.
  simt::Addr CglServingAddr = simt::InvalidAddr; ///< CGL now-serving word.
  simt::Addr TokenBase = simt::InvalidAddr;   ///< Per-warp backoff tokens.
  /// Global backoff-escalation token: lanes that keep losing the stripe-lock
  /// race serialize through it, which bounds cross-warp livelock.
  simt::Addr EscalationAddr = simt::InvalidAddr;

  std::vector<TxDesc> Descs;
  StmCounters Counters;
};

} // namespace stm
} // namespace gpustm

#endif // GPUSTM_STM_RUNTIME_H
