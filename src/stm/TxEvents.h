//===- stm/TxEvents.h - Transaction lifecycle events ------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transaction-event vocabulary the STM runtime delivers to the
/// device's observers (simt::Observer::onTxEvent) while any is attached.
/// Events are pure host-side observations: emitting one performs no
/// simulated device operation, so modeled cycle counts and StmCounters are
/// bit-identical with and without observers (the zero-overhead guarantee
/// tested by tests/trace/).  The trace library (src/trace/) records these
/// events, exports them (Perfetto JSON, compact binary) and replays them
/// through the offline serializability/opacity checker; simtsan reads the
/// Commit and Abort events for its end-of-attempt lock-leak check.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_STM_TXEVENTS_H
#define GPUSTM_STM_TXEVENTS_H

#include "simt/Memory.h"

#include <cstdint>

namespace gpustm {
namespace stm {

/// Lifecycle points of one transaction attempt.
enum class TxEventKind : uint8_t {
  Begin,          ///< Attempt started; Aux = clock/sequence snapshot.
  Read,           ///< TXRead returned; Value = result, Aux = 1 if buffered.
  Write,          ///< TXWrite buffered (or stored directly under CGL).
  ReadValidation, ///< Read-time validation ran; Aux = 1 pass / 0 fail.
  LockAcquire,    ///< Commit locks acquired; Aux = number of locks.
  LockFail,       ///< Commit lock acquisition failed; Address = lock index.
  Commit,         ///< Attempt committed; Aux = commit version (0 read-only).
  Abort,          ///< Attempt aborted; Cause says why.
};

/// Why an attempt aborted (the per-cause attribution behind the paper's
/// aggregate abort counters).
enum class AbortCause : uint8_t {
  None,                 ///< Not aborted (only valid on non-Abort events).
  ReadStaleSnapshot,    ///< TBV: read saw version > snapshot (fatal).
  ReadValidationFail,   ///< HV/VBV: read-time value validation failed.
  CommitValidationFail, ///< Commit-time validation failed.
  Explicit,             ///< The transaction body called Tx::abort().
};

inline const char *txEventKindName(TxEventKind K) {
  switch (K) {
  case TxEventKind::Begin:
    return "begin";
  case TxEventKind::Read:
    return "read";
  case TxEventKind::Write:
    return "write";
  case TxEventKind::ReadValidation:
    return "read-validation";
  case TxEventKind::LockAcquire:
    return "lock-acquire";
  case TxEventKind::LockFail:
    return "lock-fail";
  case TxEventKind::Commit:
    return "commit";
  case TxEventKind::Abort:
    return "abort";
  }
  return "invalid";
}

inline const char *abortCauseName(AbortCause C) {
  switch (C) {
  case AbortCause::None:
    return "none";
  case AbortCause::ReadStaleSnapshot:
    return "stale-snapshot";
  case AbortCause::ReadValidationFail:
    return "read-validation";
  case AbortCause::CommitValidationFail:
    return "commit-validation";
  case AbortCause::Explicit:
    return "explicit";
  }
  return "invalid";
}

/// One emitted event.  The stream is globally chronological (the simulator
/// is single-threaded) and per-thread program-ordered.
struct TxEvent {
  uint64_t Cycle = 0;    ///< simt::Device::now() at emission.
  uint32_t ThreadId = 0; ///< Global thread id of the transaction.
  uint16_t Sm = 0;       ///< Home SM of the thread's block.
  uint16_t Kernel = 0;   ///< Kernel index within the run (recorder-set).
  TxEventKind Kind = TxEventKind::Begin;
  AbortCause Cause = AbortCause::None; ///< Set on Abort events.
  simt::Addr Address = simt::InvalidAddr;
  simt::Word Value = 0;
  simt::Word Aux = 0;
};

} // namespace stm
} // namespace gpustm

#endif // GPUSTM_STM_TXEVENTS_H
