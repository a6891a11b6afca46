//===- simt/Op.h - Device operations and phases ------------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of device operations a lane can yield to the warp round
/// engine, and the execution-phase tags used to attribute cycles for the
/// paper's Figure 5 (single-thread execution time breakdown).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_OP_H
#define GPUSTM_SIMT_OP_H

#include "simt/Memory.h"

#include <cstdint>

namespace gpustm {
namespace simt {

/// Kind of a yielded device operation.
enum class OpKind : uint8_t {
  None,        ///< Lane has not yielded anything yet.
  Load,        ///< Global memory load (coalesced).
  Store,       ///< Global memory store (coalesced).
  Atomic,      ///< Atomic RMW (serialized per contended address).
  Fence,       ///< threadfence().
  Compute,     ///< Explicit ALU work of Op::Cycles cycles.
  BlockBarrier,///< __syncthreads().
  WarpSync,    ///< Warp-wide convergence point.
  Ballot,      ///< Warp vote; result mask delivered to every lane.
  BranchBegin, ///< simtIf: divergence point carrying the lane's condition.
  BranchElse,  ///< simtIf: boundary between then-side and else-side.
  BranchEnd,   ///< simtIf: reconvergence point.
  LoopBegin,   ///< simtWhile: loop-entry marker (pushes a loop frame).
  LoopTest,    ///< simtWhile: per-iteration test carrying the condition.
  LoopEnd,     ///< simtWhile: reconvergence point after loop exit.
  MemWait,     ///< Park until a memory word meets a condition (see
               ///< ThreadCtx::memWaitEquals / memWaitBitClear).
};

/// Wait condition of a MemWait operation.
enum class MemWaitKind : uint8_t {
  Equals,  ///< Resume when *A == operand.
  BitClear ///< Resume when (*A & operand) == 0.
};

/// One yielded device operation.
struct Op {
  OpKind Kind = OpKind::None;
  Addr Address = InvalidAddr; ///< For Load/Store/Atomic/MemWait.
  uint32_t Cycles = 0;        ///< Compute cycles, or the MemWait operand.
  bool Flag = false;          ///< Branch/loop condition or ballot predicate.
  MemWaitKind Wait = MemWaitKind::Equals; ///< For MemWait.
};

/// True when \p Value satisfies the wait condition (\p Kind, \p Operand).
inline bool memWaitSatisfied(MemWaitKind Kind, Word Value, Word Operand) {
  switch (Kind) {
  case MemWaitKind::Equals:
    return Value == Operand;
  case MemWaitKind::BitClear:
    return (Value & Operand) == 0;
  }
  return true;
}

/// Execution phases for cycle attribution (paper Figure 5).
enum class Phase : uint8_t {
  Native,      ///< Non-transactional application work.
  TxInit,      ///< Transaction initialization (TXBegin).
  Buffering,   ///< Read/write-set and lock-log bookkeeping.
  Consistency, ///< Post-validation / consistency checking on reads.
  Locking,     ///< Acquiring and releasing commit locks.
  Commit,      ///< Validation at commit + write-back + clock update.
  NumPhases
};

inline constexpr unsigned NumPhases = static_cast<unsigned>(Phase::NumPhases);

/// Printable phase name.
inline const char *phaseName(Phase P) {
  switch (P) {
  case Phase::Native:
    return "native";
  case Phase::TxInit:
    return "tx-init";
  case Phase::Buffering:
    return "buffering";
  case Phase::Consistency:
    return "consistency";
  case Phase::Locking:
    return "locking";
  case Phase::Commit:
    return "commit";
  case Phase::NumPhases:
    break;
  }
  return "invalid";
}

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_OP_H
