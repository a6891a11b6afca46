//===- fuzz/FuzzProgram.h - Random transactional programs -------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FuzzProgram is a fully seed-determined random transactional kernel:
/// tasks of transactions over a small shared array, with random read/write
/// mixes and footprints, valid()-guarded divergence, mixed transactional
/// and native (task-private) accesses, and a randomized launch shape and
/// StmConfig.  The same little interpreter runs the program both on the
/// simulated device (FuzzWorkload::runTask) and in the host-side
/// sequential oracle (FuzzWorkload::verify), which replays committed
/// transactions in LastCommitVersion order; any step the two disagree on
/// is a bug in the STM, the simulator, or the oracle's serialization
/// assumption.  See DESIGN.md section 10.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_FUZZ_FUZZPROGRAM_H
#define GPUSTM_FUZZ_FUZZPROGRAM_H

#include "simt/Memory.h"
#include "stm/Config.h"
#include "support/Random.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gpustm {
namespace fuzz {

using simt::Addr;
using simt::Word;

/// One transactional operation inside a transaction body.
enum class FuzzOpKind : uint8_t {
  TxRead,  ///< Acc = mix(Acc, T.read(idx))
  TxWrite, ///< T.write(idx, writeValue(Acc))
  TxRmw,   ///< v = T.read(idx); T.write(idx, v + Val); Acc = mix(Acc, v)
};

struct FuzzOp {
  FuzzOpKind Kind = FuzzOpKind::TxRead;
  /// Base slot; the effective index is slot arithmetic mod SharedWords.
  uint32_t Slot = 0;
  /// Salt mixed into values (and the TxRmw addend).
  uint32_t Val = 0;
  /// Data-dependent addressing: the index also depends on the running
  /// accumulator, so conflicting histories visit different footprints.
  bool AccAddr = false;
  /// Accumulator span for AccAddr (effective index wanders this far).
  uint32_t Span = 1;
};

/// One native (non-transactional) operation preceding a transaction.
enum class FuzzPreOpKind : uint8_t {
  NativeLoad,  ///< Acc = mix(Acc, load(own private slot))
  NativeStore, ///< store(own private slot, Acc ^ Val)
  Compute,     ///< Ctx.compute(1 + Val % 8)
};

struct FuzzPreOp {
  FuzzPreOpKind Kind = FuzzPreOpKind::Compute;
  uint32_t Slot = 0;
  uint32_t Val = 0;
};

/// One transaction of a task.
struct FuzzTx {
  std::vector<FuzzPreOp> PreOps;
  std::vector<FuzzOp> Ops;
  /// No writes; the accumulator is not persisted (the committed history of
  /// a read-only transaction must be invisible).
  bool ReadOnly = false;
  /// Exercise Tx::abort(): the first attempt aborts explicitly (skipped
  /// under CGL, whose direct mode cannot abort).
  bool AbortFirstAttempt = false;
};

/// One task: the unit the harness maps onto simulated threads (or blocks,
/// for STM-EGPGV).  Tasks run their transactions in program order.
struct FuzzTask {
  std::vector<FuzzTx> Txs;
};

/// A complete seed-determined fuzz case: program + launch + StmConfig.
struct FuzzProgram {
  uint64_t Seed = 0;

  // Memory shape.
  unsigned SharedWords = 16; ///< Transactionally shared array (contended).
  unsigned PrivWords = 4;    ///< Task-private native slots (per task).

  // Launch shape.
  unsigned GridDim = 1;
  unsigned BlockDim = 32;
  unsigned NumTasks = 32;
  /// Journal stride: max transactions of any task (capacity, not count).
  unsigned MaxTxPerTask = 4;

  // StmConfig knobs under test.
  size_t NumLocks = 1u << 6;
  unsigned ReadSetCap = 64;
  unsigned WriteSetCap = 64;
  unsigned LockLogBuckets = 16;
  unsigned LockLogBucketCap = 16;
  bool CoalescedLogs = true;
  bool PreLockValidation = true;

  // Device shape.
  unsigned NumSMs = 2;
  unsigned WarpSize = 32;
  /// Schedule perturbation seed (0 = the default deterministic schedule).
  uint64_t SchedFuzzSeed = 0;

  uint32_t NativeComputePerTask = 0;

  std::vector<FuzzTask> Tasks;
  /// Initial contents of the shared array.
  std::vector<Word> InitShared;

  /// Transactions across all tasks.
  unsigned totalTxs() const {
    unsigned N = 0;
    for (const FuzzTask &T : Tasks)
      N += static_cast<unsigned>(T.Txs.size());
    return N;
  }
  /// Operations across all transactions (shrinker progress metric).
  size_t totalOps() const {
    size_t N = 0;
    for (const FuzzTask &T : Tasks)
      for (const FuzzTx &Tx : T.Txs)
        N += Tx.PreOps.size() + Tx.Ops.size();
    return N;
  }

  /// One-line shape summary for failure reports.
  std::string summary() const;
};

/// Generate the program for \p Seed (pure function of the seed).
FuzzProgram generateProgram(uint64_t Seed);

//===----------------------------------------------------------------------===//
// The shared interpreter steps (device and oracle must match exactly).
//===----------------------------------------------------------------------===//

/// Accumulator mix (Knuth multiplicative hash step keyed by a salt).
inline Word fuzzMix(Word Acc, Word V, uint32_t Salt) {
  return Acc * 2654435761u + V + Salt;
}

/// Initial accumulator of a task.
inline Word fuzzTaskSeed(uint64_t Seed, unsigned Task) {
  uint64_t S = Seed ^ (static_cast<uint64_t>(Task) * 0x9e3779b97f4a7c15ULL);
  return static_cast<Word>(splitMix64(S));
}

/// Effective shared-array index of \p Op given the accumulator.
inline unsigned fuzzSharedIndex(const FuzzOp &Op, Word Acc,
                                unsigned SharedWords) {
  unsigned Base = Op.Slot % SharedWords;
  if (!Op.AccAddr)
    return Base;
  unsigned Span = Op.Span == 0 ? 1 : Op.Span;
  return (Base + static_cast<unsigned>(Acc % Span)) % SharedWords;
}

/// Value a TxWrite stores.
inline Word fuzzWriteValue(Word Acc, uint32_t Salt) {
  return Acc ^ (Salt * 0x85ebca6bu);
}

/// Effective private-slot offset (within the task's PrivWords window).
inline unsigned fuzzPrivSlot(const FuzzPreOp &Op, unsigned PrivWords) {
  return Op.Slot % PrivWords;
}

} // namespace fuzz
} // namespace gpustm

#endif // GPUSTM_FUZZ_FUZZPROGRAM_H
