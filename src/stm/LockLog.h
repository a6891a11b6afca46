//===- stm/LockLog.h - Encounter-time lock-sorting --------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's key livelock-freedom mechanism (Section 3.1): "each
/// transaction maintains a local lock-log.  On each read/write, a lock is
/// inserted into a corresponding position in an already-sorted lock-log
/// ... we organize local lock-logs in order-preserving hash tables.  An
/// incoming lock is hashed into a bucket, and inserted into a corresponding
/// position afterwards."  Commit acquires locks in this global order, so
/// all transactions agree on acquisition order and circular locking inside
/// a warp (Section 2.2) cannot occur.
///
/// Entries are single words: (lockIndex << 2) | writeBit << 1 | readBit —
/// "The lowest two bits of each entry indicate whether the transaction has
/// written to, or read from the memory stripe managed by the global lock"
/// (Section 3.2.1).  The log lives in simulated global memory with the
/// coalesced per-warp layout, so insertion shifts cost real memory
/// operations — reproducing the paper's O(n^2) analysis, and the reduction
/// the hash buckets buy.
///
/// The order-preserving hash is the high bits of the lock index (bucket =
/// lockIndex >> BucketShift), so concatenating buckets yields a fully
/// sorted sequence.  STM-HV-Backoff uses Append mode: encounter order, no
/// sorting (its livelock defense is warp-serialized retry instead).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_STM_LOCKLOG_H
#define GPUSTM_STM_LOCKLOG_H

#include "simt/ThreadCtx.h"
#include "stm/TxLogs.h"
#include "support/Error.h"

#include <cassert>
#include <cstdint>

namespace gpustm {
namespace stm {

using simt::Addr;
using simt::ThreadCtx;
using simt::Word;

/// Per-transaction lock-log (see file comment).  The bucket counters live
/// in registers; the entries live in simulated global memory.
class LockLog {
public:
  static constexpr unsigned MaxBuckets = 64;

  enum class Mode : uint8_t {
    Sorted, ///< Order-preserving hash table (encounter-time lock-sorting).
    Append, ///< Encounter order (STM-HV-Backoff / ablation baseline).
  };

  /// Bind this log to its storage.  \p Storage must provide
  /// Buckets * BucketCap entries per lane; \p BucketShift is
  /// log2(NumLocks / Buckets) so that high bits order the buckets.
  void configure(const LogView &Storage, unsigned Lane, unsigned Buckets,
                 unsigned BucketCap, unsigned BucketShift, Mode M) {
    assert(Buckets >= 1 && Buckets <= MaxBuckets && "bad bucket count");
    this->Storage = Storage;
    this->Lane = Lane;
    this->Buckets = M == Mode::Append ? 1 : Buckets;
    this->BucketCap = M == Mode::Append ? Buckets * BucketCap : BucketCap;
    this->BucketShift = BucketShift;
    this->LogMode = M;
    clear();
  }

  /// Forget all entries (register writes only).
  void clear() {
    for (unsigned B = 0; B < Buckets; ++B)
      Counts[B] = 0;
    Total = 0;
  }

  /// Number of distinct locks recorded.
  unsigned size() const { return Total; }

  /// Record that this transaction read (\p Rd) and/or wrote (\p Wr) the
  /// stripe guarded by \p LockIdx.  Duplicates merge their bits in place.
  void insert(ThreadCtx &Ctx, Word LockIdx, bool Wr, bool Rd) {
    unsigned B =
        LogMode == Mode::Sorted ? bucketOf(LockIdx) : 0;
    Word NewEntry = (LockIdx << 2) | (Wr ? 2u : 0u) | (Rd ? 1u : 0u);

    unsigned Pos = Counts[B];
    if (LogMode == Mode::Sorted) {
      // Binary-search the insertion point (each probe is a real memory
      // load); merge bits when the lock already exists.  Shifting still
      // costs O(n) traffic for out-of-order arrivals, but in-order
      // encounter sequences (common for array walks) become appends.
      unsigned Lo = 0, Hi = Counts[B];
      while (Lo < Hi) {
        unsigned Mid = (Lo + Hi) / 2;
        Word E = Ctx.load(slotAddr(B, Mid));
        if ((E >> 2) < LockIdx)
          Lo = Mid + 1;
        else
          Hi = Mid;
      }
      Pos = Lo;
      if (Pos < Counts[B]) {
        Word E = Ctx.load(slotAddr(B, Pos));
        if ((E >> 2) == LockIdx) {
          Word Merged = E | NewEntry;
          if (Merged != E)
            Ctx.store(slotAddr(B, Pos), Merged);
          return;
        }
      }
      if (Counts[B] >= BucketCap)
        reportFatalError("lock-log bucket overflow: raise LockLogBucketCap "
                         "or LockLogBuckets in StmConfig");
      // Shift larger entries one slot down (real memory traffic; this is
      // the O(n) insertion the hash buckets amortize).
      for (unsigned S = Counts[B]; S > Pos; --S) {
        Word E = Ctx.load(slotAddr(B, S - 1));
        Ctx.store(slotAddr(B, S), E);
      }
    } else {
      // Append mode: linear dedup scan, then append.
      for (unsigned S = 0; S < Counts[B]; ++S) {
        Word E = Ctx.load(slotAddr(B, S));
        if ((E >> 2) == LockIdx) {
          Word Merged = E | NewEntry;
          if (Merged != E)
            Ctx.store(slotAddr(B, S), Merged);
          return;
        }
      }
      if (Counts[B] >= BucketCap)
        reportFatalError("lock-log overflow: raise LockLogBucketCap or "
                         "LockLogBuckets in StmConfig");
    }
    Ctx.store(slotAddr(B, Pos), NewEntry);
    ++Counts[B];
    ++Total;
  }

  /// Visit the first \p Limit entries in acquisition order; \p F receives
  /// (lockIdx, writeBit, readBit) and returns false to stop early.
  /// Returns the number of entries visited.
  template <typename FnT>
  unsigned forEachUntil(ThreadCtx &Ctx, unsigned Limit, FnT F) const {
    unsigned Visited = 0;
    for (unsigned B = 0; B < Buckets && Visited < Limit; ++B) {
      for (unsigned S = 0; S < Counts[B] && Visited < Limit; ++S) {
        Word E = Ctx.load(slotAddr(B, S));
        ++Visited;
        if (!F(E >> 2, (E & 2u) != 0, (E & 1u) != 0))
          return Visited;
      }
    }
    return Visited;
  }

  /// Visit every entry in acquisition order.
  template <typename FnT> void forEach(ThreadCtx &Ctx, FnT F) const {
    forEachUntil(Ctx, Total, [&F](Word Idx, bool Wr, bool Rd) {
      F(Idx, Wr, Rd);
      return true;
    });
  }

private:
  unsigned bucketOf(Word LockIdx) const {
    unsigned B = static_cast<unsigned>(LockIdx >> BucketShift);
    return B < Buckets ? B : Buckets - 1;
  }

  Addr slotAddr(unsigned B, unsigned S) const {
    return Storage.slot(Lane, B * BucketCap + S);
  }

  LogView Storage;
  unsigned Lane = 0;
  unsigned Buckets = 1;
  unsigned BucketCap = 0;
  unsigned BucketShift = 0;
  Mode LogMode = Mode::Sorted;
  uint16_t Counts[MaxBuckets] = {};
  unsigned Total = 0;
};

} // namespace stm
} // namespace gpustm

#endif // GPUSTM_STM_LOCKLOG_H
