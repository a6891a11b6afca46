//===- simt/Memory.h - Simulated GPU global memory --------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated GPU's global (off-chip) memory: a flat, word-addressed
/// arena.  GPU-STM (the paper's system) is a word-based STM, so all program
/// data and all STM metadata (the global lock table, the global clock, the
/// coalesced read/write logs, the per-transaction lock-logs) live here as
/// 32-bit words.  Addresses are word indices; the timing model groups
/// accesses into 128-byte segments (32 words) to model coalescing.
///
/// This class is purely functional; cycle costs are charged by the warp
/// round engine (Warp.cpp) which observes every access through ThreadCtx.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_MEMORY_H
#define GPUSTM_SIMT_MEMORY_H

#include "support/Error.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpustm {
namespace simt {

/// A global-memory address: an index of a 32-bit word in the arena.
using Addr = uint32_t;
/// The unit of storage and of STM conflict detection.
using Word = uint32_t;

/// Sentinel for "no address".
inline constexpr Addr InvalidAddr = ~Addr(0);

/// Flat word-addressed global memory with a bump allocator.
class Memory {
public:
  explicit Memory(size_t NumWords) : Words(NumWords, 0) {}

  size_t size() const { return Words.size(); }

  Word load(Addr A) const {
    assert(A < Words.size() && "global memory load out of bounds");
    return Words[A];
  }

  /// Host-cache prefetch hint for the word backing \p A.  Purely a host
  /// performance hint (no simulated cost, no effect on results): simulated
  /// code that knows its next few accesses can overlap the host cache miss
  /// with the intervening rounds.
  void prefetch(Addr A) const {
    if (A < Words.size())
      __builtin_prefetch(Words.data() + A);
  }

  void store(Addr A, Word V) {
    assert(A < Words.size() && "global memory store out of bounds");
    Words[A] = V;
  }

  /// *A |= V; returns the old value.
  Word atomicOr(Addr A, Word V) {
    Word Old = load(A);
    store(A, Old | V);
    return Old;
  }

  /// *A += V; returns the old value.
  Word atomicAdd(Addr A, Word V) {
    Word Old = load(A);
    store(A, Old + V);
    return Old;
  }

  /// Compare-and-swap; returns the old value (success iff old == Expected).
  Word atomicCAS(Addr A, Word Expected, Word Desired) {
    Word Old = load(A);
    if (Old == Expected)
      store(A, Desired);
    return Old;
  }

  /// *A = V; returns the old value.
  Word atomicExch(Addr A, Word V) {
    Word Old = load(A);
    store(A, V);
    return Old;
  }

  /// min-update; returns the old value.
  Word atomicMin(Addr A, Word V) {
    Word Old = load(A);
    if (V < Old)
      store(A, V);
    return Old;
  }

  /// Bump-allocate \p NumWords words (like cudaMalloc).  Never freed
  /// individually; reset() reclaims everything.
  Addr allocate(size_t NumWords) {
    if (AllocCursor + NumWords > Words.size())
      reportFatalError("simulated global memory exhausted");
    Addr Base = static_cast<Addr>(AllocCursor);
    AllocCursor += NumWords;
    return Base;
  }

  /// Number of words currently allocated.
  size_t allocated() const { return AllocCursor; }

  /// Zero all contents and reset the allocator.
  void reset() {
    std::fill(Words.begin(), Words.end(), 0);
    AllocCursor = 0;
  }

  /// Roll the allocator back to \p Mark (a value previously returned by
  /// allocated()) and zero everything from \p Mark up, exactly as if the
  /// arena had been freshly constructed and then bump-allocated to \p Mark.
  /// Contents below \p Mark are preserved; restoring them (to re-run a
  /// kernel warm) is the caller's job.  Subsequent allocate() calls return
  /// the same addresses the first pass got, which is what makes warm reuse
  /// bit-identical to a cold run.
  void rewind(size_t Mark) {
    if (Mark > AllocCursor)
      reportFatalError("Memory::rewind past the allocation cursor");
    std::fill(Words.begin() + static_cast<ptrdiff_t>(Mark), Words.end(), 0);
    AllocCursor = Mark;
  }

  /// Direct host-side access for initialization and result checking.
  Word *data() { return Words.data(); }
  const Word *data() const { return Words.data(); }

private:
  std::vector<Word> Words;
  size_t AllocCursor = 0;
};

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_MEMORY_H
