//===- stm/Config.h - GPU-STM configuration ---------------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration for the GPU-STM runtime: the variant under test (the
/// paper's Figure 2 compares seven), metadata sizes, and log capacities.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_STM_CONFIG_H
#define GPUSTM_STM_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace gpustm {
namespace stm {

/// Protocol fault injection for the fuzzer's mutation tests (tools/stmfuzz;
/// DESIGN.md section 10).  Each switch disables one load-bearing step of
/// Algorithm 3 so tests can prove the fuzzer detects the resulting
/// serializability/opacity/progress violation.  All-off (the default) is
/// the correct protocol; never enable any of these outside tests.
struct StmFaults {
  /// Skip the line-31 stale-snapshot abort under pure TBV validation.
  bool IgnoreStaleSnapshot = false;
  /// Treat a failed commit-time TBV as passed (skip the line-76 VBV
  /// recovery filter and write back anyway).
  bool SkipCommitVbvFilter = false;
  /// Read through a held version lock instead of waiting (lines 27-29).
  bool SkipLockWait = false;
  /// Let STM-VBV begin on an odd (writer-mid-commit) sequence-lock value.
  bool SkipOddSeqWait = false;
  /// Do not log <addr, val> read pairs (line 25): validation goes blind.
  bool SkipReadLogging = false;
  /// Publish the begin snapshot instead of the new commit version when
  /// releasing written stripes (line 59): readers miss the conflict.
  bool PublishStaleVersion = false;
  /// Never release read-only stripes at commit (line 61): lock leak.
  bool LeakReadLocks = false;
  /// Skip the write-set bloom insert: read-own-write misses the buffer.
  bool SkipWriteBloomInsert = false;
  /// Drop the post-begin threadfence (line 5).  Invisible under the
  /// default sequentially consistent simulation (fences cost cycles but
  /// have no functional effect there); detected under GPUSTM_WMM=1, where
  /// the read phase can bind data older than the begin snapshot proved.
  bool SkipBeginFence = false;
  /// Drop the pre-publish threadfence (line 82): version locks release
  /// before the write-back is visible.  Like SkipBeginFence, only
  /// observable under the weak-memory mode (GPUSTM_WMM=1).
  bool SkipPublishFence = false;

  bool any() const {
    return IgnoreStaleSnapshot || SkipCommitVbvFilter || SkipLockWait ||
           SkipOddSeqWait || SkipReadLogging || PublishStaleVersion ||
           LeakReadLocks || SkipWriteBloomInsert || SkipBeginFence ||
           SkipPublishFence;
  }
};

/// Synchronization variants evaluated in the paper (Section 4.2).
enum class Variant : uint8_t {
  CGL,        ///< Coarse-grained lock baseline (single global spinlock).
  VBV,        ///< NOrec-like: single global sequence lock + value validation.
  TBVSorting, ///< TL2-like timestamp validation + encounter-time lock-sorting.
  HVSorting,  ///< Hierarchical validation + lock-sorting (the contribution).
  HVBackoff,  ///< Hierarchical validation + GPU-specific backoff locking.
  Optimized,  ///< Adaptive HV/TBV selection at startup + lock-sorting.
  EGPGV,      ///< Cederman-style blocking STM: one transaction per block.
};

/// Printable variant name (the paper's labels).
inline const char *variantName(Variant V) {
  switch (V) {
  case Variant::CGL:
    return "CGL";
  case Variant::VBV:
    return "STM-VBV";
  case Variant::TBVSorting:
    return "STM-TBV-Sorting";
  case Variant::HVSorting:
    return "STM-HV-Sorting";
  case Variant::HVBackoff:
    return "STM-HV-Backoff";
  case Variant::Optimized:
    return "STM-Optimized";
  case Variant::EGPGV:
    return "STM-EGPGV";
  }
  return "invalid";
}

/// Variant from a command-line or script token: a short alias ("cgl",
/// "vbv", "tbv", "hv", "backoff", "opt", "egpgv") or a paper name
/// ("STM-HV-Sorting").  False when \p Name is neither.
inline bool parseVariant(const std::string &Name, Variant &Out) {
  // Indexed by Variant.
  static const char *const Aliases[] = {"cgl",     "vbv", "tbv",  "hv",
                                        "backoff", "opt", "egpgv"};
  for (unsigned V = 0; V <= static_cast<unsigned>(Variant::EGPGV); ++V)
    if (Name == Aliases[V] || Name == variantName(static_cast<Variant>(V))) {
      Out = static_cast<Variant>(V);
      return true;
    }
  return false;
}

/// Validation policy resolved from the variant (Section 3.1).
enum class Validation : uint8_t {
  TBV, ///< Timestamp-based only: stale snapshot => abort.
  HV,  ///< Hierarchical: stale snapshot => value-based post-validation.
  VBV, ///< NOrec-style: values only, filtered by the global sequence lock.
};

/// Commit-time locking policy (Section 3.1 / 4.2).
enum class CommitLocking : uint8_t {
  Sorted,  ///< Encounter-time lock-sorting; global acquisition order.
  Backoff, ///< Unsorted logs + warp-serialized retry (STM-HV-Backoff).
};

/// STM runtime configuration (the arguments of STM_STARTUP in Figure 1).
struct StmConfig {
  Variant Kind = Variant::HVSorting;
  /// Global version locks (power of two; the paper uses 1M by default).
  size_t NumLocks = 1u << 20;
  /// Per-transaction read-set capacity (entries).
  unsigned ReadSetCap = 64;
  /// Per-transaction write-set capacity (entries).
  unsigned WriteSetCap = 64;
  /// Lock-log order-preserving hash table shape (buckets x capacity).
  unsigned LockLogBuckets = 16;
  unsigned LockLogBucketCap = 16;
  /// Amount of shared data (words) the kernels will access; drives the
  /// adaptive HV/TBV selection of STM-Optimized ("usually ... obtained by
  /// counting the elements of arrays before transaction kernels start").
  size_t SharedDataWords = 0;
  /// Warp-interleaved ("coalesced") log layout; false gives the per-thread
  /// contiguous layout for the coalescing ablation.
  bool CoalescedLogs = true;
  /// Run the optional pre-lock VBV of Algorithm 3 line 71 (reduces lock
  /// contention for HV variants).
  bool PreLockValidation = true;

  /// Ablation knob: keep lock-logs in encounter order even under the
  /// Sorted commit policy.  This reproduces the intra-warp circular-locking
  /// livelock of Section 2.2 that encounter-time lock-sorting eliminates
  /// (the run trips the simulator watchdog).  Never enable in real use.
  bool DisableSorting = false;

  /// Protocol mutations for fuzzer mutation tests.  All-off in real use.
  StmFaults Faults;

  /// Human-readable run label (the workload name) used in diagnostics such
  /// as log-overflow fatals; the harness fills it in automatically.
  std::string DebugName;

  /// The validation policy this variant resolves to.  STM-Optimized picks
  /// HV only when the shared data outnumbers the version locks (Section
  /// 4.2); otherwise false conflicts are rare and VBV would be wasted work.
  Validation validation() const {
    switch (Kind) {
    case Variant::VBV:
      return Validation::VBV;
    case Variant::TBVSorting:
      return Validation::TBV;
    case Variant::HVSorting:
    case Variant::HVBackoff:
      return Validation::HV;
    case Variant::Optimized:
      return SharedDataWords > NumLocks ? Validation::HV : Validation::TBV;
    case Variant::CGL:
    case Variant::EGPGV:
      break;
    }
    return Validation::TBV; // EGPGV commits under per-stripe locks.
  }

  /// The commit-locking policy this variant resolves to.  It is the only
  /// place the policy is decided; a runtime keeps it for its whole life.
  CommitLocking locking() const {
    return Kind == Variant::HVBackoff ? CommitLocking::Backoff
                                      : CommitLocking::Sorted;
  }
};

} // namespace stm
} // namespace gpustm

#endif // GPUSTM_STM_CONFIG_H
