//===- analysis/static/Lint.cpp - Pre-launch static checks ----------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/static/Lint.h"

#include "stm/ConfigCheck.h"
#include "support/Format.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

using namespace gpustm;
using namespace gpustm::staticlint;
using simt::Addr;

namespace {

bool inCapacityChannel(const AccessRange &R) {
  return R.Chan != Channel::ConflictOnly;
}

bool inConflictChannel(const AccessRange &R) {
  return R.Chan != Channel::CapacityOnly;
}

//===----------------------------------------------------------------------===//
// Capacity analysis
//===----------------------------------------------------------------------===//

/// Worst-case log occupancy of one transaction under \p SC.
struct TxNeeds {
  unsigned ReadLog = 0;
  unsigned WriteLog = 0;
  unsigned LockTotal = 0;   ///< Distinct lock stripes.
  unsigned WorstBucket = 0; ///< Fullest sorted lock-log bucket.
};

/// Bucket hash parameters mirroring StmRuntime's order-preserving hash.
struct BucketMap {
  size_t NumLocks = 0;
  unsigned Buckets = 0;
  unsigned Shift = 0;

  explicit BucketMap(const stm::StmConfig &SC) {
    NumLocks = SC.NumLocks;
    Buckets = SC.LockLogBuckets;
    unsigned LockBits = log2Floor(SC.NumLocks);
    unsigned BucketBits = log2Floor(nextPowerOf2(SC.LockLogBuckets));
    Shift = LockBits > BucketBits ? LockBits - BucketBits : 0;
  }

  unsigned bucketOf(uint64_t Stripe) const {
    uint64_t B = Stripe >> Shift;
    return B < Buckets ? static_cast<unsigned>(B) : Buckets - 1;
  }

  /// Stripe range [Lo, Hi) covered by bucket \p B (the last bucket absorbs
  /// the tail).
  void bucketRange(unsigned B, uint64_t &Lo, uint64_t &Hi) const {
    Lo = static_cast<uint64_t>(B) << Shift;
    Hi = B + 1 == Buckets ? NumLocks
                          : std::min<uint64_t>(
                                static_cast<uint64_t>(B + 1) << Shift,
                                NumLocks);
  }
};

/// Adds a widened access's worst-case stripe load: up to \p Count distinct
/// stripes within the circular stripe interval starting at \p LoStripe of
/// length \p SpanLen.
void addStripeInterval(const BucketMap &BM, uint64_t LoStripe, uint64_t SpanLen,
                       uint64_t Count, std::vector<unsigned> &PerBucket) {
  // Split the circular interval into <= 2 linear segments.
  uint64_t Seg[2][2];
  unsigned NumSeg = 0;
  uint64_t End = LoStripe + SpanLen;
  if (End <= BM.NumLocks) {
    Seg[NumSeg][0] = LoStripe;
    Seg[NumSeg++][1] = End;
  } else {
    Seg[NumSeg][0] = LoStripe;
    Seg[NumSeg++][1] = BM.NumLocks;
    Seg[NumSeg][0] = 0;
    Seg[NumSeg++][1] = End - BM.NumLocks;
  }
  for (unsigned B = 0; B < BM.Buckets; ++B) {
    uint64_t BLo, BHi;
    BM.bucketRange(B, BLo, BHi);
    uint64_t Overlap = 0;
    for (unsigned I = 0; I < NumSeg; ++I) {
      uint64_t Lo = std::max(Seg[I][0], BLo);
      uint64_t Hi = std::min(Seg[I][1], BHi);
      if (Hi > Lo)
        Overlap += Hi - Lo;
    }
    if (Overlap)
      PerBucket[B] += static_cast<unsigned>(std::min<uint64_t>(Count, Overlap));
  }
}

TxNeeds computeTxNeeds(const TxFootprint &Tx, const stm::StmConfig &SC,
                       const BucketMap &BM, bool NeedsLockLog) {
  TxNeeds N;
  std::unordered_set<Addr> ExactWrites;
  std::unordered_set<uint64_t> ExactStripes;
  unsigned WidenedWrites = 0;
  unsigned WidenedLocks = 0;
  std::vector<unsigned> PerBucket(SC.LockLogBuckets, 0);
  uint64_t Mask = SC.NumLocks - 1;

  for (const AccessRange &R : Tx.Accesses) {
    if (!inCapacityChannel(R))
      continue;
    if (R.Read) {
      // A read whose exact address was already written by this
      // transaction hits the own-write buffer and is not logged.
      if (R.Widened)
        N.ReadLog += R.Count;
      else if (!ExactWrites.count(R.Base))
        ++N.ReadLog;
    }
    if (R.Write) {
      if (R.Widened)
        WidenedWrites += R.Count;
      else
        ExactWrites.insert(R.Base);
    }
    if (NeedsLockLog) {
      if (R.Widened) {
        uint64_t SpanLen = std::min<uint64_t>(R.Len, SC.NumLocks);
        uint64_t Count = std::min<uint64_t>(R.Count, SC.NumLocks);
        addStripeInterval(BM, R.Base & Mask, SpanLen, Count, PerBucket);
        WidenedLocks += static_cast<unsigned>(std::min(Count, SpanLen));
      } else {
        ExactStripes.insert(R.Base & Mask);
      }
    }
  }
  N.WriteLog = static_cast<unsigned>(ExactWrites.size()) + WidenedWrites;
  if (NeedsLockLog) {
    for (uint64_t S : ExactStripes)
      PerBucket[BM.bucketOf(S)] += 1;
    for (unsigned C : PerBucket)
      N.WorstBucket = std::max(N.WorstBucket, C);
    // Total counts each widened access once (PerBucket intentionally
    // charges it to every bucket it might land in, which is only a
    // per-bucket bound, not a sum).
    N.LockTotal = static_cast<unsigned>(ExactStripes.size()) + WidenedLocks;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Conflict-pair enumeration
//===----------------------------------------------------------------------===//

/// One (task, write?) occurrence within an address or stripe group.
struct Entry {
  uint32_t TaskIdx = 0;
  uint32_t Thread = 0;
  bool W = false;
};

using Groups = std::unordered_map<uint64_t, std::vector<Entry>>;

void appendEntry(std::vector<Entry> &List, uint32_t TaskIdx, uint32_t Thread,
                 bool W) {
  // Tasks are replayed in order, so same-task occurrences in one group are
  // contiguous unless a task revisits the group via a different address;
  // duplicates are harmless for pair counting.
  if (!List.empty() && List.back().TaskIdx == TaskIdx) {
    List.back().W |= W;
    return;
  }
  List.push_back({TaskIdx, Thread, W});
}

/// Collect conflict-channel accesses of \p K into groups keyed by
/// \p keyOf(address).  Widened ranges expand to every covered word.
template <typename KeyFn>
Groups collectGroups(const KernelSummary &K, KeyFn keyOf) {
  Groups G;
  for (uint32_t I = 0; I < K.Tasks.size(); ++I) {
    const TaskFootprint &T = K.Tasks[I];
    for (const TxFootprint &Tx : T.Txs)
      for (const AccessRange &R : Tx.Accesses) {
        if (!inConflictChannel(R))
          continue;
        for (uint64_t Off = 0; Off < R.Len; ++Off)
          appendEntry(G[keyOf(R.Base + Off)], I, T.Thread, R.Write);
      }
  }
  return G;
}

/// Distinct cross-thread task pairs with a write/read-or-write collision
/// in some group.
uint64_t countConflictPairs(const Groups &G) {
  std::unordered_set<uint64_t> Keys;
  for (const auto &[Key, List] : G) {
    (void)Key;
    for (size_t P = 0; P < List.size(); ++P)
      for (size_t Q = P + 1; Q < List.size(); ++Q) {
        const Entry &A = List[P];
        const Entry &B = List[Q];
        if (A.Thread == B.Thread || (!A.W && !B.W))
          continue;
        uint64_t Lo = std::min(A.TaskIdx, B.TaskIdx);
        uint64_t Hi = std::max(A.TaskIdx, B.TaskIdx);
        Keys.insert((Lo << 32) | Hi);
      }
  }
  return Keys.size();
}

/// All unordered task pairs whose threads differ.
uint64_t countCrossThreadPairs(const KernelSummary &K) {
  std::unordered_map<uint32_t, uint64_t> PerThread;
  uint64_t N = K.Tasks.size();
  for (const TaskFootprint &T : K.Tasks)
    ++PerThread[T.Thread];
  uint64_t Pairs = N * (N - 1) / 2;
  for (const auto &[Thread, C] : PerThread) {
    (void)Thread;
    Pairs -= C * (C - 1) / 2;
  }
  return Pairs;
}

/// Regroup address-level groups by stripe under \p NumLocks and count
/// colliding pairs.
uint64_t countStripePairs(const Groups &ByAddr, size_t NumLocks) {
  uint64_t Mask = NumLocks - 1;
  Groups ByStripe;
  for (const auto &[A, List] : ByAddr) {
    std::vector<Entry> &Dst = ByStripe[A & Mask];
    for (const Entry &E : List)
      appendEntry(Dst, E.TaskIdx, E.Thread, E.W);
  }
  return countConflictPairs(ByStripe);
}

//===----------------------------------------------------------------------===//
// Isolation
//===----------------------------------------------------------------------===//

/// Sorted, disjoint [Lo, Hi) intervals covering every transactional
/// (conflict-channel) word of a kernel.
std::vector<std::pair<Addr, Addr>> txIntervals(const KernelSummary &K) {
  std::vector<std::pair<Addr, Addr>> Iv;
  for (const TaskFootprint &T : K.Tasks)
    for (const TxFootprint &Tx : T.Txs)
      for (const AccessRange &R : Tx.Accesses)
        if (inConflictChannel(R))
          Iv.push_back({R.Base, R.Base + R.Len});
  std::sort(Iv.begin(), Iv.end());
  std::vector<std::pair<Addr, Addr>> Merged;
  for (const auto &[Lo, Hi] : Iv) {
    if (!Merged.empty() && Lo <= Merged.back().second)
      Merged.back().second = std::max(Merged.back().second, Hi);
    else
      Merged.push_back({Lo, Hi});
  }
  return Merged;
}

bool overlapsIntervals(const std::vector<std::pair<Addr, Addr>> &Iv, Addr Lo,
                       Addr Hi) {
  // First interval whose end is past Lo.
  auto It = std::upper_bound(
      Iv.begin(), Iv.end(), Lo,
      [](Addr A, const std::pair<Addr, Addr> &P) { return A < P.second; });
  return It != Iv.end() && It->first < Hi;
}

/// Confirms a candidate overlap is cross-thread: some transaction of a
/// task on a different thread than \p Thread touches [Lo, Hi).
bool crossThreadTxOverlap(const KernelSummary &K, uint32_t Thread, Addr Lo,
                          Addr Hi, Addr &Witness) {
  for (const TaskFootprint &T : K.Tasks) {
    if (T.Thread == Thread)
      continue;
    for (const TxFootprint &Tx : T.Txs)
      for (const AccessRange &R : Tx.Accesses) {
        if (!inConflictChannel(R))
          continue;
        Addr OLo = std::max(Lo, R.Base);
        Addr OHi = std::min(Hi, static_cast<Addr>(R.Base + R.Len));
        if (OLo < OHi) {
          Witness = OLo;
          return true;
        }
      }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Ordering
//===----------------------------------------------------------------------===//

/// True when some transaction's first-occurrence stripe sequence is not
/// monotonically non-decreasing (append-mode acquisition order).
bool hasUnsortedAcquire(const KernelSummary &K, size_t NumLocks,
                        unsigned &BadTxs) {
  uint64_t Mask = NumLocks - 1;
  BadTxs = 0;
  for (const TaskFootprint &T : K.Tasks)
    for (const TxFootprint &Tx : T.Txs) {
      std::unordered_set<uint64_t> Seen;
      uint64_t Last = 0;
      bool Have = false, Bad = false;
      for (const AccessRange &R : Tx.Accesses) {
        if (!inConflictChannel(R))
          continue;
        uint64_t S = R.Base & Mask;
        if (!Seen.insert(S).second)
          continue;
        if (Have && S < Last) {
          Bad = true;
          break;
        }
        Last = S;
        Have = true;
      }
      BadTxs += Bad ? 1 : 0;
    }
  return BadTxs != 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// lintSummaries
//===----------------------------------------------------------------------===//

LintReport staticlint::lintSummaries(const std::string &WorkloadName,
                                     const stm::StmConfig &SC,
                                     const std::vector<KernelSummary> &Kernels) {
  LintReport Rep;
  Rep.Workload = WorkloadName;
  Rep.Kind = SC.Kind;
  Rep.NumLocks = SC.NumLocks;

  if (std::string Err = stm::validateStmConfig(SC); !Err.empty()) {
    Rep.Findings.push_back(
        {"config.invalid", Severity::Error, -1, Err});
    return Rep; // Caps may be nonsense; nothing else is meaningful.
  }

  bool IsCgl = SC.Kind == stm::Variant::CGL;
  bool HasLockLog =
      !IsCgl && SC.validation() != stm::Validation::VBV;
  bool CheckSorted = HasLockLog &&
                     SC.locking() == stm::CommitLocking::Sorted &&
                     !SC.DisableSorting;
  bool CheckAppend = HasLockLog && !CheckSorted;
  unsigned AppendCap = SC.LockLogBuckets * SC.LockLogBucketCap;
  BucketMap BM(SC);

  for (const KernelSummary &K : Kernels) {
    KernelLintMetrics M;
    M.Kernel = K.Kernel;
    M.NumTasks = K.NumTasks;

    // (a) Worst-case log occupancy vs caps.
    struct Worst {
      unsigned Need = 0;
      unsigned Task = 0;
      unsigned Tx = 0;
    } WR, WW, WB, WT;
    for (const TaskFootprint &T : K.Tasks)
      for (size_t TxI = 0; TxI < T.Txs.size(); ++TxI) {
        ++M.NumTxs;
        TxNeeds N = computeTxNeeds(T.Txs[TxI], SC, BM, HasLockLog);
        auto Track = [&](Worst &W, unsigned Need) {
          if (Need > W.Need) {
            W.Need = Need;
            W.Task = T.Task;
            W.Tx = static_cast<unsigned>(TxI);
          }
        };
        Track(WR, N.ReadLog);
        Track(WW, N.WriteLog);
        Track(WB, N.WorstBucket);
        Track(WT, N.LockTotal);
      }
    M.WorstReadLog = WR.Need;
    M.WorstWriteLog = WW.Need;
    M.WorstLockBucket = WB.Need;
    M.WorstLockTotal = WT.Need;

    // CGL takes the single global lock and keeps no logs at all.
    if (!IsCgl) {
      if (WR.Need > SC.ReadSetCap)
        Rep.Findings.push_back(
            {"capacity.read-log", Severity::Error, static_cast<int>(K.Kernel),
             formatString("worst-case read log needs %u entries but "
                          "ReadSetCap is %u (task %u, tx %u)",
                          WR.Need, SC.ReadSetCap, WR.Task, WR.Tx)});
      if (WW.Need > SC.WriteSetCap)
        Rep.Findings.push_back(
            {"capacity.write-log", Severity::Error, static_cast<int>(K.Kernel),
             formatString("worst-case write log needs %u entries but "
                          "WriteSetCap is %u (task %u, tx %u)",
                          WW.Need, SC.WriteSetCap, WW.Task, WW.Tx)});
      if (CheckSorted && WB.Need > SC.LockLogBucketCap)
        Rep.Findings.push_back(
            {"capacity.lock-log", Severity::Error, static_cast<int>(K.Kernel),
             formatString("worst-case sorted lock-log bucket needs %u "
                          "entries but LockLogBucketCap is %u (task %u, "
                          "tx %u)",
                          WB.Need, SC.LockLogBucketCap, WB.Task, WB.Tx)});
      if (CheckAppend && WT.Need > AppendCap)
        Rep.Findings.push_back(
            {"capacity.lock-log", Severity::Error, static_cast<int>(K.Kernel),
             formatString("worst-case lock log needs %u entries but the "
                          "append-mode log holds %u (task %u, tx %u)",
                          WT.Need, AppendCap, WT.Task, WT.Tx)});
    }

    // (e) Conflict density, (b) striping.
    Groups ByAddr = collectGroups(K, [](Addr A) { return uint64_t(A); });
    M.CrossThreadPairs = countCrossThreadPairs(K);
    M.ConflictPairs = countConflictPairs(ByAddr);
    M.StripeConflictPairs = countStripePairs(ByAddr, SC.NumLocks);
    if (M.CrossThreadPairs) {
      M.PredictedDensity =
          double(M.ConflictPairs) / double(M.CrossThreadPairs);
      M.FalseConflictRate =
          double(M.StripeConflictPairs - M.ConflictPairs) /
          double(M.CrossThreadPairs);
    }
    // Recommend the smallest stripe count (doubling from the configured
    // one) whose false-conflict excess is under 10% of true conflicts.
    M.RecommendedLocks = SC.NumLocks;
    uint64_t FalsePairs = M.StripeConflictPairs - M.ConflictPairs;
    uint64_t Tolerable = std::max<uint64_t>(M.ConflictPairs / 10, 1);
    for (unsigned Step = 0; FalsePairs > Tolerable && Step < 8 &&
                            M.RecommendedLocks < (size_t(1) << 22);
         ++Step) {
      M.RecommendedLocks *= 2;
      FalsePairs =
          countStripePairs(ByAddr, M.RecommendedLocks) - M.ConflictPairs;
    }
    if (M.FalseConflictRate > 0.01 &&
        M.StripeConflictPairs - M.ConflictPairs > M.ConflictPairs)
      Rep.Findings.push_back(
          {"stripe.collision", Severity::Warning, static_cast<int>(K.Kernel),
           formatString("lock table with %zu stripes folds unrelated "
                        "addresses: predicted false-conflict rate %.4f "
                        "exceeds the true rate %.4f; recommend %zu stripes",
                        SC.NumLocks, M.FalseConflictRate, M.PredictedDensity,
                        M.RecommendedLocks)});

    // (c) Strong isolation: native writes into transactional footprints.
    std::vector<std::pair<Addr, Addr>> Iv = txIntervals(K);
    uint64_t Overlaps = 0;
    Addr FirstAddr = simt::InvalidAddr;
    unsigned FirstTask = 0;
    for (const TaskFootprint &T : K.Tasks)
      for (const AccessRange &R : T.Native) {
        if (!R.Write)
          continue;
        if (!overlapsIntervals(Iv, R.Base, R.Base + R.Len))
          continue;
        Addr Witness;
        if (crossThreadTxOverlap(K, T.Thread, R.Base, R.Base + R.Len,
                                 Witness)) {
          if (!Overlaps) {
            FirstAddr = Witness;
            FirstTask = T.Task;
          }
          ++Overlaps;
        }
      }
    if (Overlaps)
      Rep.Findings.push_back(
          {"isolation.native-overlap", Severity::Error,
           static_cast<int>(K.Kernel),
           formatString("%llu native write(s) land inside another thread's "
                        "transactional footprint (first: @%llu, task %u); "
                        "strong isolation does not hold",
                        static_cast<unsigned long long>(Overlaps),
                        static_cast<unsigned long long>(FirstAddr),
                        FirstTask)});

    // (d) Static deadlock/livelock-freedom of commit locking.
    if (HasLockLog && SC.locking() == stm::CommitLocking::Sorted &&
        SC.DisableSorting) {
      unsigned BadTxs = 0;
      if (hasUnsortedAcquire(K, SC.NumLocks, BadTxs) &&
          M.StripeConflictPairs > 0)
        Rep.Findings.push_back(
            {"order.unsorted-acquire", Severity::Warning,
             static_cast<int>(K.Kernel),
             formatString("lock sorting is disabled but %u transaction(s) "
                          "acquire conflicting stripes out of order; "
                          "concurrent commits can livelock (re-enable "
                          "sorting or use the backoff policy)",
                          BadTxs)});
    }

    Rep.Kernels.push_back(M);
  }
  return Rep;
}

//===----------------------------------------------------------------------===//
// Printing and JSON
//===----------------------------------------------------------------------===//

void staticlint::printLintReport(std::FILE *Out, const LintReport &Rep) {
  std::fprintf(Out, "stmlint %-4s %-16s locks=%zu: %u error(s), %u warning(s)\n",
               Rep.Workload.c_str(), stm::variantName(Rep.Kind), Rep.NumLocks,
               Rep.errors(), Rep.warnings());
  for (const KernelLintMetrics &M : Rep.Kernels)
    std::fprintf(Out,
                 "  kernel %u: tasks=%u txs=%u worst read/write/lock-bucket "
                 "log %u/%u/%u, density %.6f (false %.6f, recommend %zu "
                 "stripes)\n",
                 M.Kernel, M.NumTasks, M.NumTxs, M.WorstReadLog,
                 M.WorstWriteLog, M.WorstLockBucket, M.PredictedDensity,
                 M.FalseConflictRate, M.RecommendedLocks);
  for (const LintFinding &F : Rep.Findings) {
    if (F.Kernel >= 0)
      std::fprintf(Out, "  %s: %s: kernel %d: %s\n", severityName(F.Sev),
                   F.CheckId.c_str(), F.Kernel, F.Message.c_str());
    else
      std::fprintf(Out, "  %s: %s: %s\n", severityName(F.Sev),
                   F.CheckId.c_str(), F.Message.c_str());
  }
}

namespace {

void jsonEscape(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
}

} // namespace

std::string staticlint::lintReportJson(const LintReport &Rep) {
  std::string J = "{\"workload\":\"";
  jsonEscape(J, Rep.Workload);
  J += formatString("\",\"variant\":\"%s\",\"num_locks\":%zu,"
                    "\"errors\":%u,\"warnings\":%u,\"findings\":[",
                    stm::variantName(Rep.Kind), Rep.NumLocks, Rep.errors(),
                    Rep.warnings());
  for (size_t I = 0; I < Rep.Findings.size(); ++I) {
    const LintFinding &F = Rep.Findings[I];
    J += I ? "," : "";
    J += formatString("{\"check\":\"%s\",\"severity\":\"%s\",\"kernel\":%d,"
                      "\"message\":\"",
                      F.CheckId.c_str(), severityName(F.Sev), F.Kernel);
    jsonEscape(J, F.Message);
    J += "\"}";
  }
  J += "],\"kernels\":[";
  for (size_t I = 0; I < Rep.Kernels.size(); ++I) {
    const KernelLintMetrics &M = Rep.Kernels[I];
    J += I ? "," : "";
    J += formatString(
        "{\"kernel\":%u,\"tasks\":%u,\"txs\":%u,\"worst_read_log\":%u,"
        "\"worst_write_log\":%u,\"worst_lock_bucket\":%u,"
        "\"worst_lock_total\":%u,\"cross_thread_pairs\":%llu,"
        "\"conflict_pairs\":%llu,\"stripe_conflict_pairs\":%llu,"
        "\"predicted_density\":%.8f,\"false_conflict_rate\":%.8f,"
        "\"recommended_locks\":%zu}",
        M.Kernel, M.NumTasks, M.NumTxs, M.WorstReadLog, M.WorstWriteLog,
        M.WorstLockBucket, M.WorstLockTotal,
        static_cast<unsigned long long>(M.CrossThreadPairs),
        static_cast<unsigned long long>(M.ConflictPairs),
        static_cast<unsigned long long>(M.StripeConflictPairs),
        M.PredictedDensity, M.FalseConflictRate, M.RecommendedLocks);
  }
  J += "]}";
  return J;
}

bool staticlint::writeLintJson(const std::vector<LintReport> &Reports,
                               const std::string &Path, std::string *Err) {
  std::string Doc = "{\"schema\":\"gpustm-stmlint-v1\",\"cells\":[";
  for (size_t I = 0; I < Reports.size(); ++I) {
    Doc += I ? "," : "";
    Doc += lintReportJson(Reports[I]);
  }
  Doc += "]}\n";
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Path + ": " + std::strerror(errno);
    return false;
  }
  size_t N = std::fwrite(Doc.data(), 1, Doc.size(), F);
  bool Ok = N == Doc.size() && std::fclose(F) == 0;
  if (!Ok && Err)
    *Err = "short write to " + Path;
  return Ok;
}
