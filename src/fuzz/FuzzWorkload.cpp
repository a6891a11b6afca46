//===- fuzz/FuzzWorkload.cpp - Fuzz program as a harness workload ---------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzWorkload.h"
#include "support/Format.h"

#include <algorithm>

using namespace gpustm;
using namespace gpustm::fuzz;
using simt::Device;
using simt::ThreadCtx;

FuzzWorkload::FuzzWorkload(const FuzzProgram &Program)
    : P(Program),
      Name(formatString("fuzz-%llu",
                        static_cast<unsigned long long>(Program.Seed))) {}

size_t FuzzWorkload::deviceMemoryWords() const {
  return P.SharedWords + privWords() + journalWords();
}

workloads::Workload::KernelSpec FuzzWorkload::kernelSpec(unsigned K) const {
  (void)K;
  KernelSpec Spec;
  Spec.NumTasks = P.NumTasks;
  Spec.NativeComputePerTask = P.NativeComputePerTask;
  return Spec;
}

void FuzzWorkload::tuneStm(stm::StmConfig &Config) const {
  Config.ReadSetCap = P.ReadSetCap;
  Config.WriteSetCap = P.WriteSetCap;
  Config.LockLogBuckets = P.LockLogBuckets;
  Config.LockLogBucketCap = P.LockLogBucketCap;
  Config.PreLockValidation = P.PreLockValidation;
  Config.Faults = Faults;
  LastKind = Config.Kind;
}

void FuzzWorkload::setup(Device &Dev) {
  SharedBase = Dev.hostAlloc(P.SharedWords);
  PrivBase = Dev.hostAlloc(privWords());
  JournalBase = Dev.hostAlloc(journalWords());
  Dev.hostWrite(SharedBase, P.InitShared.data(), P.SharedWords);
  Dev.hostFill(PrivBase, privWords(), 0);
  Dev.hostFill(JournalBase, journalWords(), 0);
}

void FuzzWorkload::runTask(stm::StmRuntime &Stm, ThreadCtx &Ctx, unsigned K,
                           unsigned Task) {
  (void)K;
  const FuzzTask &T = P.Tasks[Task];
  Word Acc = fuzzTaskSeed(P.Seed, Task);
  Addr Priv = PrivBase + Task * P.PrivWords;
  for (unsigned TxI = 0; TxI < T.Txs.size(); ++TxI) {
    const FuzzTx &FT = T.Txs[TxI];
    for (const FuzzPreOp &Op : FT.PreOps) {
      switch (Op.Kind) {
      case FuzzPreOpKind::NativeLoad:
        Acc = fuzzMix(Acc, Ctx.load(Priv + fuzzPrivSlot(Op, P.PrivWords)),
                      Op.Val);
        break;
      case FuzzPreOpKind::NativeStore:
        Ctx.store(Priv + fuzzPrivSlot(Op, P.PrivWords), Acc ^ Op.Val);
        break;
      case FuzzPreOpKind::Compute:
        Ctx.compute(1 + Op.Val % 8);
        break;
      }
    }
    // The accumulator the commit persists; attempts work on a copy so an
    // aborted attempt leaves no trace (exactly what the oracle assumes).
    Word CommitAcc = Acc;
    bool AbortedOnce = false;
    Stm.transaction(Ctx, [&](stm::Tx &Tx_) {
      if (FT.AbortFirstAttempt && !AbortedOnce && !Tx_.direct()) {
        AbortedOnce = true;
        Tx_.abort();
        return;
      }
      Word A2 = Acc;
      for (const FuzzOp &Op : FT.Ops) {
        Addr A = SharedBase + fuzzSharedIndex(Op, A2, P.SharedWords);
        switch (Op.Kind) {
        case FuzzOpKind::TxRead: {
          Word V = Tx_.read(A);
          if (!Tx_.valid())
            return;
          A2 = fuzzMix(A2, V, Op.Val);
          break;
        }
        case FuzzOpKind::TxWrite:
          Tx_.write(A, fuzzWriteValue(A2, Op.Val));
          if (!Tx_.valid())
            return;
          break;
        case FuzzOpKind::TxRmw: {
          Word V = Tx_.read(A);
          if (!Tx_.valid())
            return;
          Tx_.write(A, V + Op.Val);
          if (!Tx_.valid())
            return;
          A2 = fuzzMix(A2, V, 1);
          break;
        }
        }
      }
      CommitAcc = A2;
    });
    if (!FT.ReadOnly) {
      Acc = CommitAcc;
      // Journal the serialization order the runtime assigned this commit
      // (a plain native store).
      Ctx.store(JournalBase + Task * P.MaxTxPerTask + TxI,
                Stm.lastCommitVersion(Ctx.globalThreadId()));
    }
  }
}

bool FuzzWorkload::staticFootprint(unsigned K,
                                   staticlint::FootprintCtx &Ctx) const {
  (void)K;
  if (PrivBase == 0 && JournalBase == 0)
    return false; // setup() has not run yet.
  for (unsigned Task = 0; Task < P.NumTasks; ++Task) {
    const FuzzTask &T = P.Tasks[Task];
    Addr Priv = PrivBase + Task * P.PrivWords;
    Ctx.beginTask(Task);
    for (unsigned TxI = 0; TxI < T.Txs.size(); ++TxI) {
      const FuzzTx &FT = T.Txs[TxI];
      for (const FuzzPreOp &Op : FT.PreOps) {
        switch (Op.Kind) {
        case FuzzPreOpKind::NativeLoad:
          Ctx.nativeLoad(Priv + fuzzPrivSlot(Op, P.PrivWords));
          break;
        case FuzzPreOpKind::NativeStore:
          Ctx.nativeStore(Priv + fuzzPrivSlot(Op, P.PrivWords));
          break;
        case FuzzPreOpKind::Compute:
          break;
        }
      }
      Ctx.txBegin();
      for (const FuzzOp &Op : FT.Ops) {
        unsigned Base = Op.Slot % P.SharedWords;
        if (!Op.AccAddr) {
          // The IR is closed under fixed addressing: analyze exactly.
          Addr A = SharedBase + Base;
          switch (Op.Kind) {
          case FuzzOpKind::TxRead:
            Ctx.txRead(A);
            break;
          case FuzzOpKind::TxWrite:
            Ctx.txWrite(A);
            break;
          case FuzzOpKind::TxRmw:
            Ctx.txRead(A);
            Ctx.txWrite(A);
            break;
          }
          continue;
        }
        // Data-dependent index: one access somewhere in the circular
        // interval [Base, Base + Span) mod SharedWords.  A wrapping
        // interval widens to the whole array rather than splitting into
        // two ranges, so the op still counts once toward every bound.
        unsigned Span = Op.Span == 0 ? 1 : Op.Span;
        unsigned Len = std::min<unsigned>(Span, P.SharedWords);
        Addr Lo = SharedBase + Base;
        if (Base + Len > P.SharedWords) {
          Lo = SharedBase;
          Len = P.SharedWords;
        }
        switch (Op.Kind) {
        case FuzzOpKind::TxRead:
          Ctx.txReadRange(Lo, Len, 1);
          break;
        case FuzzOpKind::TxWrite:
          Ctx.txWriteRange(Lo, Len, 1);
          break;
        case FuzzOpKind::TxRmw:
          Ctx.txRmwRange(Lo, Len, 1);
          break;
        }
      }
      Ctx.txEnd();
      // The post-commit journal store of an update transaction.
      if (!FT.ReadOnly)
        Ctx.nativeStore(JournalBase + Task * P.MaxTxPerTask + TxI);
    }
  }
  return true;
}

namespace {
/// One journaled commit, ready for version-order replay.
struct CommittedTx {
  Word Version = 0;
  unsigned Task = 0;
  unsigned TxI = 0;
};

uint64_t fnv1a(uint64_t H, const Word *Data, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    H ^= Data[I];
    H *= 1099511628211ULL;
  }
  return H;
}
} // namespace

bool FuzzWorkload::verify(const Device &Dev, const stm::StmCounters &C,
                          std::string &Err) const {
  std::vector<Word> Shared(P.SharedWords), Priv(privWords()),
      Journal(journalWords());
  Dev.hostRead(SharedBase, Shared.data(), Shared.size());
  Dev.hostRead(PrivBase, Priv.data(), Priv.size());
  Dev.hostRead(JournalBase, Journal.data(), Journal.size());

  LastDigest = fnv1a(fnv1a(fnv1a(14695981039346656037ULL, Shared.data(),
                                 Shared.size()),
                           Priv.data(), Priv.size()),
                     Journal.data(), Journal.size());

  // Counter cross-checks.  Every generated transaction must have committed
  // exactly once; the instrumented variants additionally attribute
  // read-only commits and the scripted first-attempt aborts.
  uint64_t TotalTxs = 0, ReadOnlyTxs = 0, ScriptedAborts = 0;
  for (const FuzzTask &T : P.Tasks)
    for (const FuzzTx &Tx : T.Txs) {
      ++TotalTxs;
      ReadOnlyTxs += Tx.ReadOnly;
      ScriptedAborts += Tx.AbortFirstAttempt;
    }
  bool Cgl = LastKind == stm::Variant::CGL;
  if (C.Commits != TotalTxs) {
    Err = formatString("commits=%llu, expected %llu",
                       static_cast<unsigned long long>(C.Commits),
                       static_cast<unsigned long long>(TotalTxs));
    return false;
  }
  if (Cgl) {
    // Direct mode: no read-only detection, no aborts possible.
    if (C.ReadOnlyCommits != 0 || C.Aborts != 0) {
      Err = formatString("CGL counted %llu read-only commits, %llu aborts",
                         static_cast<unsigned long long>(C.ReadOnlyCommits),
                         static_cast<unsigned long long>(C.Aborts));
      return false;
    }
  } else {
    if (C.ReadOnlyCommits != ReadOnlyTxs) {
      Err = formatString("read-only commits=%llu, expected %llu",
                         static_cast<unsigned long long>(C.ReadOnlyCommits),
                         static_cast<unsigned long long>(ReadOnlyTxs));
      return false;
    }
    if (C.Aborts < ScriptedAborts) {
      Err = formatString("aborts=%llu < %llu scripted first-attempt aborts",
                         static_cast<unsigned long long>(C.Aborts),
                         static_cast<unsigned long long>(ScriptedAborts));
      return false;
    }
  }

  // Journal structure: every update transaction journaled a nonzero
  // version, versions grow along each task (program order), and no two
  // update transactions share one (versions are a total order).
  std::vector<CommittedTx> Commits;
  Commits.reserve(TotalTxs);
  for (unsigned Task = 0; Task < P.NumTasks; ++Task) {
    Word Prev = 0;
    for (unsigned TxI = 0; TxI < P.Tasks[Task].Txs.size(); ++TxI) {
      if (P.Tasks[Task].Txs[TxI].ReadOnly)
        continue;
      Word V = Journal[Task * P.MaxTxPerTask + TxI];
      if (V == 0) {
        Err = formatString("task %u tx %u: no commit version journaled",
                           Task, TxI);
        return false;
      }
      if (V <= Prev) {
        Err = formatString(
            "task %u tx %u: version %u not above predecessor's %u (program "
            "order violated)",
            Task, TxI, V, Prev);
        return false;
      }
      Prev = V;
      Commits.push_back({V, Task, TxI});
    }
  }
  std::sort(Commits.begin(), Commits.end(),
            [](const CommittedTx &A, const CommittedTx &B) {
              return A.Version < B.Version;
            });
  for (size_t I = 1; I < Commits.size(); ++I)
    if (Commits[I].Version == Commits[I - 1].Version) {
      Err = formatString(
          "commit version %u claimed by task %u tx %u and task %u tx %u",
          Commits[I].Version, Commits[I - 1].Task, Commits[I - 1].TxI,
          Commits[I].Task, Commits[I].TxI);
      return false;
    }

  // Sequential reference replay in version order.  Native pre-ops of a
  // task's earlier read-only transactions (which journal nothing) must be
  // applied before a later update transaction of the same task runs.
  std::vector<Word> OShared = P.InitShared;
  std::vector<Word> OPriv(privWords(), 0);
  std::vector<Word> OAcc(P.NumTasks);
  std::vector<unsigned> NextTx(P.NumTasks, 0);
  for (unsigned Task = 0; Task < P.NumTasks; ++Task)
    OAcc[Task] = fuzzTaskSeed(P.Seed, Task);

  auto applyPreOps = [&](unsigned Task, const FuzzTx &FT) {
    for (const FuzzPreOp &Op : FT.PreOps) {
      size_t Slot = static_cast<size_t>(Task) * P.PrivWords +
                    fuzzPrivSlot(Op, P.PrivWords);
      switch (Op.Kind) {
      case FuzzPreOpKind::NativeLoad:
        OAcc[Task] = fuzzMix(OAcc[Task], OPriv[Slot], Op.Val);
        break;
      case FuzzPreOpKind::NativeStore:
        OPriv[Slot] = OAcc[Task] ^ Op.Val;
        break;
      case FuzzPreOpKind::Compute:
        break;
      }
    }
  };
  // Replay one read-only transaction: reads fold into the accumulator but
  // nothing persists (matching the device, which discards CommitAcc).
  auto skipReadOnly = [&](unsigned Task, const FuzzTx &FT) {
    applyPreOps(Task, FT);
  };

  for (const CommittedTx &Cm : Commits) {
    const FuzzTask &T = P.Tasks[Cm.Task];
    while (NextTx[Cm.Task] < Cm.TxI) {
      const FuzzTx &Skip = T.Txs[NextTx[Cm.Task]];
      if (!Skip.ReadOnly) {
        Err = formatString(
            "task %u tx %u serialized before its predecessor tx %u",
            Cm.Task, Cm.TxI, NextTx[Cm.Task]);
        return false;
      }
      skipReadOnly(Cm.Task, Skip);
      ++NextTx[Cm.Task];
    }
    const FuzzTx &FT = T.Txs[Cm.TxI];
    applyPreOps(Cm.Task, FT);
    Word A2 = OAcc[Cm.Task];
    for (const FuzzOp &Op : FT.Ops) {
      unsigned Idx = fuzzSharedIndex(Op, A2, P.SharedWords);
      switch (Op.Kind) {
      case FuzzOpKind::TxRead:
        A2 = fuzzMix(A2, OShared[Idx], Op.Val);
        break;
      case FuzzOpKind::TxWrite:
        OShared[Idx] = fuzzWriteValue(A2, Op.Val);
        break;
      case FuzzOpKind::TxRmw: {
        Word V = OShared[Idx];
        OShared[Idx] = V + Op.Val;
        A2 = fuzzMix(A2, V, 1);
        break;
      }
      }
    }
    OAcc[Cm.Task] = A2;
    ++NextTx[Cm.Task];
  }
  for (unsigned Task = 0; Task < P.NumTasks; ++Task)
    for (; NextTx[Task] < P.Tasks[Task].Txs.size(); ++NextTx[Task]) {
      const FuzzTx &Trail = P.Tasks[Task].Txs[NextTx[Task]];
      if (!Trail.ReadOnly) {
        Err = formatString("task %u tx %u committed but never journaled",
                           Task, NextTx[Task]);
        return false;
      }
      skipReadOnly(Task, Trail);
    }

  for (unsigned I = 0; I < P.SharedWords; ++I)
    if (Shared[I] != OShared[I]) {
      Err = formatString(
          "shared[%u] = %u, oracle replay (in commit-version order over %zu "
          "commits) expected %u",
          I, Shared[I], Commits.size(), OShared[I]);
      return false;
    }
  for (size_t I = 0; I < Priv.size(); ++I)
    if (Priv[I] != OPriv[I]) {
      Err = formatString(
          "priv[%zu] (task %zu slot %zu) = %u, oracle expected %u", I,
          I / P.PrivWords, I % P.PrivWords, Priv[I], OPriv[I]);
      return false;
    }
  return true;
}
