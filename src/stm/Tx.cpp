//===- stm/Tx.cpp - Transaction engine (Algorithm 3) ----------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// Line references in comments are to the paper's Algorithm 3.
//
//===----------------------------------------------------------------------===//

#include "stm/Tx.h"
#include "stm/VersionLock.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"

#include <cassert>

using namespace gpustm;
using namespace gpustm::stm;
using simt::Addr;
using simt::Phase;

// simtsan access classes (simt/Observer.h): STM bookkeeping accesses (logs,
// lock words, clocks, tickets) are tagged Meta, accesses to program data
// words on behalf of the transaction (line-24 reads, validation re-reads,
// write-back stores, Direct-mode accesses) are tagged TxData.  Tags are
// host-side only.
using simt::MemClass;
using simt::MemClassScope;

void Tx::begin() {
  if (Mode == ModeT::Direct)
    return;
  MemClassScope San(Ctx, MemClass::Meta);
  Ctx.setPhase(Phase::TxInit);
  Desc.ReadCount = 0;
  Desc.WriteCount = 0;
  Desc.LastAbort = AbortCause::None;
  Desc.WriteBloom.clear();
  Desc.Locks.clear();
  Desc.Valid = true;   // line 3 (isOpaque)
  Desc.PassTBV = true; // line 3
  if (Rt.Val == Validation::VBV) {
    // NOrec: the snapshot must be even (no writer mid-commit).
    Word S = Ctx.load(Rt.SeqLockAddr);
    while ((S & 1) && !Rt.Config.Faults.SkipOddSeqWait) {
      Ctx.memWaitBitClear(Rt.SeqLockAddr, 1);
      S = Ctx.load(Rt.SeqLockAddr);
    }
    Desc.Snapshot = S;
  } else {
    Desc.Snapshot = Ctx.load(Rt.ClockAddr); // line 4
  }
  // Line 5: orders the snapshot load before every read-phase data load, so
  // no data value older than what the snapshot proves can be observed.
  if (!Rt.Config.Faults.SkipBeginFence)
    Ctx.threadfence();
  Ctx.setPhase(Phase::Native);
}

Word Tx::read(Addr A) {
  if (Mode == ModeT::Direct) {
    MemClassScope San(Ctx, MemClass::TxData);
    Word V = Ctx.load(A);
    if (GPUSTM_UNLIKELY(Rt.tracing()))
      Rt.emitEvent(Ctx, TxEventKind::Read, AbortCause::None, A, V, 0);
    return V;
  }
  MemClassScope San(Ctx, MemClass::Meta);
  assert(Desc.Valid && "reading in an aborted transaction");
  ++Rt.Counters.TxReads;

  // Line 22: return the speculative value if we wrote this address.
  if (Desc.WriteBloom.mayContain(A)) {
    Ctx.setPhase(Phase::Buffering);
    for (unsigned I = 0; I < Desc.WriteCount; ++I) {
      if (Ctx.load(writeAddrSlot(I)) == A) {
        Word V = Ctx.load(writeValSlot(I));
        Ctx.setPhase(Phase::Native);
        if (GPUSTM_UNLIKELY(Rt.tracing()))
          Rt.emitEvent(Ctx, TxEventKind::Read, AbortCause::None, A, V, 1);
        return V;
      }
    }
    Ctx.setPhase(Phase::Native);
  }

  // Host prefetch hints for the two log appends below; the load's yield
  // gives them a full round to land.
  if (Desc.ReadCount < Desc.ReadAddrs.Cap) {
    Ctx.prefetchMem(readAddrSlot(Desc.ReadCount));
    Ctx.prefetchMem(readValSlot(Desc.ReadCount));
  }
  Word Val;
  {
    MemClassScope SanData(Ctx, MemClass::TxData);
    Val = Ctx.load(A); // line 24
  }

  // Line 25: log the <addr, val> pair for future validation.
  Ctx.setPhase(Phase::Buffering);
  if (GPUSTM_UNLIKELY(Desc.ReadCount >= Desc.ReadAddrs.Cap)) {
    handleLogOverflow("read", "ReadSetCap", Desc.ReadAddrs.Cap);
    Ctx.setPhase(Phase::Native);
    if (GPUSTM_UNLIKELY(Rt.tracing()))
      Rt.emitEvent(Ctx, TxEventKind::Read, AbortCause::None, A, Val, 0);
    return Val; // Doomed: the caller must consult valid().
  }
  if (!Rt.Config.Faults.SkipReadLogging) {
    Ctx.store(readAddrSlot(Desc.ReadCount), A);
    Ctx.store(readValSlot(Desc.ReadCount), Val);
    ++Desc.ReadCount;
  }
  // Line 26: orders the data load (line 24) before the lock-word check
  // below -- a lock observed free then covers the value already read.
  Ctx.threadfence();

  Ctx.setPhase(Phase::Consistency);
  if (Rt.Val == Validation::VBV) {
    // NOrec: revalidate by value whenever the sequence lock moved.
    Word S = Ctx.load(Rt.SeqLockAddr);
    if (S != Desc.Snapshot) {
      bool Pass = norecPostValidate();
      if (!Pass) {
        Desc.Valid = false;
        Desc.LastAbort = AbortCause::ReadValidationFail;
        ++Rt.Counters.AbortsReadValidation;
      }
      if (GPUSTM_UNLIKELY(Rt.tracing()))
        Rt.emitEvent(Ctx, TxEventKind::ReadValidation, AbortCause::None, A, S,
                     Pass ? 1 : 0);
    }
    Ctx.setPhase(Phase::Native);
    if (GPUSTM_UNLIKELY(Rt.tracing()))
      Rt.emitEvent(Ctx, TxEventKind::Read, AbortCause::None, A, Val, 0);
    return Val;
  }

  // Lines 27-29: wait while a committing transaction holds the stripe.  A
  // held lock is always released after the holder's write-back completes,
  // so the value we then revalidate reflects the whole commit.
  Word LockIdx = Rt.lockIndexFor(A);
  Word VL = Ctx.load(Rt.lockWordAddr(LockIdx)); // line 28
  while (lockBit(VL) && !Rt.Config.Faults.SkipLockWait) {
    // line 29: wait for the committing holder
    Ctx.memWaitBitClear(Rt.lockWordAddr(LockIdx), 1);
    VL = Ctx.load(Rt.lockWordAddr(LockIdx));
  }

  Word Version = lockVersion(VL); // line 30
  if (Version > Desc.Snapshot) {  // line 31
    ++Rt.Counters.StaleSnapshots;
    if (Rt.Val == Validation::HV) {
      if (!postValidation(Version)) { // line 32
        Desc.Valid = false;           // line 33
        Desc.LastAbort = AbortCause::ReadValidationFail;
        ++Rt.Counters.AbortsReadValidation;
      } else {
        // The timestamp said "conflict" but the values say otherwise: a
        // false conflict avoided -- the benefit of hierarchical validation.
        ++Rt.Counters.FalseConflictsAvoided;
      }
    } else if (!Rt.Config.Faults.IgnoreStaleSnapshot) {
      // Pure TBV (TL2-style): a stale snapshot is fatal.
      Desc.Valid = false;
      Desc.LastAbort = AbortCause::ReadStaleSnapshot;
      ++Rt.Counters.AbortsReadValidation;
    }
    if (GPUSTM_UNLIKELY(Rt.tracing()))
      Rt.emitEvent(Ctx, TxEventKind::ReadValidation, AbortCause::None, A,
                   Version, Desc.Valid ? 1 : 0);
  }

  if (Desc.Valid) {
    // Line 34: remember the lock for commit-time acquisition (read-bit).
    Ctx.setPhase(Phase::Buffering);
    Desc.Locks.insert(Ctx, LockIdx, /*Wr=*/false, /*Rd=*/true);
  }
  Ctx.setPhase(Phase::Native);
  if (GPUSTM_UNLIKELY(Rt.tracing()))
    Rt.emitEvent(Ctx, TxEventKind::Read, AbortCause::None, A, Val, 0);
  return Val; // line 35
}

void Tx::write(Addr A, Word V) {
  if (Mode == ModeT::Direct) {
    MemClassScope San(Ctx, MemClass::TxData);
    Ctx.store(A, V);
    if (GPUSTM_UNLIKELY(Rt.tracing()))
      Rt.emitEvent(Ctx, TxEventKind::Write, AbortCause::None, A, V, 0);
    return;
  }
  MemClassScope San(Ctx, MemClass::Meta);
  assert(Desc.Valid && "writing in an aborted transaction");
  ++Rt.Counters.TxWrites;
  if (GPUSTM_UNLIKELY(Rt.tracing()))
    Rt.emitEvent(Ctx, TxEventKind::Write, AbortCause::None, A, V, 0);
  Ctx.setPhase(Phase::Buffering);

  // Line 37 (set union semantics): update in place when already buffered.
  if (Desc.WriteBloom.mayContain(A)) {
    for (unsigned I = 0; I < Desc.WriteCount; ++I) {
      if (Ctx.load(writeAddrSlot(I)) == A) {
        Ctx.store(writeValSlot(I), V);
        Ctx.setPhase(Phase::Native);
        return;
      }
    }
  }
  if (GPUSTM_UNLIKELY(Desc.WriteCount >= Desc.WriteAddrs.Cap)) {
    handleLogOverflow("write", "WriteSetCap", Desc.WriteAddrs.Cap);
    Ctx.setPhase(Phase::Native);
    return; // Doomed: the caller must consult valid().
  }
  Ctx.store(writeAddrSlot(Desc.WriteCount), A);
  Ctx.store(writeValSlot(Desc.WriteCount), V);
  ++Desc.WriteCount;
  if (!Rt.Config.Faults.SkipWriteBloomInsert)
    Desc.WriteBloom.insert(A);

  // Line 38: remember the lock (write-bit).  NOrec has no lock table.
  if (Rt.Val != Validation::VBV)
    Desc.Locks.insert(Ctx, Rt.lockIndexFor(A), /*Wr=*/true, /*Rd=*/false);
  Ctx.setPhase(Phase::Native);
}

bool Tx::postValidation(Word Version) {
  MemClassScope San(Ctx, MemClass::Meta);
  Desc.Snapshot = Version; // line 7
  for (;;) {               // line 8
    // Lines 9-11: value-based validation of every logged read.
    for (unsigned I = 0; I < Desc.ReadCount; ++I) {
      if (I + 1 < Desc.ReadCount) { // Host prefetch hints (free, no yield).
        Ctx.prefetchMem(readAddrSlot(I + 1));
        Ctx.prefetchMem(readValSlot(I + 1));
      }
      Addr A = Ctx.load(readAddrSlot(I));
      Ctx.prefetchMem(A);
      Word Logged = Ctx.load(readValSlot(I));
      Word Cur;
      {
        MemClassScope SanData(Ctx, MemClass::TxData);
        // Fresh (ld.global.cg) re-read: a cached/stale re-binding of an
        // address this transaction already loaded would make validation
        // vacuously pass against its own stale value (litmus test
        // stm-validate-reread-plain reaches exactly that outcome).
        Cur = Ctx.loadFresh(A);
      }
      if (Cur != Logged)
        return false;
    }
    // Line 12: orders the value re-reads above before the lock re-checks
    // below, closing the check-then-overwritten race window.
    Ctx.threadfence();
    // Lines 13-19: the validated values must not have been overwritten by
    // a concurrent commit while we were checking them.
    bool Retry = false;
    for (unsigned I = 0; I < Desc.ReadCount; ++I) {
      if (I + 1 < Desc.ReadCount) // Host prefetch hint (free, no yield).
        Ctx.prefetchMem(readAddrSlot(I + 1));
      Addr A = Ctx.load(readAddrSlot(I));
      Ctx.prefetchMem(Rt.lockWordAddr(Rt.lockIndexFor(A)));
      Word VL = Ctx.load(Rt.lockWordAddr(Rt.lockIndexFor(A)));
      if (lockBit(VL) || lockVersion(VL) > Desc.Snapshot) { // line 17
        Desc.Snapshot = lockVersion(VL);                    // line 18
        Retry = true;                                       // line 19
        break;
      }
    }
    if (!Retry)
      return true; // line 20
  }
}

bool Tx::vbv() {
  MemClassScope San(Ctx, MemClass::Meta);
  ++Rt.Counters.VbvRuns;
  for (unsigned I = 0; I < Desc.ReadCount; ++I) { // lines 62-66
    if (I + 1 < Desc.ReadCount) { // Host prefetch hints (free, no yield).
      Ctx.prefetchMem(readAddrSlot(I + 1));
      Ctx.prefetchMem(readValSlot(I + 1));
    }
    Addr A = Ctx.load(readAddrSlot(I));
    Ctx.prefetchMem(A);
    Word Logged = Ctx.load(readValSlot(I));
    Word Cur;
    {
      MemClassScope SanData(Ctx, MemClass::TxData);
      // Fresh re-read, same rationale as postValidation: validating a
      // value against a stale re-binding of itself proves nothing.
      Cur = Ctx.loadFresh(A);
    }
    if (Cur != Logged)
      return false;
  }
  return true;
}

bool Tx::getLocksAndTBV(Word *FailedLock) {
  MemClassScope San(Ctx, MemClass::Meta);
  unsigned Acquired = 0;
  bool Failed = false;
  Word FailedIdx = 0;
  Desc.Locks.forEachUntil(
      Ctx, Desc.Locks.size(), [&](Word Idx, bool Wr, bool Rd) {
        (void)Wr;
        Word VL = Ctx.atomicOr(Rt.lockWordAddr(Idx), 1); // line 45
        if (lockBit(VL)) {                               // line 46
          Failed = true;
          FailedIdx = Idx;
          if (FailedLock)
            *FailedLock = Idx;
          return false;
        }
        ++Acquired;
        if (Rd && lockVersion(VL) > Desc.Snapshot) // lines 49-50
          Desc.PassTBV = false;                    // line 51
        return true;
      });
  if (Failed) {
    releaseLocks(Acquired); // line 47
    ++Rt.Counters.LockFailures;
    if (GPUSTM_UNLIKELY(Rt.tracing()))
      Rt.emitEvent(Ctx, TxEventKind::LockFail, AbortCause::None, FailedIdx, 0,
                   Acquired);
    return false;
  }
  if (GPUSTM_UNLIKELY(Rt.tracing()))
    Rt.emitEvent(Ctx, TxEventKind::LockAcquire, AbortCause::None,
                 simt::InvalidAddr, 0, Desc.Locks.size());
  return true; // line 52
}

void Tx::releaseLocks(unsigned Count) {
  MemClassScope San(Ctx, MemClass::Meta);
  // Lines 53-55: clear the lock bit of the first Count acquired locks.
  Desc.Locks.forEachUntil(Ctx, Count, [&](Word Idx, bool, bool) {
    Word VL = Ctx.load(Rt.lockWordAddr(Idx));
    Ctx.store(Rt.lockWordAddr(Idx), VL - 1);
    return true;
  });
}

void Tx::releaseAndUpdateLocks(Word Version) {
  MemClassScope San(Ctx, MemClass::Meta);
  // Lines 56-61: written stripes advance to the new version; read-only
  // stripes just drop the lock bit.
  Desc.Locks.forEach(Ctx, [&](Word Idx, bool Wr, bool) {
    if (Wr) {
      Word Publish = Rt.Config.Faults.PublishStaleVersion
                         ? Desc.Snapshot
                         : Version;
      Ctx.store(Rt.lockWordAddr(Idx), makeVersionLock(Publish)); // line 59
    } else if (!Rt.Config.Faults.LeakReadLocks) {
      Word VL = Ctx.load(Rt.lockWordAddr(Idx));
      Ctx.store(Rt.lockWordAddr(Idx), VL - 1); // line 61
    }
  });
}

bool Tx::validateAndWriteBack() {
  MemClassScope San(Ctx, MemClass::Meta);
  if (!Desc.PassTBV && !Rt.Config.Faults.SkipCommitVbvFilter) { // line 75
    Ctx.setPhase(Phase::Commit);
    bool Ok = Rt.Val == Validation::HV && vbv(); // line 76; TBV cannot recover
    if (!Ok) {
      Ctx.setPhase(Phase::Locking);
      releaseLocks(Desc.Locks.size()); // line 77
      Desc.LastAbort = AbortCause::CommitValidationFail;
      ++Rt.Counters.AbortsCommitValidation;
      return false; // line 78
    }
  }
  // Line 79: orders the lock acquisitions (and the validation reads they
  // cover) before the write-back stores below.
  Ctx.threadfence();
  Ctx.setPhase(Phase::Commit);
  for (unsigned I = 0; I < Desc.WriteCount; ++I) { // lines 80-81
    if (I + 1 < Desc.WriteCount) { // Host prefetch hints (free, no yield).
      Ctx.prefetchMem(writeAddrSlot(I + 1));
      Ctx.prefetchMem(writeValSlot(I + 1));
    }
    Addr A = Ctx.load(writeAddrSlot(I));
    Ctx.prefetchMem(A);
    Word V = Ctx.load(writeValSlot(I));
    {
      MemClassScope SanData(Ctx, MemClass::TxData);
      Ctx.store(A, V);
    }
  }
  // Line 82: orders the write-back stores before the clock bump and lock
  // release -- readers that see the new version must see the new data.
  if (!Rt.Config.Faults.SkipPublishFence)
    Ctx.threadfence();
  Word Version = Ctx.atomicAdd(Rt.ClockAddr, 1) + 1; // line 83
  Desc.LastCommitVersion = Version;
  Ctx.setPhase(Phase::Locking);
  releaseAndUpdateLocks(Version); // line 84
  return true;                    // line 85
}

bool Tx::commitSorted() {
  MemClassScope San(Ctx, MemClass::Meta);
  for (;;) { // line 70
    if (Rt.Config.PreLockValidation && Rt.Val == Validation::HV) {
      Ctx.setPhase(Phase::Commit);
      if (!vbv()) { // lines 71-72 (optional, reduces lock contention)
        Desc.LastAbort = AbortCause::CommitValidationFail;
        ++Rt.Counters.AbortsCommitValidation;
        return false;
      }
    }
    Ctx.setPhase(Phase::Locking);
    Word FailedLock = 0;
    if (!getLocksAndTBV(&FailedLock)) { // line 73
      // Line 74: retry "after transactions within the same warp finish
      // committing" -- wait for the contended lock to drop instead of
      // hammering it (we hold no locks here, so this cannot deadlock).
      Ctx.memWaitBitClear(Rt.lockWordAddr(FailedLock), 1);
      continue; // Sorted order guarantees system-wide progress.
    }
    return validateAndWriteBack();
  }
}

bool Tx::commitBackoff() {
  // STM-HV-Backoff (Section 4.2): warps first try to acquire their locks
  // in parallel; lanes that fail retry one at a time (serialized through a
  // per-warp token) while the winners commit in parallel.  Across warps a
  // deterministic, warp-dependent delay desynchronizes retries (per-thread
  // exponential backoff is impossible under lockstep, per Section 3.1).
  MemClassScope San(Ctx, MemClass::Meta);
  if (Rt.Config.PreLockValidation && Rt.Val == Validation::HV) {
    Ctx.setPhase(Phase::Commit);
    if (!vbv()) { // Same optional line-71 filter commitSorted applies.
      Desc.LastAbort = AbortCause::CommitValidationFail;
      ++Rt.Counters.AbortsCommitValidation;
      return false;
    }
  }
  Ctx.setPhase(Phase::Locking);
  if (getLocksAndTBV())
    return validateAndWriteBack();

  Addr Token = Rt.TokenBase + Ctx.warpGlobalId();
  unsigned Attempt = 0;
  for (;;) {
    ++Attempt;
    // Deterministic per-(warp, attempt) jitter scaled to the backoff
    // window.  A fixed per-warp offset is not enough: once the window
    // stops growing, warps whose offsets happen to coincide re-collide on
    // every retry forever (stmfuzz seed 152: ~500 threads on a 6-word
    // array livelocked this way).  Re-drawing the jitter each attempt
    // breaks any such phase-lock while staying bit-exact.
    uint32_t Window = 16u << (Attempt > 6 ? 6 : Attempt);
    uint64_t Mix = (static_cast<uint64_t>(Ctx.warpGlobalId()) << 32) |
                   Attempt;
    uint32_t Delay =
        Window + static_cast<uint32_t>(splitMix64(Mix) % Window);
    Ctx.compute(Delay);
    // Jitter alone cannot guarantee progress: when several lanes of a warp
    // are failing, they queue on the warp token, the delay elapses while
    // *waiting*, and the warp emits a continuous stream of acquisition
    // attempts with no idle window -- two such streams can collide forever
    // (stmfuzz seed 53: 6 warps on 4 stripe locks).  Persistent losers
    // therefore escalate to a global token, serializing across warps:
    // once every contender has escalated (at most 8 free attempts each),
    // the token holder runs alone and must win.  Acquisition order is
    // global-then-warp everywhere, and the warp token is only ever held
    // for one bounded attempt, so the two tokens cannot deadlock.
    bool Escalated = Attempt > 8;
    if (Escalated)
      while (Ctx.atomicCAS(Rt.EscalationAddr, 0, Ctx.globalThreadId() + 1) !=
             0)
        Ctx.memWaitEquals(Rt.EscalationAddr, 0);
    // Serialize the failed lanes of this warp.
    while (Ctx.atomicCAS(Token, 0, Ctx.laneId() + 1) != 0)
      Ctx.memWaitEquals(Token, 0);
    Ctx.setPhase(Phase::Locking);
    bool Locked = getLocksAndTBV();
    bool Result = false;
    if (Locked)
      Result = validateAndWriteBack();
    Ctx.setPhase(Phase::Locking);
    Ctx.store(Token, 0);
    if (Escalated)
      Ctx.store(Rt.EscalationAddr, 0);
    if (Locked)
      return Result;
  }
}

void Tx::handleLogOverflow(const char *Set, const char *CapName,
                           unsigned Cap) {
  // A doomed attempt (reads invalidated by a concurrent commit) can chase
  // inconsistent pointers into footprints the live program never has, so
  // overflow alone does not prove the cap is too small.  Value-validate
  // first: inconsistent => abort the attempt and let transaction() retry.
  Ctx.setPhase(Phase::Consistency);
  bool Consistent =
      Rt.Val == Validation::VBV ? norecPostValidate() : vbv();
  if (!Consistent) {
    Desc.Valid = false;
    Desc.LastAbort = AbortCause::ReadValidationFail;
    ++Rt.Counters.AbortsReadValidation;
    return;
  }
  // A consistent attempt genuinely exceeded the configured log: fatal.
  reportFatalError(formatString(
      "GPU-STM %s-set overflow: workload '%s', global thread %u, variant "
      "%s: transaction exceeded %s=%u entries; raise it in StmConfig",
      Set, Rt.Config.DebugName.empty() ? "?" : Rt.Config.DebugName.c_str(),
      Ctx.globalThreadId(), variantName(Rt.Config.Kind), CapName, Cap));
}

bool Tx::norecPostValidate() {
  MemClassScope San(Ctx, MemClass::Meta);
  ++Rt.Counters.VbvRuns;
  for (;;) {
    Word T = Ctx.load(Rt.SeqLockAddr);
    if (T & 1) {
      // A writer is mid-commit; wait for a stable snapshot.
      Ctx.memWaitBitClear(Rt.SeqLockAddr, 1);
      continue;
    }
    bool Match = true;
    for (unsigned I = 0; I < Desc.ReadCount && Match; ++I) {
      // Host prefetch hints only: each hint has a full simulated round (the
      // next load's yield) to land, hiding the host cache miss on the
      // 128-byte-strided log slots and the random validated address.
      if (I + 1 < Desc.ReadCount) {
        Ctx.prefetchMem(readAddrSlot(I + 1));
        Ctx.prefetchMem(readValSlot(I + 1));
      }
      Addr A = Ctx.load(readAddrSlot(I));
      Ctx.prefetchMem(A);
      Word Logged = Ctx.load(readValSlot(I));
      Word Cur;
      {
        MemClassScope SanData(Ctx, MemClass::TxData);
        // Fresh re-read, same rationale as postValidation: validating a
        // value against a stale re-binding of itself proves nothing.
        Cur = Ctx.loadFresh(A);
      }
      if (Cur != Logged)
        Match = false;
    }
    if (!Match)
      return false;
    // NOrec's line-12 analogue: orders the value re-reads above before the
    // sequence-lock re-check, so an unchanged lock covers all of them.
    Ctx.threadfence();
    if (Ctx.load(Rt.SeqLockAddr) == T) {
      Desc.Snapshot = T;
      return true;
    }
  }
}

bool Tx::norecCommit() {
  MemClassScope San(Ctx, MemClass::Meta);
  Ctx.setPhase(Phase::Locking);
  // Acquire the single global sequence lock; every CAS failure means some
  // transaction committed, so revalidate by value (NOrec).
  while (Ctx.atomicCAS(Rt.SeqLockAddr, Desc.Snapshot, Desc.Snapshot + 1) !=
         Desc.Snapshot) {
    ++Rt.Counters.LockFailures;
    if (GPUSTM_UNLIKELY(Rt.tracing()))
      Rt.emitEvent(Ctx, TxEventKind::LockFail, AbortCause::None,
                   simt::InvalidAddr, 0, 0);
    Ctx.setPhase(Phase::Consistency);
    if (!norecPostValidate()) {
      Desc.LastAbort = AbortCause::CommitValidationFail;
      ++Rt.Counters.AbortsCommitValidation;
      return false;
    }
    Ctx.setPhase(Phase::Locking);
  }
  if (GPUSTM_UNLIKELY(Rt.tracing()))
    Rt.emitEvent(Ctx, TxEventKind::LockAcquire, AbortCause::None,
                 simt::InvalidAddr, 0, 1);
  Ctx.setPhase(Phase::Commit);
  for (unsigned I = 0; I < Desc.WriteCount; ++I) {
    if (I + 1 < Desc.WriteCount) { // Host prefetch hints (free, no yield).
      Ctx.prefetchMem(writeAddrSlot(I + 1));
      Ctx.prefetchMem(writeValSlot(I + 1));
    }
    Addr A = Ctx.load(writeAddrSlot(I));
    Ctx.prefetchMem(A);
    Word V = Ctx.load(writeValSlot(I));
    {
      MemClassScope SanData(Ctx, MemClass::TxData);
      Ctx.store(A, V);
    }
  }
  // NOrec's line-82 analogue: orders the write-back stores before the
  // sequence-lock release that publishes them.
  if (!Rt.Config.Faults.SkipPublishFence)
    Ctx.threadfence();
  Ctx.setPhase(Phase::Locking);
  Ctx.store(Rt.SeqLockAddr, Desc.Snapshot + 2);
  Desc.LastCommitVersion = Desc.Snapshot + 2;
  return true;
}

bool Tx::commit() {
  if (Mode == ModeT::Direct)
    return true;
  assert(Desc.Valid && "committing an aborted transaction");
  // Line 68: a read-only transaction linearizes at its last read.
  if (Desc.WriteCount == 0) {
    ++Rt.Counters.ReadOnlyCommits;
    Ctx.setPhase(Phase::Native);
    return true;
  }
  bool Ok;
  if (Rt.Val == Validation::VBV)
    Ok = norecCommit();
  else if (Rt.Locking == CommitLocking::Sorted)
    Ok = commitSorted();
  else
    Ok = commitBackoff();
  Ctx.setPhase(Phase::Native);
  return Ok;
}
