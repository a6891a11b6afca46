//===- stm/Runtime.cpp - GPU-STM runtime ----------------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "stm/Runtime.h"
#include "stm/ConfigCheck.h"
#include "stm/Tx.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/MathExtras.h"

using namespace gpustm;
using namespace gpustm::stm;
using simt::Addr;
using simt::LaunchConfig;
using simt::Phase;
using simt::ThreadCtx;

StmRuntime::StmRuntime(simt::Device &Dev, const StmConfig &Config,
                       const LaunchConfig &MaxLaunch)
    : Dev(Dev), Config(Config), Val(Config.validation()),
      Locking(Config.locking()) {
  checkStmConfigOrDie(Config);
  unsigned WarpSize = Dev.config().WarpSize;
  unsigned WarpsPerBlock =
      static_cast<unsigned>(divideCeil(MaxLaunch.BlockDim, WarpSize));
  unsigned NumWarps = MaxLaunch.GridDim * WarpsPerBlock;
  unsigned NumThreads = MaxLaunch.GridDim * MaxLaunch.BlockDim;

  // Global metadata.
  LockTabBase = Dev.hostAlloc(Config.NumLocks);
  ClockAddr = Dev.hostAlloc(1);
  SeqLockAddr = Dev.hostAlloc(1);
  CglTicketAddr = Dev.hostAlloc(1);
  CglServingAddr = Dev.hostAlloc(1);
  TokenBase = Dev.hostAlloc(NumWarps);
  EscalationAddr = Dev.hostAlloc(1);
  // Unused words kept so log addresses and traced memory images never move.
  Dev.memory().store(Dev.hostAlloc(3) + 2, NumThreads);

  // Per-warp coalesced log arenas (STM_NEW_WARP in Figure 1).
  unsigned LockSlots = Config.LockLogBuckets * Config.LockLogBucketCap;
  size_t PerWarpWords =
      LogView::wordsRequired(Config.ReadSetCap, WarpSize) * 2 +
      LogView::wordsRequired(Config.WriteSetCap, WarpSize) * 2 +
      LogView::wordsRequired(LockSlots, WarpSize);
  Addr LogArena = Dev.hostAlloc(PerWarpWords * NumWarps);

  // The order-preserving hash: the bucket is the high bits of the lock id.
  unsigned LockBits = log2Floor(Config.NumLocks);
  unsigned BucketBits = log2Floor(nextPowerOf2(Config.LockLogBuckets));
  unsigned BucketShift = LockBits > BucketBits ? LockBits - BucketBits : 0;

  Descs.resize(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    TxDesc &D = Descs[T];
    unsigned Block = T / MaxLaunch.BlockDim;
    unsigned InBlock = T % MaxLaunch.BlockDim;
    unsigned WarpId = Block * WarpsPerBlock + InBlock / WarpSize;
    D.Lane = InBlock % WarpSize;

    Addr Base = LogArena + static_cast<Addr>(PerWarpWords) * WarpId;
    auto View = [&](unsigned Cap) {
      LogView V;
      V.Base = Base;
      V.Cap = Cap;
      V.WarpSize = WarpSize;
      V.Coalesced = Config.CoalescedLogs;
      Base += static_cast<Addr>(LogView::wordsRequired(Cap, WarpSize));
      return V;
    };
    D.ReadAddrs = View(Config.ReadSetCap);
    D.ReadVals = View(Config.ReadSetCap);
    D.WriteAddrs = View(Config.WriteSetCap);
    D.WriteVals = View(Config.WriteSetCap);
    LogView LockView = View(LockSlots);
    bool Sorted = Locking == CommitLocking::Sorted && !Config.DisableSorting;
    D.Locks.configure(LockView, D.Lane, Config.LockLogBuckets,
                      Config.LockLogBucketCap, BucketShift,
                      Sorted ? LockLog::Mode::Sorted : LockLog::Mode::Append);
  }

  // Tell attached observers (simtsan) where the version locks live so they
  // can check the lock protocol (ownership, version monotonicity, fencing).
  simt::SanStmLayout Layout;
  Layout.LockTabBase = LockTabBase;
  Layout.NumLocks = Config.NumLocks;
  Layout.ClockAddr = ClockAddr;
  Layout.SeqLockAddr = SeqLockAddr;
  for (simt::Observer *O : Dev.observers())
    O->onStmRegister(Layout);
}

void StmRuntime::emitEvent(const ThreadCtx &Ctx, TxEventKind K, AbortCause C,
                           Addr A, Word V, Word Aux) {
  // Host-side only: no Ctx device operation may be issued here, so tracing
  // cannot perturb modeled cycles or counters (the zero-overhead guarantee).
  TxEvent E;
  E.Cycle = Dev.now();
  E.ThreadId = Ctx.globalThreadId();
  E.Sm = static_cast<uint16_t>(Ctx.smId());
  E.Kind = K;
  E.Cause = C;
  E.Address = A;
  E.Value = V;
  E.Aux = Aux;
  for (simt::Observer *O : Dev.observers())
    O->onTxEvent(E);
}

void StmRuntime::cglTransaction(ThreadCtx &Ctx, function_ref<void(Tx &)> Body) {
  // Coarse-grained locking baseline: serialize every critical section under
  // one global lock.  A ticket lock is SIMT-safe (every thread waits on its
  // own serving value, so lanes of one warp never spin on each other) and
  // lets the simulator park waiters instead of polling.
  TxDesc &D = descFor(Ctx);
  Tx T(*this, Ctx, D, Tx::ModeT::Direct);
  if (GPUSTM_UNLIKELY(tracing()))
    emitEvent(Ctx, TxEventKind::Begin, AbortCause::None, simt::InvalidAddr, 0,
              0);
  Ctx.setPhase(Phase::Locking);
  Word MyTicket;
  {
    simt::MemClassScope San(Ctx, simt::MemClass::Meta);
    MyTicket = Ctx.atomicAdd(CglTicketAddr, 1);
    for (;;) {
      Word Serving = Ctx.load(CglServingAddr);
      if (Serving == MyTicket)
        break;
      Ctx.memWaitEquals(CglServingAddr, MyTicket);
    }
  }
  // Acquire fence: orders the serving-word observation before the critical
  // section's data loads; without it a load inside the section may bind a
  // value older than the previous holder's release (fence-audit finding,
  // litmus test stm-lock-acquire-nofence).
  Ctx.threadfence();
  Ctx.setPhase(Phase::Native);
  Body(T);
  // Release fence: orders the critical section's stores before the serving
  // bump that hands the lock to the next ticket.
  Ctx.threadfence();
  Ctx.setPhase(Phase::Locking);
  // The ticket lock totally orders CGL critical sections, so the ticket
  // itself is the serial number (1-based like a clock version).
  D.LastCommitVersion = static_cast<Word>(MyTicket + 1);
  {
    simt::MemClassScope San(Ctx, simt::MemClass::Meta);
    Ctx.store(CglServingAddr, MyTicket + 1);
  }
  ++Counters.Commits;
  if (GPUSTM_UNLIKELY(tracing()))
    emitEvent(Ctx, TxEventKind::Commit, AbortCause::None, simt::InvalidAddr, 0,
              D.LastCommitVersion);
  Ctx.setPhase(Phase::Native);
}

void StmRuntime::transaction(ThreadCtx &Ctx, function_ref<void(Tx &)> Body) {
  if (Config.Kind == Variant::CGL) {
    cglTransaction(Ctx, Body);
    return;
  }
  TxDesc &D = descFor(Ctx);
  for (;;) {
    Ctx.txMarkBegin();
    Tx T(*this, Ctx, D, Tx::ModeT::Instrumented);
    T.begin();
    if (GPUSTM_UNLIKELY(tracing()))
      emitEvent(Ctx, TxEventKind::Begin, AbortCause::None, simt::InvalidAddr,
                0, D.Snapshot);
    Body(T);
    bool Committed = T.valid() && T.commit();
    Ctx.txMarkEnd(Committed);
    if (Committed) {
      ++Counters.Commits;
      if (GPUSTM_UNLIKELY(tracing()))
        emitEvent(Ctx, TxEventKind::Commit, AbortCause::None, simt::InvalidAddr,
                  D.WriteCount, D.WriteCount ? D.LastCommitVersion : 0);
      break;
    }
    ++Counters.Aborts;
    if (GPUSTM_UNLIKELY(tracing()))
      emitEvent(Ctx, TxEventKind::Abort,
                D.LastAbort == AbortCause::None ? AbortCause::Explicit
                                                : D.LastAbort,
                simt::InvalidAddr, 0, 0);
  }
}

StatsSet StmRuntime::statsSet() const {
  const StmCounters &C = Counters;
  StatsSet S;
  S.set("stm.commits", C.Commits);
  S.set("stm.read_only_commits", C.ReadOnlyCommits);
  S.set("stm.aborts", C.Aborts);
  S.set("stm.aborts.read_validation", C.AbortsReadValidation);
  S.set("stm.aborts.commit_validation", C.AbortsCommitValidation);
  S.set("stm.lock_failures", C.LockFailures);
  S.set("stm.stale_snapshots", C.StaleSnapshots);
  S.set("stm.false_conflicts_avoided", C.FalseConflictsAvoided);
  S.set("stm.vbv_runs", C.VbvRuns);
  S.set("stm.tx_reads", C.TxReads);
  S.set("stm.tx_writes", C.TxWrites);
  return S;
}
