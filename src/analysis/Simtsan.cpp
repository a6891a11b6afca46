//===- analysis/Simtsan.cpp - Race / isolation / SIMT-hazard detector -----===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/Simtsan.h"
#include "stm/TxEvents.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

using namespace gpustm;
using namespace gpustm::analysis;
using simt::Addr;
using simt::MemClass;
using simt::SanAccess;
using simt::SanBarrier;
using simt::SanOp;
using simt::SanStmLayout;
using simt::Word;

const char *gpustm::analysis::reportKindName(ReportKind K) {
  switch (K) {
  case ReportKind::DataRace:
    return "data_race";
  case ReportKind::IsolationViolation:
    return "isolation_violation";
  case ReportKind::BarrierDivergence:
    return "barrier_divergence";
  case ReportKind::BarrierExitSkip:
    return "barrier_exit_skip";
  case ReportKind::LockNotOwner:
    return "lock_not_owner";
  case ReportKind::LockVersionRegression:
    return "lock_version_regression";
  case ReportKind::LockMissingFence:
    return "lock_missing_fence";
  case ReportKind::LockLeak:
    return "lock_leak";
  case ReportKind::OutOfBounds:
    return "out_of_bounds";
  }
  return "unknown";
}

namespace {
const char *className(MemClass C) {
  switch (C) {
  case MemClass::Plain:
    return "plain";
  case MemClass::TxData:
    return "transactional";
  case MemClass::Meta:
    return "stm-metadata";
  }
  return "unknown";
}
} // namespace

Simtsan::Simtsan(const SimtsanOptions &Opts) : Opts(Opts) {}

Simtsan::~Simtsan() = default;

void Simtsan::joinInto(VC &Dst, const VC &Src) {
  for (size_t I = 0, E = std::min(Dst.size(), Src.size()); I < E; ++I)
    Dst[I] = std::max(Dst[I], Src[I]);
}

bool Simtsan::report(ReportKind Kind, uint64_t DedupToken, const SanReport &R) {
  uint64_t Key =
      (static_cast<uint64_t>(Kind) << 56) ^ (DedupToken & ((1ull << 56) - 1));
  if (!Seen.insert(Key).second)
    return false;
  ++TotalFindings;
  ++KindCounts[static_cast<unsigned>(Kind)];
  if (Reports.size() < Opts.MaxReports) {
    Reports.push_back(R);
    if (Opts.PrintToStderr)
      std::fprintf(stderr,
                   "simtsan: %s: %s [block %u warp %u lane %u thread %u "
                   "sm %u cycle %llu]\n",
                   reportKindName(Kind), R.Message.c_str(), R.Block, R.Warp,
                   R.Lane, R.Thread, R.Sm,
                   static_cast<unsigned long long>(R.Cycle));
  }
  return true;
}

void Simtsan::onLaunch(unsigned GridDim, unsigned BlockDim, unsigned WarpSize) {
  WarpsPerBlock = (BlockDim + WarpSize - 1) / WarpSize;
  NumWarps = GridDim * WarpsPerBlock;
  RoundClk.assign(NumWarps, 1);
  Clocks.assign(NumWarps, VC(NumWarps, 0));
  for (unsigned W = 0; W < NumWarps; ++W)
    Clocks[W][W] = 1;
  SyncClocks.clear();
  Shadow.clear();
  UnfencedStore.assign(static_cast<size_t>(GridDim) * BlockDim, 0);
  // Metadata memory persists across launches, but lock words must be free
  // between kernels (onLaunchEnd checks); start each launch clean.
  Locks.clear();
}

void Simtsan::onLaunchEnd(bool Clean) {
  if (!Clean)
    return; // A deadlocked/watchdogged kernel legitimately leaves locks held.
  for (const auto &[LockAddr, LS] : Locks) {
    if (!LS.Held)
      continue;
    SanReport R;
    R.Kind = ReportKind::LockLeak;
    R.Address = LockAddr;
    R.Cycle = LS.AcquireCycle;
    R.Thread = LS.Owner;
    R.Message = formatString(
        "version lock word %u still held at kernel end (acquired by thread "
        "%u at cycle %llu)",
        LockAddr, LS.Owner, static_cast<unsigned long long>(LS.AcquireCycle));
    report(ReportKind::LockLeak, LockAddr, R);
  }
}

void Simtsan::onRoundBegin(unsigned WarpGid) {
  if (WarpGid >= NumWarps)
    return;
  ++RoundClk[WarpGid];
  Clocks[WarpGid][WarpGid] = RoundClk[WarpGid];
}

void Simtsan::onFence(unsigned ThreadId) {
  if (ThreadId < UnfencedStore.size())
    UnfencedStore[ThreadId] = 0;
}

void Simtsan::onMemWait(unsigned WarpGid, Addr A) {
  if (WarpGid >= NumWarps)
    return;
  auto It = SyncClocks.find(A);
  if (It != SyncClocks.end())
    joinInto(Clocks[WarpGid], It->second);
}

void Simtsan::onWakeEdge(unsigned WokenWarpGid, unsigned StorerWarpGid) {
  if (WokenWarpGid >= NumWarps || StorerWarpGid >= NumWarps)
    return;
  joinInto(Clocks[WokenWarpGid], Clocks[StorerWarpGid]);
}

void Simtsan::onBarrierArrive(const SanBarrier &B) {
  if (B.ActiveMask == B.ExpectedMask)
    return;
  SanReport R;
  R.Kind = ReportKind::BarrierDivergence;
  R.Cycle = B.Cycle;
  R.Block = B.Block;
  R.Warp = B.WarpGid;
  R.Lane = B.Lane;
  R.Thread = B.ThreadId;
  R.Sm = B.Sm;
  R.Message = formatString(
      "block barrier executed under a divergent SIMT mask 0x%llx (live "
      "lanes 0x%llx); lanes outside the branch cannot arrive",
      static_cast<unsigned long long>(B.ActiveMask),
      static_cast<unsigned long long>(B.ExpectedMask));
  report(ReportKind::BarrierDivergence, B.WarpGid, R);
}

void Simtsan::onBarrierRelease(unsigned BlockIdx, bool ByLaneExit,
                               uint64_t Cycle) {
  // Happens-before: the barrier joins the clocks of every warp in the block.
  unsigned Begin = BlockIdx * WarpsPerBlock;
  unsigned End = std::min(Begin + WarpsPerBlock, NumWarps);
  if (Begin < End) {
    VC Join(NumWarps, 0);
    for (unsigned W = Begin; W < End; ++W)
      joinInto(Join, Clocks[W]);
    for (unsigned W = Begin; W < End; ++W) {
      Clocks[W] = Join;
      Clocks[W][W] = RoundClk[W];
    }
  }
  if (!ByLaneExit)
    return;
  SanReport R;
  R.Kind = ReportKind::BarrierExitSkip;
  R.Cycle = Cycle;
  R.Block = BlockIdx;
  R.Message = formatString(
      "block %u barrier completed only because non-arrived lanes exited the "
      "kernel (barrier skipped by exited lanes)",
      BlockIdx);
  report(ReportKind::BarrierExitSkip, BlockIdx, R);
}

void Simtsan::onStmRegister(const SanStmLayout &L) {
  Layout = L;
  HasLayout = L.LockTabBase != simt::InvalidAddr && L.NumLocks > 0;
}

void Simtsan::onTxEvent(const stm::TxEvent &E) {
  // An attempt ends with its Commit or Abort event: no version lock may
  // remain held by its thread then.
  bool Committed = E.Kind == stm::TxEventKind::Commit;
  if (!Committed && E.Kind != stm::TxEventKind::Abort)
    return;
  for (const auto &[LockAddr, LS] : Locks) {
    if (!LS.Held || LS.Owner != E.ThreadId)
      continue;
    SanReport R;
    R.Kind = ReportKind::LockLeak;
    R.Address = LockAddr;
    R.Cycle = E.Cycle;
    R.Thread = E.ThreadId;
    R.Message = formatString(
        "version lock word %u still held by thread %u at the end of a%s "
        "transaction attempt",
        LockAddr, E.ThreadId, Committed ? " committed" : "n aborted");
    report(ReportKind::LockLeak, LockAddr, R);
  }
}

void Simtsan::onOutOfBounds(const SanAccess &A) {
  SanReport R;
  R.Kind = ReportKind::OutOfBounds;
  R.Address = A.Address;
  R.Cycle = A.Cycle;
  R.Block = A.Block;
  R.Warp = A.WarpGid;
  R.Lane = A.Lane;
  R.Thread = A.ThreadId;
  R.Sm = A.Sm;
  R.Message =
      formatString("%s access to word %u outside the memory arena",
                   className(A.Class), A.Address);
  report(ReportKind::OutOfBounds, A.Address, R);
}

void Simtsan::raceReport(const SanAccess &A, MemClass PrevClass,
                         unsigned PrevWarp, uint32_t PrevClk,
                         bool PrevWasWrite) {
  bool Isolation =
      A.Class == MemClass::TxData || PrevClass == MemClass::TxData;
  SanReport R;
  R.Kind = Isolation ? ReportKind::IsolationViolation : ReportKind::DataRace;
  R.Address = A.Address;
  R.Cycle = A.Cycle;
  R.Block = A.Block;
  R.Warp = A.WarpGid;
  R.Lane = A.Lane;
  R.Thread = A.ThreadId;
  R.Sm = A.Sm;
  R.PrevWarp = PrevWarp;
  R.PrevClk = PrevClk;
  R.Message = formatString(
      "%s %s of word %u is unordered with a %s %s by warp %u (round %u)",
      className(A.Class), A.Op == SanOp::Store ? "store" : "load", A.Address,
      className(PrevClass), PrevWasWrite ? "store" : "load", PrevWarp,
      PrevClk);
  report(R.Kind, A.Address, R);
}

void Simtsan::shadowLoad(const SanAccess &A) {
  ShadowWord &S = Shadow[A.Address];
  if (S.WClk != 0 && !ordered(S.WWarp, S.WClk, A.WarpGid) &&
      !(S.WClass == MemClass::TxData && A.Class == MemClass::TxData)) {
    raceReport(A, S.WClass, S.WWarp, S.WClk, /*PrevWasWrite=*/true);
    // Re-anchor the write epoch at this access so one bad word does not
    // flood the report set.
    S.WWarp = A.WarpGid;
    S.WClk = RoundClk[A.WarpGid];
  }
  S.RWarp = A.WarpGid;
  S.RClk = RoundClk[A.WarpGid];
  S.RClass = A.Class;
}

void Simtsan::shadowStore(const SanAccess &A) {
  ShadowWord &S = Shadow[A.Address];
  bool BothTxW = S.WClass == MemClass::TxData && A.Class == MemClass::TxData;
  if (S.WClk != 0 && !ordered(S.WWarp, S.WClk, A.WarpGid) && !BothTxW)
    raceReport(A, S.WClass, S.WWarp, S.WClk, /*PrevWasWrite=*/true);
  bool BothTxR = S.RClass == MemClass::TxData && A.Class == MemClass::TxData;
  if (S.RClk != 0 && !ordered(S.RWarp, S.RClk, A.WarpGid) && !BothTxR)
    raceReport(A, S.RClass, S.RWarp, S.RClk, /*PrevWasWrite=*/false);
  S.WWarp = A.WarpGid;
  S.WClk = RoundClk[A.WarpGid];
  S.WClass = A.Class;
  S.RClk = 0; // The write supersedes the read slot.
}

void Simtsan::lockWordAccess(const SanAccess &A) {
  if (!isLockWord(A.Address))
    return;
  LockState &LS = Locks[A.Address];
  bool NowHeld = (A.Value & 1u) != 0;
  if (NowHeld) {
    // Even -> odd: an acquire (a failed CAS on an already-held lock leaves
    // the word odd too; only the first transition records ownership).
    if (!LS.Held) {
      LS.Held = true;
      LS.Owner = A.ThreadId;
      LS.VersionAtAcquire = A.Value >> 1;
      LS.AcquireCycle = A.Cycle;
      LS.OwnedWords.clear();
    }
    return;
  }
  if (!LS.Held)
    return; // Stores of an unlocked version (e.g. initialization).
  // Odd -> even: a release.
  if (A.ThreadId != LS.Owner) {
    SanReport R;
    R.Kind = ReportKind::LockNotOwner;
    R.Address = A.Address;
    R.Cycle = A.Cycle;
    R.Block = A.Block;
    R.Warp = A.WarpGid;
    R.Lane = A.Lane;
    R.Thread = A.ThreadId;
    R.Sm = A.Sm;
    R.Message = formatString(
        "version lock word %u released by thread %u but held by thread %u",
        A.Address, A.ThreadId, LS.Owner);
    report(ReportKind::LockNotOwner, A.Address, R);
  }
  Word NewVersion = A.Value >> 1;
  if (NewVersion < LS.VersionAtAcquire) {
    SanReport R;
    R.Kind = ReportKind::LockVersionRegression;
    R.Address = A.Address;
    R.Cycle = A.Cycle;
    R.Block = A.Block;
    R.Warp = A.WarpGid;
    R.Lane = A.Lane;
    R.Thread = A.ThreadId;
    R.Sm = A.Sm;
    R.Message = formatString(
        "version lock word %u released with version %u, below version %u "
        "observed at acquire (versions must be monotone)",
        A.Address, NewVersion, LS.VersionAtAcquire);
    report(ReportKind::LockVersionRegression, A.Address, R);
  } else if (NewVersion != LS.VersionAtAcquire &&
             A.ThreadId < UnfencedStore.size() && UnfencedStore[A.ThreadId]) {
    // A version-publishing release: every write-back store must be fenced
    // before the new version becomes visible (paper Algorithm 3 line 27).
    SanReport R;
    R.Kind = ReportKind::LockMissingFence;
    R.Address = A.Address;
    R.Cycle = A.Cycle;
    R.Block = A.Block;
    R.Warp = A.WarpGid;
    R.Lane = A.Lane;
    R.Thread = A.ThreadId;
    R.Sm = A.Sm;
    R.Message = formatString(
        "version lock word %u published version %u while thread %u has "
        "transactional stores not yet ordered by a threadfence",
        A.Address, NewVersion, A.ThreadId);
    report(ReportKind::LockMissingFence, A.Address, R);
  }
  LS.Held = false;
  LS.OwnedWords.clear();
}

void Simtsan::onAccess(const SanAccess &A) {
  if (A.WarpGid >= NumWarps)
    return;
  if (A.Op == SanOp::Atomic) {
    // Atomics synchronize: acquire-then-release on the per-address clock.
    VC &S = SyncClocks.try_emplace(A.Address, VC(NumWarps, 0)).first->second;
    joinInto(Clocks[A.WarpGid], S);
    joinInto(S, Clocks[A.WarpGid]);
    if (A.Class == MemClass::Meta)
      lockWordAccess(A);
    // Atomic data accesses are synchronization, not race candidates; they
    // are excluded from the shadow (an atomic racing a plain access is a
    // documented blind spot, DESIGN.md §8).
    return;
  }
  if (A.Class == MemClass::Meta) {
    // Metadata is read racily by design (lock-word peeks, clock reads);
    // only lock-protocol transitions are checked.
    if (A.Op == SanOp::Store)
      lockWordAccess(A);
    return;
  }
  if (A.Op == SanOp::Store) {
    if (A.Class == MemClass::TxData) {
      if (A.ThreadId < UnfencedStore.size())
        UnfencedStore[A.ThreadId] = 1;
      if (HasLayout) {
        // Remember write-back targets of the lock covering this word while
        // it is held, for the direct isolation check below.
        auto It = Locks.find(lockWordFor(A.Address));
        if (It != Locks.end() && It->second.Held)
          It->second.OwnedWords.insert(A.Address);
      }
    } else if (HasLayout) {
      // Plain store while an in-flight transaction owns this exact word:
      // an isolation violation even before any epoch math.
      auto It = Locks.find(lockWordFor(A.Address));
      if (It != Locks.end() && It->second.Held &&
          It->second.OwnedWords.count(A.Address)) {
        SanReport R;
        R.Kind = ReportKind::IsolationViolation;
        R.Address = A.Address;
        R.Cycle = A.Cycle;
        R.Block = A.Block;
        R.Warp = A.WarpGid;
        R.Lane = A.Lane;
        R.Thread = A.ThreadId;
        R.Sm = A.Sm;
        R.Message = formatString(
            "plain store to word %u while an in-flight transaction of "
            "thread %u holds its version lock and has written it",
            A.Address, It->second.Owner);
        report(ReportKind::IsolationViolation, A.Address, R);
      }
    }
    shadowStore(A);
    return;
  }
  shadowLoad(A);
}

void Simtsan::writeJson(std::ostream &OS) const {
  OS << "{\"tool\":\"simtsan\",\"findings\":" << TotalFindings
     << ",\"stored\":" << Reports.size() << ",\"counts\":{";
  bool FirstKind = true;
  for (unsigned K = 0; K < NumReportKinds; ++K) {
    if (KindCounts[K] == 0)
      continue;
    if (!FirstKind)
      OS << ',';
    FirstKind = false;
    OS << '"' << reportKindName(static_cast<ReportKind>(K))
       << "\":" << KindCounts[K];
  }
  OS << "},\"reports\":[";
  for (size_t I = 0; I < Reports.size(); ++I) {
    const SanReport &R = Reports[I];
    if (I != 0)
      OS << ',';
    OS << "{\"kind\":\"" << reportKindName(R.Kind) << '"';
    if (R.Address != simt::InvalidAddr)
      OS << ",\"address\":" << R.Address;
    OS << ",\"cycle\":" << R.Cycle << ",\"block\":" << R.Block
       << ",\"warp\":" << R.Warp << ",\"lane\":" << R.Lane
       << ",\"sm\":" << R.Sm << ",\"thread\":" << R.Thread;
    if (R.PrevClk != 0)
      OS << ",\"prev_warp\":" << R.PrevWarp << ",\"prev_clk\":" << R.PrevClk;
    // Messages are built from formatString with numeric arguments only, so
    // no JSON escaping is needed; keep them human-oriented.
    OS << ",\"message\":\"" << R.Message << "\"}";
  }
  OS << "]}\n";
}

bool Simtsan::writeJsonFile(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::binary);
  if (!OS)
    return false;
  writeJson(OS);
  return static_cast<bool>(OS);
}
