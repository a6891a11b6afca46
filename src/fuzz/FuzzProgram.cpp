//===- fuzz/FuzzProgram.cpp - Random transactional programs ---------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzProgram.h"
#include "support/Format.h"

#include <algorithm>

using namespace gpustm;
using namespace gpustm::fuzz;

std::string FuzzProgram::summary() const {
  return formatString(
      "seed=%llu grid=%u block=%u warp=%u sms=%u tasks=%u txs=%u ops=%zu "
      "shared=%u locks=%zu rcap=%u wcap=%u llog=%ux%u coal=%d prelock=%d "
      "schedfuzz=%llu",
      static_cast<unsigned long long>(Seed), GridDim, BlockDim, WarpSize,
      NumSMs, NumTasks, totalTxs(), totalOps(), SharedWords, NumLocks,
      ReadSetCap, WriteSetCap, LockLogBuckets, LockLogBucketCap,
      CoalescedLogs ? 1 : 0, PreLockValidation ? 1 : 0,
      static_cast<unsigned long long>(SchedFuzzSeed));
}

FuzzProgram gpustm::fuzz::generateProgram(uint64_t Seed) {
  // Derive the generator stream from the seed alone: the program is a pure
  // function of it, so every failure replays from its 64-bit seed.
  Rng R(Seed ^ 0xf0221u);
  FuzzProgram P;
  P.Seed = Seed;

  // Device and launch shape.  Kept small: the fuzzer's power comes from
  // many seeds, not big grids.
  static const unsigned WarpSizes[] = {4, 8, 16, 32};
  static const unsigned SmCounts[] = {1, 2, 4};
  P.WarpSize = WarpSizes[R.nextBelow(4)];
  P.NumSMs = SmCounts[R.nextBelow(3)];
  if (R.nextBool(0.7))
    P.BlockDim = P.WarpSize * static_cast<unsigned>(R.nextInRange(
                                  1, std::max(1u, 128 / P.WarpSize)));
  else // Partial warps: BlockDim not a multiple of the warp size.
    P.BlockDim = static_cast<unsigned>(R.nextInRange(1, 128));
  P.GridDim = static_cast<unsigned>(R.nextInRange(1, 4));
  unsigned TotalThreads = P.GridDim * P.BlockDim;
  // Tasks may outnumber threads (the harness stride-loops them).
  P.NumTasks = static_cast<unsigned>(
      R.nextInRange(1, std::min(192u, TotalThreads * 2)));

  // Memory and footprint shape.  Small shared arrays force contention.
  P.SharedWords = static_cast<unsigned>(
      R.nextBool(0.4) ? R.nextInRange(4, 12) : R.nextInRange(12, 96));
  P.PrivWords = 4;
  unsigned MaxOpsPerTx = static_cast<unsigned>(R.nextInRange(2, 12));
  P.MaxTxPerTask = static_cast<unsigned>(R.nextInRange(1, 5));

  // StmConfig under test.  Caps must always admit the largest transaction
  // (a legitimately overflowing program is a misconfiguration, not a bug),
  // but "tight" caps exercise the overflow-recovery path when doomed
  // attempts chase data-dependent addresses.
  P.NumLocks = 1ull << R.nextInRange(2, 10);
  bool TightCaps = R.nextBool(0.3);
  P.ReadSetCap =
      MaxOpsPerTx + (TightCaps ? 0u : static_cast<unsigned>(R.nextBelow(33)));
  P.WriteSetCap =
      MaxOpsPerTx + (TightCaps ? 0u : static_cast<unsigned>(R.nextBelow(33)));
  static const unsigned Buckets[] = {1, 2, 4, 8, 16};
  P.LockLogBuckets = Buckets[R.nextBelow(5)];
  P.LockLogBucketCap =
      MaxOpsPerTx + (TightCaps ? 0u : static_cast<unsigned>(R.nextBelow(17)));
  P.CoalescedLogs = R.nextBool(0.5);
  P.PreLockValidation = R.nextBool(0.8);
  // Draws of deleted knobs, discarded so every seed still names its program.
  if (R.nextDouble() >= 0.8)
    (void)R.nextInRange(1, std::max(1u, TotalThreads));
  (void)R.nextBool(0.15);
  P.SchedFuzzSeed = R.nextBool(0.5) ? R.next() | 1 : 0;
  P.NativeComputePerTask = static_cast<uint32_t>(R.nextBelow(8));

  P.InitShared.resize(P.SharedWords);
  for (Word &W : P.InitShared)
    W = static_cast<Word>(R.next());

  // Hot-spot bias: half the programs draw most slots from a tiny window so
  // transactions actually conflict.
  bool HotSpot = R.nextBool(0.5);
  unsigned HotBase = static_cast<unsigned>(R.nextBelow(P.SharedWords));
  unsigned HotSpan =
      static_cast<unsigned>(R.nextInRange(2, std::max(2u, P.SharedWords / 4)));
  auto pickSlot = [&]() -> uint32_t {
    if (HotSpot && R.nextBool(0.75))
      return HotBase + static_cast<uint32_t>(R.nextBelow(HotSpan));
    return static_cast<uint32_t>(R.nextBelow(P.SharedWords));
  };

  P.Tasks.resize(P.NumTasks);
  for (unsigned TaskI = 0; TaskI < P.NumTasks; ++TaskI) {
    FuzzTask &Task = P.Tasks[TaskI];
    if (R.nextBool(0.1))
      continue; // A few tasks do nothing (pure native threads).
    unsigned NumTxs =
        static_cast<unsigned>(R.nextInRange(1, P.MaxTxPerTask));
    Task.Txs.resize(NumTxs);
    for (FuzzTx &Tx : Task.Txs) {
      Tx.ReadOnly = R.nextBool(0.15);
      Tx.AbortFirstAttempt = R.nextBool(0.1);
      unsigned NumPre = static_cast<unsigned>(R.nextBelow(3));
      for (unsigned I = 0; I < NumPre; ++I) {
        FuzzPreOp Op;
        double Roll = R.nextDouble();
        Op.Kind = Roll < 0.4   ? FuzzPreOpKind::NativeLoad
                  : Roll < 0.7 ? FuzzPreOpKind::NativeStore
                               : FuzzPreOpKind::Compute;
        Op.Slot = static_cast<uint32_t>(R.nextBelow(P.PrivWords));
        Op.Val = static_cast<uint32_t>(R.next());
        Tx.PreOps.push_back(Op);
      }
      unsigned NumOps = static_cast<unsigned>(R.nextInRange(1, MaxOpsPerTx));
      bool HasWrite = false;
      for (unsigned I = 0; I < NumOps; ++I) {
        FuzzOp Op;
        if (Tx.ReadOnly) {
          Op.Kind = FuzzOpKind::TxRead;
        } else {
          double Roll = R.nextDouble();
          Op.Kind = Roll < 0.45  ? FuzzOpKind::TxRead
                    : Roll < 0.8 ? FuzzOpKind::TxWrite
                                 : FuzzOpKind::TxRmw;
        }
        // Read-after-write bias: reuse the previous op's slot so the
        // write-buffer lookup (and its bloom filter) gets exercised.
        if (!Tx.Ops.empty() && R.nextBool(0.3))
          Op.Slot = Tx.Ops.back().Slot;
        else
          Op.Slot = pickSlot();
        Op.Val = static_cast<uint32_t>(R.next());
        Op.AccAddr = R.nextBool(0.3);
        Op.Span = static_cast<uint32_t>(
            R.nextInRange(1, std::max(2u, P.SharedWords / 2)));
        HasWrite |= Op.Kind != FuzzOpKind::TxRead;
        Tx.Ops.push_back(Op);
      }
      // An update transaction must write: the journal expects a fresh
      // commit version from it.
      if (!Tx.ReadOnly && !HasWrite)
        Tx.Ops.back().Kind = FuzzOpKind::TxWrite;
    }
  }
  return P;
}
