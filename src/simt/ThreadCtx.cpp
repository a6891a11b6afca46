//===- simt/ThreadCtx.cpp - Device-side thread API ------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/ThreadCtx.h"
#include "simt/Device.h"
#include "simt/Fiber.h"
#include "simt/Warp.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace gpustm;
using namespace gpustm::simt;

unsigned ThreadCtx::smId() const {
  assert(ParentWarp && "ThreadCtx not bound to a warp");
  return ParentWarp->block().HomeSM;
}

// Per-access observer event: fires after the memory effect and before
// notifyWrite, so a waking store's happens-before release is observed
// before the wake edge it triggers.
#define GPUSTM_REPORT_ACCESS(A, OPK)                                           \
  do {                                                                         \
    if (GPUSTM_UNLIKELY(Dev->observed()))                                      \
      reportAccess((A), SanOp::OPK);                                           \
  } while (false)

// Arena bounds check (always on): an out-of-arena word access used to be
// undefined behavior in release builds; now it is a diagnosable abort, with
// an observer report (simtsan's, say) first.
#define GPUSTM_CHECK_BOUNDS(A, OPK)                                            \
  do {                                                                         \
    if (GPUSTM_UNLIKELY(static_cast<size_t>(A) >= Dev->memory().size()))       \
      outOfBoundsAccess((A), SanOp::OPK);                                      \
  } while (false)

void ThreadCtx::reportAccess(Addr A, SanOp Op) {
  SanAccess E;
  E.Address = A;
  E.Value = Dev->memory().load(A);
  E.Cycle = Dev->now();
  E.WarpGid = warpGlobalId();
  E.Block = BlockIdx;
  E.Lane = LaneIdx;
  E.ThreadId = globalThreadId();
  E.Sm = smId();
  E.Op = Op;
  E.Class = memClass();
  for (Observer *O : Dev->observers())
    O->onAccess(E);
}

void ThreadCtx::outOfBoundsAccess(Addr A, SanOp Op) {
  const char *OpName = Op == SanOp::Load    ? "load"
                       : Op == SanOp::Store ? "store"
                                            : "atomic";
  SanAccess E;
  E.Address = A;
  E.Cycle = Dev->now();
  E.WarpGid = warpGlobalId();
  E.Block = BlockIdx;
  E.Lane = LaneIdx;
  E.ThreadId = globalThreadId();
  E.Sm = smId();
  E.Op = Op;
  E.Class = memClass();
  for (Observer *O : Dev->observers())
    O->onOutOfBounds(E);
  reportFatalError(formatString(
      "out-of-bounds global %s of word %u (arena holds %zu words) by "
      "block %u warp %u lane %u (thread %u) on SM %u at cycle %llu",
      OpName, A, Dev->memory().size(), BlockIdx, WarpIdxInBlock, LaneIdx,
      globalThreadId(), smId(),
      static_cast<unsigned long long>(Dev->now())));
}

Word ThreadCtx::yieldOp(const Op &O) {
  assert(Self && "ThreadCtx not bound to a lane");
  Self->PendingOp = O;
  Fiber::yieldToHost();
  return Self->OpResult;
}

void ThreadCtx::prefetchMem(Addr A) const { Dev->memory().prefetch(A); }

// The memory operations below act directly on the arena.  The weak-memory
// model hooks (Dev->ActiveWmm) and the observer access event never fire on
// the same launch (an attached observer disables the model), and each
// costs one predictable test when off.

Word ThreadCtx::load(Addr A) {
  GPUSTM_CHECK_BOUNDS(A, Load);
  wmm::MemModel *M = Dev->ActiveWmm;
  Word V = GPUSTM_UNLIKELY(M != nullptr) ? M->load(globalThreadId(), A)
                                         : Dev->memory().load(A);
  GPUSTM_REPORT_ACCESS(A, Load);
  ++Dev->Counters.Loads;
  Op O;
  O.Kind = OpKind::Load;
  O.Address = A;
  yieldOp(O);
  return V;
}

Word ThreadCtx::loadFresh(Addr A) {
  GPUSTM_CHECK_BOUNDS(A, Load);
  wmm::MemModel *M = Dev->ActiveWmm;
  Word V = GPUSTM_UNLIKELY(M != nullptr) ? M->loadFresh(globalThreadId(), A)
                                         : Dev->memory().load(A);
  GPUSTM_REPORT_ACCESS(A, Load);
  ++Dev->Counters.Loads;
  Op O;
  O.Kind = OpKind::Load;
  O.Address = A;
  yieldOp(O);
  return V;
}

void ThreadCtx::store(Addr A, Word V) {
  GPUSTM_CHECK_BOUNDS(A, Store);
  wmm::MemModel *M = Dev->ActiveWmm;
  if (GPUSTM_UNLIKELY(M != nullptr)) {
    // Buffered stores stay invisible (no memory write, no watcher wakeups)
    // until the model drains them through the Device's sink.
    if (!M->store(globalThreadId(), A, V)) {
      Dev->memory().store(A, V);
      Dev->notifyWrite(A);
    }
  } else {
    Dev->memory().store(A, V);
    GPUSTM_REPORT_ACCESS(A, Store);
    Dev->notifyWrite(A);
  }
  ++Dev->Counters.Stores;
  Op O;
  O.Kind = OpKind::Store;
  O.Address = A;
  yieldOp(O);
}

template <typename RmwFn> Word ThreadCtx::atomicRmw(Addr A, RmwFn Rmw) {
  GPUSTM_CHECK_BOUNDS(A, Atomic);
  wmm::MemModel *M = Dev->ActiveWmm;
  if (GPUSTM_UNLIKELY(M != nullptr))
    M->preAtomic(globalThreadId(), A);
  Word Old = Rmw(Dev->memory());
  GPUSTM_REPORT_ACCESS(A, Atomic);
  Dev->notifyWrite(A);
  if (GPUSTM_UNLIKELY(M != nullptr))
    M->postAtomic(globalThreadId(), A);
  ++Dev->Counters.Atomics;
  Op O;
  O.Kind = OpKind::Atomic;
  O.Address = A;
  yieldOp(O);
  return Old;
}

Word ThreadCtx::atomicCAS(Addr A, Word Expected, Word Desired) {
  return atomicRmw(
      A, [&](Memory &Mem) { return Mem.atomicCAS(A, Expected, Desired); });
}

Word ThreadCtx::atomicAdd(Addr A, Word V) {
  return atomicRmw(A, [&](Memory &Mem) { return Mem.atomicAdd(A, V); });
}

Word ThreadCtx::atomicOr(Addr A, Word V) {
  return atomicRmw(A, [&](Memory &Mem) { return Mem.atomicOr(A, V); });
}

Word ThreadCtx::atomicExch(Addr A, Word V) {
  return atomicRmw(A, [&](Memory &Mem) { return Mem.atomicExch(A, V); });
}

Word ThreadCtx::atomicMin(Addr A, Word V) {
  return atomicRmw(A, [&](Memory &Mem) { return Mem.atomicMin(A, V); });
}

void ThreadCtx::threadfence() {
  // Weak-memory mode: the fence drains this lane's store buffer and raises
  // its binding floor (the fence's two ordering guarantees).
  if (wmm::MemModel *M = Dev->ActiveWmm; GPUSTM_UNLIKELY(M != nullptr))
    M->fence(globalThreadId());
  ++Dev->Counters.Fences;
  if (GPUSTM_UNLIKELY(Dev->observed()))
    for (Observer *O : Dev->observers())
      O->onFence(globalThreadId());
  Op O;
  O.Kind = OpKind::Fence;
  yieldOp(O);
}

void ThreadCtx::compute(uint32_t Cycles) {
  Op O;
  O.Kind = OpKind::Compute;
  O.Cycles = Cycles;
  yieldOp(O);
}

void ThreadCtx::memWait(Addr A, MemWaitKind Kind, Word Operand) {
  GPUSTM_CHECK_BOUNDS(A, Load);
  // The wait's poll reads real memory (Warp.cpp), so under weak memory it
  // is a fresh observation of A: drain own same-address entries and bind
  // the address at "now" (spin loops never starve on a stale binding).
  if (wmm::MemModel *M = Dev->ActiveWmm; GPUSTM_UNLIKELY(M != nullptr))
    M->observeFresh(globalThreadId(), A);
  Op O;
  O.Kind = OpKind::MemWait;
  O.Address = A;
  O.Cycles = Operand;
  O.Wait = Kind;
  yieldOp(O);
}

void ThreadCtx::memWaitEquals(Addr A, Word V) {
  memWait(A, MemWaitKind::Equals, V);
}

void ThreadCtx::memWaitBitClear(Addr A, Word Mask) {
  memWait(A, MemWaitKind::BitClear, Mask);
}

void ThreadCtx::syncThreads() {
  // Weak memory: a block barrier drains the arriving lane's buffer and orders
  // its observations (the release side is completed by the Device's
  // syncPoint when the barrier opens).
  if (wmm::MemModel *M = Dev->ActiveWmm; GPUSTM_UNLIKELY(M != nullptr))
    M->barrierArrive(globalThreadId());
  Op O;
  O.Kind = OpKind::BlockBarrier;
  yieldOp(O);
}

void ThreadCtx::syncWarp() {
  // Weak memory: a warp-level sync drains the arriving lane's buffer and orders
  // its observations (the release side is completed by the Device's
  // syncPoint when the barrier opens).
  if (wmm::MemModel *M = Dev->ActiveWmm; GPUSTM_UNLIKELY(M != nullptr))
    M->barrierArrive(globalThreadId());
  Op O;
  O.Kind = OpKind::WarpSync;
  yieldOp(O);
}

uint64_t ThreadCtx::ballot(bool Predicate) {
  Op O;
  O.Kind = OpKind::Ballot;
  O.Flag = Predicate;
  yieldOp(O);
  return static_cast<uint64_t>(Self->OpResult) |
         (static_cast<uint64_t>(Self->OpResultHi) << 32);
}

void ThreadCtx::simtIf(bool Cond, function_ref<void()> Then,
                       function_ref<void()> Else) {
  Op Begin;
  Begin.Kind = OpKind::BranchBegin;
  Begin.Flag = Cond;
  yieldOp(Begin);
  if (Cond && Then)
    Then();
  Op Mid;
  Mid.Kind = OpKind::BranchElse;
  yieldOp(Mid);
  if (!Cond && Else)
    Else();
  Op End;
  End.Kind = OpKind::BranchEnd;
  yieldOp(End);
}

void ThreadCtx::simtWhile(function_ref<bool()> Cond,
                          function_ref<void()> Body) {
  Op Begin;
  Begin.Kind = OpKind::LoopBegin;
  yieldOp(Begin);
  for (;;) {
    bool C = Cond();
    Op Test;
    Test.Kind = OpKind::LoopTest;
    Test.Flag = C;
    yieldOp(Test);
    if (!C)
      break;
    Body();
  }
  Op End;
  End.Kind = OpKind::LoopEnd;
  yieldOp(End);
}

Phase ThreadCtx::setPhase(Phase P) {
  Phase Old = Self->CurPhase;
  Self->CurPhase = P;
  return Old;
}

Phase ThreadCtx::currentPhase() const { return Self->CurPhase; }

void ThreadCtx::txMarkBegin() {
  assert(!Self->InTxScope && "nested transaction attribution scope");
  Self->InTxScope = true;
  std::fill(std::begin(Self->TxTentative), std::end(Self->TxTentative), 0);
}

void ThreadCtx::txMarkEnd(bool Committed) {
  assert(Self->InTxScope && "txMarkEnd without txMarkBegin");
  Self->InTxScope = false;
  for (unsigned P = 0; P < NumPhases; ++P) {
    if (Committed)
      Self->PhaseCycles[P] += Self->TxTentative[P];
    else
      Self->AbortedCycles += Self->TxTentative[P];
    Self->TxTentative[P] = 0;
  }
}
