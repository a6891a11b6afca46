//===- simt/ThreadCtx.h - Device-side thread API ----------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadCtx is the device-side API handed to every simulated GPU thread
/// (one per lane).  It plays the role CUDA device intrinsics play in the
/// paper's prototype: global loads/stores, atomics, threadfence, barriers,
/// warp votes, and structured SIMT control flow (simtIf / simtWhile, which
/// model the hardware reconvergence stack).
///
/// Every call that touches simulated memory or synchronizes suspends the
/// lane's fiber for one warp "round", giving lockstep round semantics
/// within a warp: each scheduling round, every active lane executes exactly
/// one device operation.  Plain C++ computation between calls is free
/// (register/ALU work can be modeled explicitly with compute()).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_THREADCTX_H
#define GPUSTM_SIMT_THREADCTX_H

#include "simt/Memory.h"
#include "simt/Op.h"
#include "simt/Observer.h"
#include "support/Compiler.h"
#include "support/FunctionRef.h"

#include <cstdint>

namespace gpustm {
namespace simt {

class Device;
class Warp;
struct Lane;

/// Per-thread device execution context (see file comment).
class ThreadCtx {
public:
  ThreadCtx() = default;

  //===--------------------------------------------------------------------===//
  // Identity
  //===--------------------------------------------------------------------===//

  /// Lane index within the warp [0, warpSize).
  unsigned laneId() const { return LaneIdx; }
  /// Thread index within the block.
  unsigned threadIdxInBlock() const { return ThreadIdx; }
  /// Block index within the grid.
  unsigned blockIdx() const { return BlockIdx; }
  /// Threads per block for this launch.
  unsigned blockDim() const { return BlockDimV; }
  /// Blocks in the grid for this launch.
  unsigned gridDim() const { return GridDimV; }
  /// Warp size for this device.
  unsigned warpSize() const { return WarpSizeV; }
  /// Globally unique thread id: blockIdx * blockDim + threadIdx.
  unsigned globalThreadId() const { return BlockIdx * BlockDimV + ThreadIdx; }
  /// Warp index within the block.
  unsigned warpIdInBlock() const { return WarpIdxInBlock; }
  /// Globally unique warp id across the launch.
  unsigned warpGlobalId() const {
    unsigned WarpsPerBlock = (BlockDimV + WarpSizeV - 1) / WarpSizeV;
    return BlockIdx * WarpsPerBlock + WarpIdxInBlock;
  }
  /// SM the thread's block is resident on (stable for the block's life).
  unsigned smId() const;

  //===--------------------------------------------------------------------===//
  // Global memory
  //===--------------------------------------------------------------------===//

  /// Global load of one word.
  Word load(Addr A);
  /// L1-bypassing global load (CUDA `ld.global.cg`): always reads the
  /// current L2/global value.  Identical to load() in cost and on the
  /// default SC substrate; under the weak-memory model (GPUSTM_WMM) it
  /// binds at "now" instead of an oracle-chosen past point.  The STM's
  /// value-validation re-reads must use this -- a cached plain load could
  /// satisfy validation with the very staleness it is probing for.
  Word loadFresh(Addr A);
  /// Global store of one word.
  void store(Addr A, Word V);
  /// Host-cache prefetch hint for \p A (see Memory::prefetch).  Free in the
  /// cost model; does not yield and cannot affect simulation results.
  void prefetchMem(Addr A) const;
  /// atomicCAS: if *A == Expected then *A = Desired; returns old *A.
  Word atomicCAS(Addr A, Word Expected, Word Desired);
  /// atomicAdd: *A += V; returns old *A.
  Word atomicAdd(Addr A, Word V);
  /// atomicOr: *A |= V; returns old *A.
  Word atomicOr(Addr A, Word V);
  /// atomicExch: *A = V; returns old *A.
  Word atomicExch(Addr A, Word V);
  /// atomicMin: *A = min(*A, V); returns old *A.
  Word atomicMin(Addr A, Word V);
  /// CUDA __threadfence(): orders this lane's prior accesses.  On the
  /// default sequentially consistent substrate this only costs cycles; in
  /// weak-memory mode (GPUSTM_WMM, DESIGN.md section 11) it drains the
  /// lane's store buffer and raises its load-binding floor, so the fences
  /// Algorithm 3 places are functionally load-bearing and elisions are
  /// observable.
  void threadfence();
  /// Explicit ALU work of \p Cycles cycles (models native computation).
  void compute(uint32_t Cycles = 1);

  /// Spin-wait primitives.  Semantically these behave like a polling loop
  /// (`while (*A != V) ;`), but the simulator parks the lane and wakes it on
  /// a qualifying store instead of burning one round per poll, so
  /// high-contention locks (the CGL baseline, NOrec's sequence lock) stay
  /// simulable at large thread counts.  Wake-up is advisory -- another
  /// thread may invalidate the condition before this lane runs again --
  /// so callers must re-check in a load loop.
  void memWaitEquals(Addr A, Word V);
  /// Park until (*A & Mask) == 0.
  void memWaitBitClear(Addr A, Word Mask);

  //===--------------------------------------------------------------------===//
  // Synchronization and SIMT control flow
  //===--------------------------------------------------------------------===//

  /// CUDA __syncthreads(): block-wide barrier.
  void syncThreads();
  /// Warp-wide convergence point (all currently active lanes arrive, then
  /// all proceed).  Useful for warp-serialized sections (Scheme #2).
  void syncWarp();
  /// Warp vote: returns a bitmask with bit i set iff active lane i passed a
  /// true predicate.
  uint64_t ballot(bool Predicate);

  /// Structured SIMT branch: models the hardware reconvergence stack.  All
  /// active lanes must reach the same simtIf together (lockstep).  Lanes
  /// with a true condition run \p Then while the rest are masked off; then
  /// the false lanes run \p Else; all reconverge afterwards.
  void simtIf(bool Cond, function_ref<void()> Then,
              function_ref<void()> Else = nullptr);

  /// Structured SIMT loop.  Each iteration, \p Cond is evaluated by every
  /// lane still in the loop; lanes whose condition turns false are masked
  /// off at the loop exit and wait there until *all* lanes have left the
  /// loop (hardware reconvergence).  This faithfully reproduces the SIMT
  /// spin-lock deadlock of the paper's Algorithm 1 Scheme #1: a lane that
  /// exits (lock holder) is masked off and cannot release the lock while
  /// another lane spins forever.  \p Cond must not perform device
  /// operations; do memory work in \p Body.
  void simtWhile(function_ref<bool()> Cond, function_ref<void()> Body);

  //===--------------------------------------------------------------------===//
  // Cycle attribution (paper Figure 5)
  //===--------------------------------------------------------------------===//

  /// Tag subsequent cycles with phase \p P; returns the previous phase.
  Phase setPhase(Phase P);
  /// Current attribution phase.
  Phase currentPhase() const;
  /// Begin a transaction attribution scope: cycles are held in a tentative
  /// bucket until txMarkEnd decides commit (real phases) or abort ("wasted"
  /// bucket).
  void txMarkBegin();
  /// End the transaction attribution scope.
  void txMarkEnd(bool Committed);

  //===--------------------------------------------------------------------===//
  // Access-class annotation (see simt/Observer.h)
  //===--------------------------------------------------------------------===//

  /// Tag subsequent memory accesses with \p C for observers; returns the
  /// previous class (restore it when the annotated region ends, or use
  /// MemClassScope).  A pure host-side tag: it never affects simulation
  /// results.
  MemClass setMemClass(MemClass C) {
    MemClass Old = CurClass;
    CurClass = C;
    return Old;
  }
  /// Current access-class tag.
  MemClass memClass() const { return CurClass; }

private:
  friend class Warp;
  friend class Device;

  /// Record \p O as this lane's operation for the current round and suspend
  /// until the warp scheduler steps the lane again.  Returns the op result
  /// (used by ballot).
  Word yieldOp(const Op &O);
  /// The one body of the memWait* family: park until the word at \p A
  /// meets (\p Kind, \p Operand).
  void memWait(Addr A, MemWaitKind Kind, Word Operand);
  /// The one body of the atomic* family: bounds check, weak-memory
  /// preAtomic, \p Rmw's memory effect (it returns the old word), observer
  /// report, wake-ups, postAtomic, counter, yield.
  template <typename RmwFn> Word atomicRmw(Addr A, RmwFn Rmw);

  /// Cold path of the per-access event: build a SanAccess with full
  /// coordinates and deliver it (callers guard on Dev->observed()).
  GPUSTM_NOINLINE void reportAccess(Addr A, SanOp Op);
  /// An access left the memory arena: report it to the observers, then
  /// abort with coordinates (never undefined behavior).
  [[noreturn]] GPUSTM_NOINLINE void outOfBoundsAccess(Addr A, SanOp Op);

  Device *Dev = nullptr;
  Warp *ParentWarp = nullptr;
  Lane *Self = nullptr;
  unsigned LaneIdx = 0;
  unsigned WarpIdxInBlock = 0;
  unsigned ThreadIdx = 0;
  unsigned BlockIdx = 0;
  unsigned BlockDimV = 0;
  unsigned GridDimV = 0;
  unsigned WarpSizeV = 0;
  MemClass CurClass = MemClass::Plain;
};

/// RAII access-class tag: annotates every access in scope with \p C and
/// restores the previous class on exit.
class MemClassScope {
public:
  MemClassScope(ThreadCtx &Ctx, MemClass C) : Ctx(Ctx), Old(Ctx.setMemClass(C)) {}
  ~MemClassScope() { Ctx.setMemClass(Old); }
  MemClassScope(const MemClassScope &) = delete;
  MemClassScope &operator=(const MemClassScope &) = delete;

private:
  ThreadCtx &Ctx;
  MemClass Old;
};

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_THREADCTX_H
