//===- simt/Observer.h - Host-side run observer interface -------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interface through which an instrument watches a simulated run:
/// the trace recorder (src/trace/), simtsan (src/analysis/, the opt-in
/// race / isolation / SIMT-hazard detector) and tests attach an Observer
/// with Device::addObserver.  It lives in src/simt/ so both the simulator
/// and the STM runtime can deliver events without depending on the
/// instruments (stm::TxEvent is only forward-declared here).
///
/// Zero-overhead contract: every event site guards with
/// `GPUSTM_UNLIKELY(observed())`, and delivery is host-side only (no
/// simulated device operation is ever issued for it), so modeled cycles,
/// counters and results are bit-identical with or without observers.
/// Every observer assumes sequentially consistent memory: while one is
/// attached, an attached weak-memory model sits out the launch.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_OBSERVER_H
#define GPUSTM_SIMT_OBSERVER_H

#include "simt/Memory.h"
#include "simt/Op.h"

#include <cstdint>

namespace gpustm {
namespace stm {
struct TxEvent;
} // namespace stm

namespace simt {

/// How an access participates in the STM protocol.  The STM annotates its
/// own accesses (see ThreadCtx::setMemClass); kernel code defaults to Plain.
enum class MemClass : uint8_t {
  Plain,  ///< Ordinary non-transactional program access.
  TxData, ///< Transactional access to a program data word (TXRead's load,
          ///< validation re-reads, commit write-back stores, CGL-mode
          ///< direct accesses).
  Meta,   ///< STM metadata: logs, version-lock words, clocks, CGL
          ///< tickets, backoff tokens.  Excluded from race detection (the
          ///< paper's algorithm reads lock words racily by design) but
          ///< drives the lock-ownership invariant checks.
};

/// The memory operation category an access event reports.
enum class SanOp : uint8_t { Load, Store, Atomic };

/// One observed lane memory access, with full simulated coordinates.
struct SanAccess {
  Addr Address = InvalidAddr;
  Word Value = 0; ///< Memory content at Address after the operation.
  uint64_t Cycle = 0;
  unsigned WarpGid = 0;  ///< Globally unique warp id for the launch.
  unsigned Block = 0;    ///< Block index within the grid.
  unsigned Lane = 0;     ///< Lane index within the warp.
  unsigned ThreadId = 0; ///< Global thread id.
  unsigned Sm = 0;       ///< SM the lane's block is resident on.
  SanOp Op = SanOp::Load;
  MemClass Class = MemClass::Plain;
};

/// One lane arriving at a block barrier, with the warp's current active
/// mask and the mask a convergent arrival would have.
struct SanBarrier {
  uint64_t Cycle = 0;
  unsigned WarpGid = 0;
  unsigned Block = 0;
  unsigned Lane = 0;
  unsigned ThreadId = 0;
  unsigned Sm = 0;
  uint64_t ActiveMask = 0;   ///< Lanes executing the barrier together.
  uint64_t ExpectedMask = 0; ///< All live lanes of the warp.
};

/// STM metadata geometry, registered by StmRuntime's constructor so the
/// detector can recognize version-lock words and check their invariants.
struct SanStmLayout {
  Addr LockTabBase = InvalidAddr;
  Word NumLocks = 0; ///< Power of two; lock index = addr & (NumLocks - 1).
  Addr ClockAddr = InvalidAddr;
  Addr SeqLockAddr = InvalidAddr; ///< NOrec sequence lock (VBV).
};

/// One lane operation, reported right after the lane yields it.
struct TraceEvent {
  uint64_t IssueCycle; ///< Issue time of the warp round.
  unsigned BlockIdx;
  unsigned WarpIdInBlock;
  unsigned LaneIdx;
  unsigned SmIdx; ///< SM the lane's block is resident on.
  OpKind Kind;    ///< None: the lane's kernel returned (finish marker).
  Addr Address;   ///< InvalidAddr for non-memory ops and finish markers.
  Word Value = 0; ///< Memory content at Address right after this lane's op
                  ///< (later lanes of the round have not run yet); 0 when
                  ///< Address is InvalidAddr.
  Phase LanePhase;
};

/// Host-side observer of simulator and STM events (see file comment).
/// All methods default to no-ops so observers override only what they use.
class Observer {
public:
  virtual ~Observer();

  /// A kernel launch begins / ends.  \p Clean is false after a watchdog
  /// trip or deadlock (end-of-kernel invariant checks are skipped then).
  virtual void onLaunch(unsigned GridDim, unsigned BlockDim,
                        unsigned WarpSize) {
    (void)GridDim;
    (void)BlockDim;
    (void)WarpSize;
  }
  virtual void onLaunchEnd(bool Clean) { (void)Clean; }

  /// Warp \p WarpGid begins a lockstep round (its per-warp logical clock
  /// ticks; accesses within one round share an epoch).
  virtual void onRoundBegin(unsigned WarpGid) { (void)WarpGid; }

  /// One lane operation of the executing round, in issue order (lanes step
  /// in increasing index order within a round).
  virtual void onOp(const TraceEvent &E) { (void)E; }

  /// One lane memory access (loads, stores, atomics; memWait polling reads
  /// are reported through onMemWait instead).
  virtual void onAccess(const SanAccess &A) { (void)A; }

  /// A __threadfence() by global thread \p ThreadId.
  virtual void onFence(unsigned ThreadId) { (void)ThreadId; }

  /// Warp \p WarpGid executed a memWait on \p A (parked or passed
  /// immediately); an acquire of the last release to \p A.
  virtual void onMemWait(unsigned WarpGid, Addr A) {
    (void)WarpGid;
    (void)A;
  }

  /// A store by \p StorerWarpGid woke a lane of \p WokenWarpGid from a
  /// memWait (a happens-before edge from the storer to the waiter).
  virtual void onWakeEdge(unsigned WokenWarpGid, unsigned StorerWarpGid) {
    (void)WokenWarpGid;
    (void)StorerWarpGid;
  }

  /// One lane arrived at a block barrier (divergence is checked by
  /// comparing the masks in \p B).
  virtual void onBarrierArrive(const SanBarrier &B) { (void)B; }

  /// The block barrier of \p BlockIdx completed and released its waiters.
  /// \p ByLaneExit is true when completion was forced by the last
  /// non-arrived lane exiting the kernel (a skipped-barrier hazard).
  virtual void onBarrierRelease(unsigned BlockIdx, bool ByLaneExit,
                                uint64_t Cycle) {
    (void)BlockIdx;
    (void)ByLaneExit;
    (void)Cycle;
  }

  /// STM metadata geometry (fired by StmRuntime's constructor).
  virtual void onStmRegister(const SanStmLayout &L) { (void)L; }

  /// One transaction lifecycle event (stm/TxEvents.h).  An attempt ends
  /// with exactly one Commit or Abort event.
  virtual void onTxEvent(const stm::TxEvent &E) { (void)E; }

  /// A lane issued an access outside the memory arena.  The simulator
  /// aborts right after this event (the access has no defined semantics),
  /// so implementations should emit their report immediately.
  virtual void onOutOfBounds(const SanAccess &A) { (void)A; }

  /// Findings recorded so far (lets the harness report a caller-owned
  /// observer's totals without knowing its concrete type).
  virtual uint64_t findingCount() const { return 0; }
};

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_OBSERVER_H
