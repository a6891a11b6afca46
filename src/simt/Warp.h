//===- simt/Warp.h - Lockstep warp round engine -----------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A warp groups up to warpSize lanes that execute in lockstep *rounds*:
/// each round, every active lane performs exactly one device operation.
/// The warp resolves intra-warp synchronization (ballot, warp sync) and
/// structured divergence (simtIf / simtWhile) through a reconvergence
/// stack of mask frames, mirroring the hardware SIMT stack the paper's
/// Section 2 describes.  The round engine also computes the cycle cost of
/// each round: memory accesses are coalesced into segments, atomics to the
/// same address serialize, and the resulting latency is charged to the warp
/// while the SM issue stage is only briefly occupied (latency hiding is the
/// job of the per-SM scheduler in Device.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_WARP_H
#define GPUSTM_SIMT_WARP_H

#include "simt/Fiber.h"
#include "simt/Op.h"
#include "simt/ThreadCtx.h"
#include "simt/Timing.h"

#include <cstdint>
#include <vector>

namespace gpustm {
namespace simt {

class Device;
struct BlockState;

/// Scheduling state of one lane.
enum class LaneState : uint8_t {
  Runnable,      ///< Will execute an operation next round.
  Finished,      ///< Kernel body returned.
  AtWarpSync,    ///< Parked at syncWarp().
  AtBallot,      ///< Parked at ballot().
  AtBranchBegin, ///< Parked at a simtIf divergence point.
  AtBranchElse,  ///< Then-side done; parked at the else boundary.
  AtBranchEnd,   ///< Parked at the simtIf reconvergence point.
  AtLoopBegin,   ///< Parked at a simtWhile entry marker.
  AtLoopTest,    ///< Parked at a simtWhile iteration test.
  AtLoopExit,    ///< Left the loop; masked off until all lanes leave.
  AtLoopEnd,     ///< Parked at the simtWhile reconvergence point.
  AtBlockBarrier,///< Parked at __syncthreads().
  AtMemWait      ///< Parked at a memWait (woken by a qualifying store).
};

/// Number of LaneState values (size of the per-state mask table).
inline constexpr unsigned NumLaneStates =
    static_cast<unsigned>(LaneState::AtMemWait) + 1;

/// One simulated GPU thread: a fiber plus its scheduling and attribution
/// state.
struct Lane {
  Fiber Fib;
  ThreadCtx Ctx;
  LaneState State = LaneState::Runnable;
  Op PendingOp;        ///< Operation yielded this round.
  Word OpResult = 0;   ///< Result delivered on resume (ballot mask bits).
  Word OpResultHi = 0; ///< High half for 64-bit ballot results.

  /// Cycle attribution (paper Figure 5).
  Phase CurPhase = Phase::Native;
  bool InTxScope = false;
  uint64_t PhaseCycles[NumPhases] = {};
  uint64_t TxTentative[NumPhases] = {};
  uint64_t AbortedCycles = 0;

  /// Charge \p Cycles to the current phase (tentative while in a tx scope).
  void charge(uint64_t Cycles) {
    if (InTxScope)
      TxTentative[static_cast<unsigned>(CurPhase)] += Cycles;
    else
      PhaseCycles[static_cast<unsigned>(CurPhase)] += Cycles;
  }
};

/// Reconvergence-stack frame for structured divergence.
struct SimtFrame {
  enum KindT : uint8_t { If, Loop } Kind = If;
  /// If frames run three phases: the taken side, the not-taken side, and a
  /// short join drain where the taken lanes advance to the reconvergence
  /// point.
  enum IfPhaseT : uint8_t { PhaseThen, PhaseElse, PhaseJoin };
  /// Lanes participating in this construct.
  uint64_t Members = 0;
  /// If: lanes on the taken side / the not-taken side.
  uint64_t ThenMask = 0;
  uint64_t ElseMask = 0;
  IfPhaseT IfPhase = PhaseThen;
  /// Loop: lanes still iterating (zero once the loop is draining to the
  /// reconvergence point).
  uint64_t LoopActive = 0;
};

/// A warp of lanes executing in lockstep rounds.  Owned by Device.
class Warp {
public:
  Warp(Device &Dev, BlockState &Block, unsigned WarpIdInBlock,
       unsigned NumLanes);

  /// Run one lockstep round: step every runnable lane once, resolve warp
  /// synchronization and divergence, and compute the round's cycle cost.
  /// Requires hasRunnableLane().
  RoundCost executeRound();

  /// True if some lane can be stepped this round.
  bool hasRunnableLane() const {
    return StateMask[static_cast<unsigned>(LaneState::Runnable)] != 0;
  }

  /// Host-cache prefetch hint for the first runnable lane's switch frame
  /// (issued by the scheduler when this warp becomes an SM's candidate).
  void prefetchFirstRunnable() const;

  /// Release all lanes parked at the block barrier (called by Device when
  /// the whole block has arrived).
  void releaseBlockBarrier();

  /// Lanes in this warp.
  unsigned numLanes() const { return static_cast<unsigned>(Lanes.size()); }
  Lane &lane(unsigned I) { return Lanes[I]; }
  const Lane &lane(unsigned I) const { return Lanes[I]; }

  /// Cycle at which this warp may issue its next round (managed by the SM
  /// scheduler).
  uint64_t ReadyAt = 0;

  BlockState &block() { return *Block; }

private:
  friend class ThreadCtx;
  friend class Device;

  /// Step one lane: resume its fiber until it yields an op or finishes.
  void stepLane(unsigned I);
  /// Cold path of stepLane while observed: deliver lane \p I's just-yielded
  /// op (or its finish marker) to the device's observers.
  GPUSTM_NOINLINE void reportOp(unsigned I);
  /// Try to resolve every pending convergence condition; may release lanes.
  void resolveConvergence();
  /// Compute the cost of the ops stepped this round.
  RoundCost costRound(uint64_t Stepped);
  /// Lanes that participate in the innermost unresolved convergence scope.
  uint64_t contextMask() const;
  /// Set every live lane of \p Mask runnable.
  void releaseLanes(uint64_t Mask);
  /// Centralized lane state transition; maintains the per-state lane masks
  /// backing hasRunnableLane() and every mask query below.
  void setState(unsigned I, LaneState S);

  uint64_t laneBit(unsigned I) const { return uint64_t(1) << I; }
  /// Mask of lanes currently in state \p S.
  uint64_t stateMask(LaneState S) const {
    return StateMask[static_cast<unsigned>(S)];
  }
  /// Live (unfinished) members of \p Mask.
  uint64_t liveMask(uint64_t Mask) const {
    return Mask & AllLanes & ~stateMask(LaneState::Finished);
  }
  /// True iff every live lane of \p Mask is in state \p S.
  bool allInState(uint64_t Mask, LaneState S) const {
    return (Mask & AllLanes & ~stateMask(S)) == 0;
  }

  Device &Dev;
  BlockState *Block;
  std::vector<Lane> Lanes;
  std::vector<SimtFrame> Stack;
  unsigned WarpIdInBlock;
  /// Bit I of AllLanes is set for every lane of the warp.
  uint64_t AllLanes = 0;
  /// StateMask[S] holds the lanes currently in state S; the masks partition
  /// AllLanes.  Every scheduling query (runnable set, convergence checks,
  /// stepped-lane iteration) is a couple of bitwise ops instead of an
  /// O(warpSize) scan over Lanes.
  uint64_t StateMask[NumLaneStates] = {};
  /// True while some lane is parked (convergence may be resolvable).
  bool ConvergencePending = false;
};

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_WARP_H
