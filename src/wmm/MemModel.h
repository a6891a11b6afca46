//===- wmm/MemModel.h - Weak-memory simulation model ------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opt-in weak-memory execution mode for the SIMT simulator.  The baseline
/// simulator is sequentially consistent, which makes every `threadfence()`
/// in the STM protocol a costed no-op: eliding one is functionally
/// invisible (the fuzzer's documented `SkipBeginFence` escape).  This
/// subsystem layers two relaxations over `simt::Memory`, both resolved by
/// a deterministic seed-driven oracle so the fences are actually *tested*:
///
///  1. **Per-lane bounded store buffers.**  A plain store may be held in
///     the issuing lane's buffer (invisible to every other lane) until a
///     drain point: a `threadfence()`, a same-address atomic, a barrier,
///     lane exit, buffer-capacity eviction (oracle picks the victim, so
///     drains can leave the buffer out of program order), or an aging
///     sweep that bounds how long any store stays private.
///
///  2. **Stale load bindings.**  Every write that reaches memory is also
///     appended to a bounded per-address history.  A plain load may bind
///     to any point of a *consistency window* instead of "now" and return
///     the value memory held at that point.  The window is bounded below
///     by (a) the lane's *binding floor*, advanced by `threadfence()` to
///     the newest binding the lane has observed so far (fences order the
///     lane's own observations; they do not make it see newer data), by
///     (b) per-address monotonicity (a lane never sees an address move
///     backwards: coherence), and by (c) a global horizon.  Atomics,
///     `memWait*` polls/wakeups, and explicit fresh loads (`ld.cg`-style
///     L1 bypass, see ThreadCtx::loadFresh) always bind at "now".
///
/// Every non-SC oracle choice is logged as a Deviation keyed by (lane,
/// per-lane op index).  A replay filter can restrict a re-run to a subset
/// of allowed deviations, which is what the fuzzer's witness shrinker and
/// the litmus runner's minimal-trace search use.
///
/// Layering: this library depends only on gpustm_support and the
/// header-only `simt/Memory.h`; `gpustm_simt` links against it and calls
/// the hooks from ThreadCtx/Device/Warp serial paths.  Off mode is a null
/// pointer check per operation: `GPUSTM_WMM=0` stays bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_WMM_MEMMODEL_H
#define GPUSTM_WMM_MEMMODEL_H

#include "simt/Memory.h"
#include "support/SmallVector.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gpustm {
namespace wmm {

/// Tuning knobs (env-resolved by the harness; see README).
struct WmmConfig {
  /// Oracle seed: two runs with the same seed, program, and configuration
  /// make identical choices (GPUSTM_WMM_SEED).
  uint64_t Seed = 1;
  /// Per-lane store-buffer capacity in entries; 0 disables store
  /// buffering, leaving only stale load bindings (GPUSTM_WMM_BUFFER).
  unsigned StoreBufferCap = 8;
  /// Retained write-history entries per address (binding candidates).
  unsigned HistoryDepth = 8;
  /// Loads never bind more than this many global write events in the past.
  uint64_t BindHorizon = 4096;
  /// A buffered store older than this many global write events is drained
  /// by the aging sweep (liveness bound for spin loops).
  uint64_t MaxStoreAge = 4096;
  /// A buffered store that has survived this many aging sweeps (one sweep
  /// every ~256 warp rounds) is drained regardless of write traffic: real
  /// store buffers drain in bounded *time*, and the write-event clock
  /// freezes when every other lane is parked on the buffered value
  /// (HV-Backoff's delayed lock release livelocked exactly that way).
  uint64_t MaxStoreAgeTicks = 2;
};

/// Where the oracle is consulted.
enum class Choice : uint8_t {
  LoadBinding,   ///< Which history candidate a plain load returns (0 = SC).
  StoreBuffering,///< Write through (0) or buffer (1) a plain store.
  DrainVictim    ///< Which buffered entry a capacity/exit drain evicts
                 ///< (0 = oldest: program order).
};

/// Deviation kinds (non-SC choices actually taken).
enum class DeviationKind : uint8_t {
  StaleLoad,      ///< A load returned a superseded value.
  DelayedStore,   ///< A store was buffered instead of written through.
  ReorderedDrain, ///< A drain evicted a non-oldest entry (store-store
                  ///< reordering becomes visible).
  HoistedStore    ///< Litmus-only: an independent store was issued ahead
                  ///< of the program-order-preceding load (load-store
                  ///< reordering; the operational model cannot produce it,
                  ///< so the litmus runner enumerates it statically).
};

/// Identity of one oracle consultation: lane plus that lane's op index.
/// Stable across replays of the same control flow, which is what the
/// replay filter keys on.
struct DevKey {
  unsigned Lane = 0;
  uint64_t LaneOp = 0;
  bool operator<(const DevKey &O) const {
    return Lane != O.Lane ? Lane < O.Lane : LaneOp < O.LaneOp;
  }
  bool operator==(const DevKey &O) const {
    return Lane == O.Lane && LaneOp == O.LaneOp;
  }
};

/// One logged non-SC choice.
struct Deviation {
  DeviationKind Kind = DeviationKind::StaleLoad;
  DevKey Key;
  simt::Addr Address = simt::InvalidAddr;
  /// Value observed/buffered vs the value memory held at that moment.
  simt::Word UsedValue = 0;
  simt::Word FreshValue = 0;
  /// Global write-event sequence the op bound at, and "now" at the op.
  uint64_t BindSeq = 0;
  uint64_t NowSeq = 0;
};

/// Counters folded into LaunchResult::Stats as "wmm.*".
struct WmmStats {
  uint64_t StaleLoads = 0;
  uint64_t DelayedStores = 0;
  uint64_t ReorderedDrains = 0;
  uint64_t Drains = 0;       ///< Buffered entries written back, any cause.
  uint64_t ForcedDrains = 0; ///< Subset drained by the aging sweep or the
                             ///< all-parked rescue.
};

/// Resolves every reordering choice.  Implementations must be pure
/// functions of (seed, key, kind, fanout) or of an explicit script so
/// replays are deterministic.
class Oracle {
public:
  virtual ~Oracle() = default;
  /// Pick a branch in [0, Fanout).  Branch 0 is always the SC choice.
  virtual unsigned choose(Choice Kind, const DevKey &Key,
                          unsigned Fanout) = 0;
};

/// Default oracle: a splitMix64 hash of (seed, lane, lane-op, kind).
/// Picks the SC branch with probability 1/2, otherwise uniformly among
/// the non-SC branches — frequent enough to find under-fenced windows,
/// rare enough that correctly fenced protocols still make progress.
class RandomOracle : public Oracle {
public:
  explicit RandomOracle(uint64_t Seed) : Seed(Seed) {}
  unsigned choose(Choice Kind, const DevKey &Key, unsigned Fanout) override;

private:
  uint64_t Seed;
};

/// Replays a prescribed choice vector (litmus exhaustive enumeration):
/// consultation I takes Script[I]; past the end the SC branch is taken.
/// Records the fanout of every consultation so a driver can enumerate the
/// choice tree depth-first.
class ScriptedOracle : public Oracle {
public:
  explicit ScriptedOracle(std::vector<unsigned> Script)
      : Script(std::move(Script)) {}
  unsigned choose(Choice Kind, const DevKey &Key, unsigned Fanout) override;

  /// Fanout of each consultation in order, including scripted ones.
  const std::vector<unsigned> &fanouts() const { return Fanouts; }

private:
  std::vector<unsigned> Script;
  std::vector<unsigned> Fanouts;
  size_t Next = 0;
};

/// The weak-memory model.  One instance is attached to a Device
/// (`setWmmModel`); `beginLaunch` resets all state so repeated launches
/// replay identically.  All hooks run on the device's round-loop thread, in
/// round issue order.
class MemModel {
public:
  MemModel() : MemModel(WmmConfig()) {}
  explicit MemModel(const WmmConfig &C);

  const WmmConfig &config() const { return Cfg; }

  /// Override the oracle (litmus runner).  Caller-owned; nullptr restores
  /// the built-in RandomOracle.
  void setOracle(Oracle *O) { Orc = O != nullptr ? O : &DefaultOrc; }

  /// Restrict deviations to \p Allowed: any consultation whose key is not
  /// listed is forced to the SC branch.  Used by witness shrinking.
  void setReplayFilter(const std::vector<DevKey> &Allowed);
  void clearReplayFilter();

  /// Reset for a launch of \p NumLanes global threads over \p M.
  /// \p Sink applies a drained store to memory (the Device routes it
  /// through notifyWrite so parked memWait lanes wake).
  void beginLaunch(simt::Memory &M, unsigned NumLanes,
                   std::function<void(simt::Addr, simt::Word)> Sink);
  /// Drain every leftover buffered store (host reads follow).
  void endLaunch();

  /// Plain load: store-to-load forwarding from the own buffer first, else
  /// an oracle-chosen binding in the consistency window.
  simt::Word load(unsigned Lane, simt::Addr A);
  /// L1-bypassing load (`ld.cg`): binds at "now", never stale.  Still
  /// forwards from the own buffer (a lane always sees its own stores).
  simt::Word loadFresh(unsigned Lane, simt::Addr A);
  /// Plain store.  Returns true when buffered: the caller must NOT write
  /// memory or notify watchers (the drain will).  Returns false for
  /// write-through: the caller performs the store as usual (the model has
  /// already recorded the history entry).
  bool store(unsigned Lane, simt::Addr A, simt::Word V);
  /// Around an atomic RMW on \p A: pre drains the lane's own buffered
  /// stores to A (the RMW must see them) and seeds history; post records
  /// the RMW's result as a write event and binds the lane at "now".
  void preAtomic(unsigned Lane, simt::Addr A);
  void postAtomic(unsigned Lane, simt::Addr A);
  /// threadfence(): drain the whole buffer in program order, then raise
  /// the binding floor to the newest binding this lane has observed.
  void fence(unsigned Lane);
  /// Barrier arrival (syncThreads/syncWarp): drain + floor at "now".
  /// Release-side ordering is completed by syncPoint().
  void barrierArrive(unsigned Lane);
  /// Barrier release over lanes [FirstLane, FirstLane+Count): every
  /// participant's floor moves to "now", so post-barrier loads see every
  /// pre-barrier store (called by the Device when a block barrier opens).
  void syncPoint(unsigned FirstLane, unsigned Count);
  /// The lane observed memory at address \p A "now" (memWait poll or
  /// wakeup): drains own same-address entries, binds the address fresh.
  void observeFresh(unsigned Lane, simt::Addr A);
  /// Lane exit: drain the remaining buffer, oracle-ordered (exit drains
  /// may still reorder; the final fence before a protocol release is what
  /// guarantees order, not thread exit).
  void laneFinished(unsigned Lane);
  /// Aging sweep (called periodically from the round loop): drain entries
  /// older than MaxStoreAge write events or MaxStoreAgeTicks sweeps.
  void tick();
  /// Drain everything everywhere (deadlock rescue when all lanes are
  /// parked and the only possible wakeups sit in store buffers).
  /// Returns true if anything was drained.
  bool drainAllPending();

  const std::vector<Deviation> &deviations() const { return Devs; }
  const WmmStats &stats() const { return St; }

private:
  struct HistEntry {
    uint64_t Seq = 0;
    simt::Word Value = 0;
  };
  struct BufEntry {
    simt::Addr A = simt::InvalidAddr;
    simt::Word V = 0;
    uint64_t Seq = 0;  ///< Write-event time when buffered (for aging).
    uint64_t Tick = 0; ///< Aging-sweep count when buffered (time aging).
  };
  struct LaneState {
    uint64_t Floor = 0;      ///< Lower bound for every binding.
    uint64_t MaxBinding = 0; ///< Newest binding observed (fence target).
    uint64_t OpCount = 0;    ///< Per-lane op index (deviation keys).
    SmallVector<BufEntry, 8> Buf;
    std::unordered_map<simt::Addr, uint64_t> LastBind; ///< Coherence.
  };

  LaneState &lane(unsigned L) { return Lanes[L]; }
  unsigned consult(Choice Kind, const DevKey &Key, unsigned Fanout);
  /// Append a write event for A valued V.  Must run before the value
  /// lands in memory (lazy history seeding reads the pre-write value).
  void recordWrite(simt::Addr A, simt::Word V);
  /// Write buffer entry \p Idx of \p L back to memory and erase it.
  void drainEntry(unsigned LaneIdx, size_t Idx);
  /// Drain \p L's whole buffer in program order.
  void drainLaneFifo(unsigned LaneIdx);
  void bind(LaneState &L, simt::Addr A, uint64_t Seq);
  void markDirty(unsigned LaneIdx);

  WmmConfig Cfg;
  simt::Memory *Mem = nullptr;
  std::function<void(simt::Addr, simt::Word)> Sink;
  RandomOracle DefaultOrc;
  Oracle *Orc = nullptr;
  /// Global write-event sequence ("now").  Only writes advance it: load
  /// windows are intervals between writes, so loads need no events.
  uint64_t Seq = 0;
  /// Aging sweeps so far (tick()); buffered entries are stamped with it.
  uint64_t TickCount = 0;
  std::unordered_map<simt::Addr, SmallVector<HistEntry, 10>> History;
  std::vector<LaneState> Lanes;
  std::vector<unsigned> DirtyLanes; ///< Lanes with nonempty buffers.
  std::vector<Deviation> Devs;
  bool FilterActive = false;
  std::set<DevKey> Allowed;
  WmmStats St;
};

} // namespace wmm
} // namespace gpustm

#endif // GPUSTM_WMM_MEMMODEL_H
