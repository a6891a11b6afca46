//===- analysis/Simtsan.h - Race / isolation / SIMT-hazard detector -*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// simtsan: an opt-in dynamic detector for simulated GPU memory, attached to
/// the simulator as a simt::Observer (see DESIGN.md §8).  It keeps
/// per-word shadow state over the touched part of the arena plus a
/// warp-granularity happens-before model (FastTrack-style vector clocks over
/// warp rounds) and reports, with full lane/warp/block/SM coordinates and
/// cycle timestamps:
///
///   - data races between plain non-atomic accesses,
///   - strong-isolation violations (a plain access racing a transactional
///     access to the same word, or a plain store to a word owned by an
///     in-flight transaction),
///   - barrier hazards (a block barrier executed under a divergent SIMT
///     mask, or completed only because non-arrived lanes exited),
///   - STM metadata invariant violations on version locks and the NOrec
///     sequence lock (release by a non-owner, version regression, a
///     version-publishing release without a prior threadfence, locks still
///     held at the end of a transaction attempt -- read from the STM's
///     Commit and Abort events -- or at kernel end),
///   - out-of-arena accesses (reported just before the simulator aborts).
///
/// Observation is host-side only: attaching a detector never changes modeled
/// cycles, counters, or results.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_ANALYSIS_SIMTSAN_H
#define GPUSTM_ANALYSIS_SIMTSAN_H

#include "simt/Observer.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gpustm {
namespace analysis {

/// What a report is about.
enum class ReportKind : uint8_t {
  DataRace,              ///< Two unordered plain accesses, at least one store.
  IsolationViolation,    ///< Plain access racing a transactional one.
  BarrierDivergence,     ///< Block barrier under a divergent SIMT mask.
  BarrierExitSkip,       ///< Barrier completed by lanes exiting the kernel.
  LockNotOwner,          ///< Version lock released by a non-owner.
  LockVersionRegression, ///< Lock released with a smaller version.
  LockMissingFence,      ///< Version published without a prior threadfence.
  LockLeak,              ///< Lock still held at tx / kernel end.
  OutOfBounds,           ///< Access outside the memory arena.
};

/// Stable machine-readable name ("data_race", "lock_not_owner", ...).
const char *reportKindName(ReportKind K);
/// Number of ReportKind values (for per-kind counters).
inline constexpr unsigned NumReportKinds =
    static_cast<unsigned>(ReportKind::OutOfBounds) + 1;

/// One finding.  Coordinates are those of the access that completed the
/// hazard; for races PrevWarp/PrevClk identify the earlier access' epoch
/// (warp global id, warp round clock).
struct SanReport {
  ReportKind Kind = ReportKind::DataRace;
  simt::Addr Address = simt::InvalidAddr;
  uint64_t Cycle = 0;
  unsigned Block = 0;
  unsigned Warp = 0; ///< Warp global id.
  unsigned Lane = 0;
  unsigned Sm = 0;
  unsigned Thread = 0; ///< Global thread id.
  unsigned PrevWarp = 0;
  uint32_t PrevClk = 0;
  std::string Message;
};

struct SimtsanOptions {
  /// Stop storing reports after this many unique findings (counting
  /// continues; see Simtsan::findingCount).
  uint64_t MaxReports = 100;
  /// Print each stored report to stderr as it is found.
  bool PrintToStderr = true;
};

/// The detector (see file comment).  Attach with Device::addObserver; state
/// is reset at every kernel launch, reports accumulate across launches.
class Simtsan final : public simt::Observer {
public:
  explicit Simtsan(const SimtsanOptions &Opts = SimtsanOptions());
  ~Simtsan() override;

  /// Stored reports (deduplicated, capped at MaxReports).
  const std::vector<SanReport> &reports() const { return Reports; }
  /// Unique findings so far, including any beyond the storage cap.
  uint64_t findingCount() const override { return TotalFindings; }
  /// Unique findings of one kind.
  uint64_t count(ReportKind K) const {
    return KindCounts[static_cast<unsigned>(K)];
  }
  /// Write the machine-readable report ({"tool":"simtsan",...}).
  void writeJson(std::ostream &OS) const;
  /// writeJson to \p Path; false on I/O failure.
  bool writeJsonFile(const std::string &Path) const;

  // Observer interface.
  void onLaunch(unsigned GridDim, unsigned BlockDim,
                unsigned WarpSize) override;
  void onLaunchEnd(bool Clean) override;
  void onRoundBegin(unsigned WarpGid) override;
  void onAccess(const simt::SanAccess &A) override;
  void onFence(unsigned ThreadId) override;
  void onMemWait(unsigned WarpGid, simt::Addr A) override;
  void onWakeEdge(unsigned WokenWarpGid, unsigned StorerWarpGid) override;
  void onBarrierArrive(const simt::SanBarrier &B) override;
  void onBarrierRelease(unsigned BlockIdx, bool ByLaneExit,
                        uint64_t Cycle) override;
  void onStmRegister(const simt::SanStmLayout &L) override;
  void onTxEvent(const stm::TxEvent &E) override;
  void onOutOfBounds(const simt::SanAccess &A) override;

private:
  /// Vector clock over warp global ids.
  using VC = std::vector<uint32_t>;

  /// Per-word shadow: the last write epoch and the last read epoch (single
  /// slot; see DESIGN.md §8 for what the single read slot cannot catch).
  struct ShadowWord {
    unsigned WWarp = 0;
    uint32_t WClk = 0; ///< 0 = no write recorded.
    simt::MemClass WClass = simt::MemClass::Plain;
    unsigned RWarp = 0;
    uint32_t RClk = 0; ///< 0 = no read recorded.
    simt::MemClass RClass = simt::MemClass::Plain;
  };

  /// Tracked state of one version-lock word (or the NOrec seqlock).
  struct LockState {
    bool Held = false;
    unsigned Owner = 0; ///< Global thread id of the acquirer.
    simt::Word VersionAtAcquire = 0;
    uint64_t AcquireCycle = 0;
    /// Data words written transactionally under this lock hold (write-back
    /// targets); a plain store to one of them is an isolation violation.
    std::unordered_set<simt::Addr> OwnedWords;
  };

  static void joinInto(VC &Dst, const VC &Src);
  /// Is epoch (PrevWarp, PrevClk) ordered before warp \p W's current time?
  bool ordered(unsigned PrevWarp, uint32_t PrevClk, unsigned W) const {
    return PrevWarp == W || PrevClk <= Clocks[W][PrevWarp];
  }
  bool isLockWord(simt::Addr A) const {
    return HasLayout && ((A >= Layout.LockTabBase &&
                          A < Layout.LockTabBase + Layout.NumLocks) ||
                         A == Layout.SeqLockAddr);
  }
  /// The lock word covering data word \p A (paper's hash: low bits).
  simt::Addr lockWordFor(simt::Addr A) const {
    return Layout.LockTabBase + (A & (Layout.NumLocks - 1));
  }

  void shadowLoad(const simt::SanAccess &A);
  void shadowStore(const simt::SanAccess &A);
  void lockWordAccess(const simt::SanAccess &A);
  void raceReport(const simt::SanAccess &A, simt::MemClass PrevClass,
                  unsigned PrevWarp, uint32_t PrevClk, bool PrevWasWrite);
  /// Record a finding; \p DedupToken distinguishes findings of one kind
  /// (usually the address).  Returns true when the finding is new.
  bool report(ReportKind Kind, uint64_t DedupToken, const SanReport &R);

  SimtsanOptions Opts;
  std::vector<SanReport> Reports;
  uint64_t TotalFindings = 0;
  uint64_t KindCounts[NumReportKinds] = {};
  std::unordered_set<uint64_t> Seen;

  // Launch-scoped happens-before state.
  unsigned NumWarps = 0;
  unsigned WarpsPerBlock = 1;
  std::vector<uint32_t> RoundClk; ///< Per-warp round clock.
  std::vector<VC> Clocks;         ///< Per-warp vector clock.
  std::unordered_map<simt::Addr, VC> SyncClocks; ///< Per-address release VC.
  std::unordered_map<simt::Addr, ShadowWord> Shadow;
  std::vector<uint8_t> UnfencedStore; ///< Per-thread: tx-data store since
                                      ///< the last threadfence.

  // STM metadata tracking (layout persists across launches).
  bool HasLayout = false;
  simt::SanStmLayout Layout;
  std::unordered_map<simt::Addr, LockState> Locks;
};

} // namespace analysis
} // namespace gpustm

#endif // GPUSTM_ANALYSIS_SIMTSAN_H
