//===- workloads/Labyrinth.h - LB (STAMP labyrinth port) --------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's *labyrinth* (LB) STAMP port: concurrent maze routing over a
/// shared grid.  Each task routes one net from a source to a destination
/// and transactionally claims the path cells; overlapping routes conflict
/// and one of them retries with the alternate bend or fails.  Matching the
/// paper's shape, only one thread per block runs transactional code (the
/// other threads model the parallel grid-expansion phase as native work),
/// the read/write sets are large (whole paths), and the fraction of time
/// inside transactions is small.
///
/// The routing heuristic is an L-path (x-then-y, falling back to
/// y-then-x), which keeps the oracle exact: for every successfully routed
/// net, every cell of its recorded path must hold exactly its net id, and
/// failed nets must have written nothing.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_WORKLOADS_LABYRINTH_H
#define GPUSTM_WORKLOADS_LABYRINTH_H

#include "workloads/Workload.h"

#include <vector>

namespace gpustm {
namespace workloads {

/// LB: transactional maze routing (see file comment).
class Labyrinth : public Workload {
public:
  struct Params {
    unsigned GridN = 64; ///< Grid is GridN x GridN cells.
    unsigned NumRoutes = 192;
    /// Native cycles modeling the per-net grid expansion phase.
    uint32_t ExpansionCycles = 4000;
    uint64_t Seed = 0x1ab;
  };

  explicit Labyrinth(const Params &P) : P(P) {}

  const char *name() const override { return "LB"; }
  size_t sharedDataWords() const override {
    return static_cast<size_t>(P.GridN) * P.GridN;
  }
  size_t deviceMemoryWords() const override {
    return sharedDataWords() + P.NumRoutes;
  }
  KernelSpec kernelSpec(unsigned) const override {
    return {P.NumRoutes, /*TxThreadPerBlockOnly=*/true, P.ExpansionCycles};
  }

  void setup(simt::Device &Dev) override;
  bool reset(simt::Device &Dev) override;
  void runTask(stm::StmRuntime &Stm, simt::ThreadCtx &Ctx, unsigned K,
               unsigned Task) override;
  bool verify(const simt::Device &Dev, const stm::StmCounters &C,
              std::string &Err) const override;
  void tuneStm(stm::StmConfig &Config) const override;
  bool staticFootprint(unsigned K,
                       staticlint::FootprintCtx &Ctx) const override;

private:
  struct Net {
    unsigned Sx, Sy, Dx, Dy;
  };

  /// Unique cells of the L-path for net \p N with the given bend.
  std::vector<unsigned> pathCells(const Net &N, bool XFirst) const;

  Params P;
  std::vector<Net> Nets;
  /// Per-net claim lists (both bends, address-sorted), precomputed by
  /// setup(): device code must not allocate (the watchdog discards
  /// suspended fibers without unwinding them, see Fiber.h).
  std::vector<std::vector<unsigned>> SortedPaths[2];
  simt::Addr CellsBase = simt::InvalidAddr;
  simt::Addr StatusBase = simt::InvalidAddr; ///< 0 = failed, 1 = x-first, 2 = y-first.
};

} // namespace workloads
} // namespace gpustm

#endif // GPUSTM_WORKLOADS_LABYRINTH_H
