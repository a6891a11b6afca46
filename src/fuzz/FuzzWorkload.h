//===- fuzz/FuzzWorkload.h - Fuzz program as a harness workload -*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a FuzzProgram through the standard evaluation harness and checks it
/// against a host-side sequential reference oracle.  Each non-read-only
/// transaction journals its LastCommitVersion right after committing;
/// verify() replays the committed transactions in that version order over
/// the initial image and demands the exact final memory the simulated
/// device produced.  The commit version is a valid serialization order
/// under every variant for the same reason the trace checker's replay is
/// (DESIGN.md section 5): update-transaction versions are globally unique
/// and agree with the per-stripe lock-hold order.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_FUZZ_FUZZWORKLOAD_H
#define GPUSTM_FUZZ_FUZZWORKLOAD_H

#include "fuzz/FuzzProgram.h"
#include "workloads/Workload.h"

namespace gpustm {
namespace fuzz {

/// Workload adapter for one FuzzProgram (see file comment).
class FuzzWorkload : public workloads::Workload {
public:
  explicit FuzzWorkload(const FuzzProgram &Program);

  const char *name() const override { return Name.c_str(); }
  size_t sharedDataWords() const override { return P.SharedWords; }
  size_t deviceMemoryWords() const override;
  unsigned numKernels() const override { return 1; }
  KernelSpec kernelSpec(unsigned K) const override;
  void setup(simt::Device &Dev) override;
  void runTask(stm::StmRuntime &Stm, simt::ThreadCtx &Ctx, unsigned K,
               unsigned Task) override;
  bool verify(const simt::Device &Dev, const stm::StmCounters &C,
              std::string &Err) const override;
  void tuneStm(stm::StmConfig &Config) const override;
  bool staticFootprint(unsigned K,
                       staticlint::FootprintCtx &Ctx) const override;

  /// Protocol mutations injected into the run (mutation tests only).
  stm::StmFaults Faults;

  /// FNV-1a digest of the final memory images (shared + private + journal)
  /// of the last verified run; runs that must be bit-identical (same seed
  /// re-run, traced vs untraced, one process vs another) compare these.
  uint64_t lastDigest() const { return LastDigest; }

private:
  FuzzProgram P;
  std::string Name;
  simt::Addr SharedBase = 0;
  simt::Addr PrivBase = 0;
  simt::Addr JournalBase = 0;
  size_t privWords() const {
    return static_cast<size_t>(P.NumTasks) * P.PrivWords;
  }
  size_t journalWords() const {
    return static_cast<size_t>(P.NumTasks) * P.MaxTxPerTask;
  }
  mutable stm::Variant LastKind = stm::Variant::HVSorting;
  mutable uint64_t LastDigest = 0;
};

} // namespace fuzz
} // namespace gpustm

#endif // GPUSTM_FUZZ_FUZZWORKLOAD_H
