//===- trace/Trace.h - Recorded transaction trace ---------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory representation of one recorded run: metadata about the
/// workload/variant, the initial and final global-memory images (the
/// checker's replay endpoints), the transaction-event stream emitted by
/// the STM runtime, and (optionally) the simulator's per-lane operation
/// stream (simt::Observer::onOp).  TxTraceRecorder fills it; TraceIO
/// serializes it; the checker, analysis, and Perfetto exporters consume it.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_TRACE_TRACE_H
#define GPUSTM_TRACE_TRACE_H

#include "simt/Device.h"
#include "stm/Config.h"
#include "stm/Runtime.h"
#include "stm/TxEvents.h"

#include <string>
#include <vector>

namespace gpustm {
namespace trace {

/// A snapshot of simulated global memory ([Base, Base + Words.size())).
struct MemImage {
  simt::Addr Base = 0;
  std::vector<simt::Word> Words;

  bool contains(simt::Addr A) const {
    return A >= Base && A - Base < Words.size();
  }
  simt::Word at(simt::Addr A) const { return Words[A - Base]; }
};

/// Run-level metadata.
struct TraceMeta {
  std::string Workload;
  stm::Variant Kind = stm::Variant::HVSorting;
  /// Effective validation policy (STM-Optimized resolves to HV or TBV).
  stm::Validation Val = stm::Validation::HV;
  unsigned WarpSize = 32;
  unsigned NumSMs = 14;
  /// Widest launch of the run (what the STM metadata was sized for).
  unsigned GridDim = 0;
  unsigned BlockDim = 0;
  unsigned NumKernels = 0;
  /// Lock-table stripes of the run (0 in version-1 traces: unknown).
  size_t NumLocks = 0;
  uint64_t TotalCycles = 0;
  /// Final harness counters; the checker reconciles the event stream
  /// against these.
  stm::StmCounters Counters;
};

/// One recorded run.
struct TxTrace {
  TraceMeta Meta;
  MemImage Initial, Final;
  /// Chronological transaction-event stream (per-thread program order is a
  /// subsequence).
  std::vector<stm::TxEvent> Events;
  /// Optional per-lane operation stream (GPUSTM_TRACE_OPS).
  std::vector<simt::TraceEvent> Ops;
  /// Ops index at which each kernel's operations start (Ops only; TxEvents
  /// carry their kernel index inline).
  std::vector<uint64_t> OpKernelStart;
};

} // namespace trace
} // namespace gpustm

#endif // GPUSTM_TRACE_TRACE_H
