//===- trace/Recorder.h - Transaction-trace recorder ------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TxTraceRecorder is a simt::Observer: it buffers the STM runtime's
/// transaction events (and, optionally, the simulator's per-lane
/// operations) host-side into a TxTrace.  Recording never issues a
/// simulated device operation, so modeled cycles and StmCounters are
/// bit-identical with and without a recorder attached.
///
/// Lifecycle (the harness drives this; see workloads/Harness.cpp):
///   Recorder.beginRun(name, Dev, Stm, MaxLaunch);  // initial mem image
///   for each kernel K: Recorder.noteKernelLaunch(K); Dev.launch(...);
///   Recorder.finishRun(Dev, Stm, TotalCycles);     // final image+counters
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_TRACE_RECORDER_H
#define GPUSTM_TRACE_RECORDER_H

#include "trace/Trace.h"

namespace gpustm {
namespace trace {

/// Records one run into a TxTrace (see file comment).
class TxTraceRecorder final : public simt::Observer {
public:
  struct Options {
    /// Also capture the simulator's per-lane operation stream (heavy;
    /// GPUSTM_TRACE_OPS=1).
    bool RecordOps = false;
  };

  TxTraceRecorder() = default;
  explicit TxTraceRecorder(const Options &Opts) : Opts(Opts) {}
  ~TxTraceRecorder() override;

  /// Attach to \p Dev and snapshot the initial memory image.  Call after
  /// workload setup and \p Stm's construction, before any launch.
  void beginRun(const std::string &WorkloadName, simt::Device &Dev,
                stm::StmRuntime &Stm, const simt::LaunchConfig &MaxLaunch);

  /// Tag subsequent events with kernel index \p K.
  void noteKernelLaunch(unsigned K);

  /// Snapshot the final memory image and counters, then detach.
  void finishRun(simt::Device &Dev, stm::StmRuntime &Stm,
                 uint64_t TotalCycles);

  const TxTrace &trace() const { return T; }
  TxTrace &trace() { return T; }

  void onTxEvent(const stm::TxEvent &E) override;
  void onOp(const simt::TraceEvent &E) override;

private:
  void snapshot(const simt::Device &Dev, MemImage &Image);

  Options Opts;
  TxTrace T;
  simt::Device *AttachedDev = nullptr;
  uint16_t CurKernel = 0;
};

} // namespace trace
} // namespace gpustm

#endif // GPUSTM_TRACE_RECORDER_H
