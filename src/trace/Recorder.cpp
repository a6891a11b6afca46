//===- trace/Recorder.cpp - Transaction-trace recorder --------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "trace/Recorder.h"

using namespace gpustm;
using namespace gpustm::trace;

TxTraceRecorder::~TxTraceRecorder() {
  // Detach defensively if finishRun was never reached (failed run).
  if (AttachedDev)
    AttachedDev->removeObserver(this);
}

void TxTraceRecorder::snapshot(const simt::Device &Dev, MemImage &Image) {
  const simt::Memory &Mem = Dev.memory();
  Image.Base = 0;
  Image.Words.assign(Mem.data(), Mem.data() + Mem.allocated());
}

void TxTraceRecorder::beginRun(const std::string &WorkloadName,
                               simt::Device &Dev, stm::StmRuntime &Stm,
                               const simt::LaunchConfig &MaxLaunch) {
  T = TxTrace();
  T.Meta.Workload = WorkloadName;
  T.Meta.Kind = Stm.config().Kind;
  T.Meta.Val = Stm.validation();
  T.Meta.NumLocks = Stm.config().NumLocks;
  T.Meta.WarpSize = Dev.config().WarpSize;
  T.Meta.NumSMs = Dev.config().NumSMs;
  T.Meta.GridDim = MaxLaunch.GridDim;
  T.Meta.BlockDim = MaxLaunch.BlockDim;
  CurKernel = 0;
  snapshot(Dev, T.Initial);

  AttachedDev = &Dev;
  Dev.addObserver(this);
}

void TxTraceRecorder::noteKernelLaunch(unsigned K) {
  CurKernel = static_cast<uint16_t>(K);
  if (T.Meta.NumKernels < K + 1)
    T.Meta.NumKernels = K + 1;
  T.OpKernelStart.push_back(T.Ops.size());
}

void TxTraceRecorder::finishRun(simt::Device &Dev, stm::StmRuntime &Stm,
                                uint64_t TotalCycles) {
  Dev.removeObserver(this);
  AttachedDev = nullptr;
  snapshot(Dev, T.Final);
  T.Meta.Counters = Stm.counters();
  T.Meta.TotalCycles = TotalCycles;
}

void TxTraceRecorder::onTxEvent(const stm::TxEvent &E) {
  T.Events.push_back(E);
  T.Events.back().Kernel = CurKernel;
}

void TxTraceRecorder::onOp(const simt::TraceEvent &E) {
  if (Opts.RecordOps)
    T.Ops.push_back(E);
}
