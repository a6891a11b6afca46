//===- support/Parallel.h - Deterministic host-parallel helpers -*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal host thread pool for embarrassingly parallel sweeps.  Each work
/// item must be independent (its own Device, StmRuntime, Workload); items
/// are claimed from a shared atomic cursor and their results are stored by
/// index, so the result vector is identical to a serial run regardless of
/// the thread count or interleaving.  Parallelism lives *between*
/// simulations (each device's round loop runs on one thread); GPUSTM_JOBS,
/// read here once per process, sets the worker count.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SUPPORT_PARALLEL_H
#define GPUSTM_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>
#include <vector>

namespace gpustm {

/// Host worker count from GPUSTM_JOBS (range 1..256, read strictly).  Unset
/// means 1: serial execution on the calling thread.
unsigned hostJobs();

/// Run `Fn(0) .. Fn(N-1)`, each exactly once, on up to \p Jobs host
/// threads (the calling thread included).  Blocks until every index has
/// finished.  With Jobs <= 1 or N <= 1 this is a plain serial loop on the
/// calling thread -- no threads are spawned and no memory ordering is in
/// play, so serial runs are trivially identical to the unparallelized code.
///
/// \p Fn must be safe to call concurrently for distinct indices.  Index
/// claiming is dynamic (an atomic cursor), so uneven cell costs balance
/// across workers; determinism is unaffected because results are keyed by
/// index, not by completion order.
void parallelForIndexed(size_t N, unsigned Jobs,
                        const std::function<void(size_t)> &Fn);

/// Map each index to a value on up to \p Jobs threads and return the
/// results in index order.  The deterministic-merge primitive of the bench
/// sweep runner: `Out[I]` only ever depends on `Fn(I)`, so the returned
/// vector is bit-identical to a serial run by construction.
template <typename R>
std::vector<R> parallelMapIndexed(size_t N, unsigned Jobs,
                                  const std::function<R(size_t)> &Fn) {
  std::vector<R> Out(N);
  parallelForIndexed(N, Jobs, [&](size_t I) { Out[I] = Fn(I); });
  return Out;
}

} // namespace gpustm

#endif // GPUSTM_SUPPORT_PARALLEL_H
