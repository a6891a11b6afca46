//===- support/Parallel.cpp - Deterministic host-parallel helpers ---------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"
#include "support/EnvOptions.h"

#include <atomic>
#include <thread>

using namespace gpustm;

unsigned gpustm::hostJobs() {
  static const unsigned Jobs =
      static_cast<unsigned>(envUnsignedInRange("GPUSTM_JOBS", 1, 1, 256));
  return Jobs;
}

void gpustm::parallelForIndexed(size_t N, unsigned Jobs,
                                const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  if (Jobs <= 1 || N == 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }

  std::atomic<size_t> Next(0);
  auto Worker = [&] {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      Fn(I);
    }
  };

  size_t NumThreads = std::min<size_t>(Jobs, N);
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads - 1);
  for (size_t T = 1; T < NumThreads; ++T)
    Threads.emplace_back(Worker);
  Worker(); // The calling thread participates.
  for (std::thread &T : Threads)
    T.join();
}
