//===- serve/Server.h - Persistent kernel-stream server ---------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// stmserve (DESIGN.md section 13): a persistent multi-tenant server for
/// transactional kernel requests.  A pool of host workers drains a bounded
/// submit queue; each worker batches queue entries that share a context key
/// (workload + scale) onto one warmed ExecutionContext drawn from a shared
/// pool, so arenas, generated inputs, and fiber-stack slabs are built once
/// and recycled across requests instead of per launch.  Because every
/// request is a deterministic computation, identical requests are also
/// memoized in a result cache (GPUSTM_SERVER_CACHE=0 disables it).
///
/// Guarantees:
///   * Results are bit-identical to fresh one-shot runWorkload() calls --
///     warm contexts by the ExecutionContext identity, cache hits because
///     equal request keys name equal deterministic computations.
///   * drain() returns results in submit order regardless of scheduling.
///   * Per-request latency is measured cold (context built on demand),
///     warm (recycled context), and cached.  stmbench's serve-mixed
///     workload (bench/stmbench) measures served execution with the cache
///     off.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SERVE_SERVER_H
#define GPUSTM_SERVE_SERVER_H

#include "serve/Request.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace gpustm {
namespace serve {

/// Server tuning; zero/negative fields resolve from GPUSTM_SERVER_* (see
/// resolveServerConfig).
struct ServerConfig {
  /// Worker threads.  0 = GPUSTM_SERVER_WORKERS, default hostJobs().
  unsigned Workers = 0;
  /// Bound on queued-but-unstarted requests; submit() blocks at the bound.
  /// 0 = GPUSTM_SERVER_QUEUE, default 64.
  unsigned QueueDepth = 0;
  /// Max requests one worker serves per context acquisition.
  /// 0 = GPUSTM_SERVER_BATCH, default 8.
  unsigned BatchCap = 0;
  /// Memoize results of identical requests.  Negative =
  /// GPUSTM_SERVER_CACHE, default on.
  int CacheResults = -1;
  /// Run the workload oracle after every executed request.
  bool Verify = true;
};

/// \p Config with every unset field resolved from the environment (strict
/// parsing: garbage or out-of-range GPUSTM_SERVER_* values are fatal).
ServerConfig resolveServerConfig(const ServerConfig &Config);

/// How a request was served.
enum class Temperature {
  Cold,  ///< Context built for this request (arena + setup paid here).
  Warm,  ///< Executed on a recycled context (rewind + reset fast path).
  Cached ///< Memoized result of an identical earlier request.
};
const char *temperatureName(Temperature T);

/// Outcome of one request.
struct RequestResult {
  Request Req;
  bool Ok = false;
  std::string Error;
  /// workloads::resultDigest of the run (equal to the one-shot digest).
  uint64_t Digest = 0;
  uint64_t Cycles = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  Temperature Temp = Temperature::Cold;
  unsigned Worker = 0;
  /// Submit-to-start, start-to-finish, and submit-to-finish wall times.
  double QueueMs = 0;
  double ServiceMs = 0;
  double TotalMs = 0;
};

/// Aggregate serving counters.
struct ServerStats {
  uint64_t Requests = 0;
  uint64_t ContextsBuilt = 0;
  uint64_t ColdRuns = 0;
  uint64_t WarmRuns = 0;
  uint64_t CacheHits = 0;
  uint64_t Batches = 0;
};

/// Nearest-rank latency percentiles over a sample.
struct LatencyStats {
  unsigned Count = 0;
  double P50 = 0, P95 = 0, P99 = 0, Mean = 0, Max = 0;
};
LatencyStats latencyStats(std::vector<double> SamplesMs);

/// The server (see file comment).  Thread-compatible: submit()/drain() are
/// intended for one producer thread; the workers are internal.
class StmServer {
public:
  explicit StmServer(const ServerConfig &Config = ServerConfig());
  ~StmServer();

  StmServer(const StmServer &) = delete;
  StmServer &operator=(const StmServer &) = delete;

  /// Enqueue one request; blocks while the queue is at QueueDepth.
  void submit(const Request &R);

  /// Wait until every submitted request finished; returns their results in
  /// submit order and resets the accumulator for the next wave.  The
  /// context pool and result cache stay warm across waves.
  std::vector<RequestResult> drain();

  /// submit() every request of \p Stream, then drain().
  std::vector<RequestResult> serve(const std::vector<Request> &Stream);

  const ServerConfig &config() const { return Config; }
  ServerStats stats() const;

private:
  struct Job;
  struct WarmContext;
  struct CachedResult;

  void workerMain(unsigned WorkerIdx);
  void executeBatch(unsigned WorkerIdx, std::vector<size_t> JobIdxs,
                    std::unique_lock<std::mutex> &Lock);

  ServerConfig Config;

  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable; ///< Workers wait here.
  std::condition_variable RoomOrDone;    ///< submit()/drain() wait here.
  bool Stopping = false;

  std::vector<std::unique_ptr<Job>> Jobs; ///< This wave, in submit order.
  std::deque<size_t> PendingIdx;          ///< Unstarted jobs, FIFO.
  size_t CompletedJobs = 0;

  /// Idle warmed contexts per context key; workers check one out per batch.
  std::map<std::string, std::vector<std::unique_ptr<WarmContext>>> IdleCtx;
  /// Memoized results per request key.
  std::map<std::string, CachedResult> Cache;
  /// Request keys executing right now.  With the cache on, an identical
  /// request arriving meanwhile coalesces: it parks in Waiters and is
  /// re-queued (to be answered from the cache) when the execution lands,
  /// so duplicate traffic never runs the same deterministic computation
  /// concurrently on two workers.
  std::set<std::string> InFlight;
  std::map<std::string, std::vector<size_t>> Waiters;

  ServerStats Stats;
  std::vector<std::thread> Workers;
};

} // namespace serve
} // namespace gpustm

#endif // GPUSTM_SERVE_SERVER_H
