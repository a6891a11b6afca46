//===- serve/Request.h - Transactional kernel requests ----------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of work the serving layer (src/serve/) schedules: one
/// transactional kernel execution, named by workload, STM variant, and
/// scale.  Requests arrive as a deterministic *request script* -- a text
/// stream of `<workload> <variant> [scale] [xN]` lines -- or from the
/// seeded mixed-stream generator, so every serving experiment is exactly
/// replayable (and comparable bit-for-bit against one-shot runs).
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SERVE_REQUEST_H
#define GPUSTM_SERVE_REQUEST_H

#include "stm/Config.h"
#include "workloads/Harness.h"

#include <string>
#include <vector>

namespace gpustm {
namespace serve {

/// One transactional kernel request.
struct Request {
  std::string Workload = "RA";
  stm::Variant Kind = stm::Variant::HVSorting;
  unsigned Scale = 1;
};

/// True for the six paper workload names ("RA", "HT", "EB", "LB", "GN",
/// "KM").
bool isKnownWorkload(const std::string &Name);

/// Arena-compatibility key ("RA@1"): requests with equal context keys run
/// on the same warmed ExecutionContext (same workload instance, launches,
/// lock count, device shape); only the variant differs per run.
std::string contextKey(const Request &R);

/// Full identity key ("RA@1/STM-HV-Sorting"): requests with equal request
/// keys are the same deterministic computation, which is what the server's
/// result cache is keyed on.
std::string requestKey(const Request &R);

/// One script line ("RA hv 1") round-trippable through parseRequestScript.
std::string formatRequest(const Request &R);

/// The harness configuration a request resolves to: paper-shaped launches
/// (Table 2) and the Figure 2 lock scaling for its scale.
workloads::HarnessConfig requestConfig(const Request &R);

/// Parse a request script: one request per line as
/// `<workload> <variant> [<scale>] [x<repeat>]`, '#' starts a comment,
/// blank lines are skipped.  `x<repeat>` enqueues the request that many
/// times (traffic is repetitive; scripts should not have to be).  Returns
/// false and fills \p Err (with a line number) on any malformed line.
bool parseRequestScript(const std::string &Text, std::vector<Request> &Out,
                        std::string &Err);

/// parseRequestScript over the contents of \p Path.
bool loadRequestScript(const std::string &Path, std::vector<Request> &Out,
                       std::string &Err);

/// The request stream named by GPUSTM_SERVER_SCRIPT (a script path).
/// Returns false when the variable is unset or empty; a set-but-broken
/// value (unreadable file, malformed line) is fatal rather than silently
/// serving nothing.
bool requestsFromEnv(std::vector<Request> &Out);

/// Deterministic mixed-traffic generator: \p Count requests drawn from
/// \p Workloads x \p Variants x scales [1, MaxScale], seeded so every call
/// with equal arguments produces the identical stream.
std::vector<Request> makeMixedStream(uint64_t Seed, unsigned Count,
                                     const std::vector<std::string> &Workloads,
                                     const std::vector<stm::Variant> &Variants,
                                     unsigned MaxScale = 1);

} // namespace serve
} // namespace gpustm

#endif // GPUSTM_SERVE_REQUEST_H
