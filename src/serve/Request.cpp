//===- serve/Request.cpp - Transactional kernel requests ------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "serve/Request.h"
#include "support/EnvOptions.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"
#include "workloads/All.h"

#include <cstdio>
#include <sstream>

using namespace gpustm;
using namespace gpustm::serve;

bool gpustm::serve::isKnownWorkload(const std::string &Name) {
  for (const char *W : {"RA", "HT", "EB", "LB", "GN", "KM"})
    if (Name == W)
      return true;
  return false;
}

std::string gpustm::serve::contextKey(const Request &R) {
  return formatString("%s@%u", R.Workload.c_str(), R.Scale);
}

std::string gpustm::serve::requestKey(const Request &R) {
  return formatString("%s@%u/%s", R.Workload.c_str(), R.Scale,
                      stm::variantName(R.Kind));
}

std::string gpustm::serve::formatRequest(const Request &R) {
  return formatString("%s %s %u", R.Workload.c_str(),
                      stm::variantName(R.Kind), R.Scale);
}

workloads::HarnessConfig gpustm::serve::requestConfig(const Request &R) {
  workloads::HarnessConfig HC;
  HC.Kind = R.Kind;
  HC.Launches = workloads::paperLaunches(R.Workload, R.Scale);
  // Figure 2's lock scaling: keeps the shared-data : lock ratio as scale
  // grows, so serving results line up with the bench matrix.
  HC.NumLocks = static_cast<size_t>(64u << 10) * R.Scale;
  return HC;
}

/// Strict unsigned parse for script fields (no signs, no trailing junk).
static bool parseUnsignedField(const std::string &S, unsigned &Out) {
  if (S.empty() || S.size() > 9)
    return false;
  unsigned V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<unsigned>(C - '0');
  }
  if (V == 0)
    return false;
  Out = V;
  return true;
}

bool gpustm::serve::parseRequestScript(const std::string &Text,
                                       std::vector<Request> &Out,
                                       std::string &Err) {
  std::istringstream Lines(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream Fields(Line);
    std::string WorkloadTok, VariantTok, Extra;
    if (!(Fields >> WorkloadTok))
      continue; // Blank or comment-only line.
    if (!(Fields >> VariantTok)) {
      Err = formatString("line %u: expected '<workload> <variant> [scale] "
                         "[xN]', got '%s'",
                         LineNo, WorkloadTok.c_str());
      return false;
    }
    Request R;
    R.Workload = WorkloadTok;
    if (!isKnownWorkload(R.Workload)) {
      Err = formatString("line %u: unknown workload '%s'", LineNo,
                         WorkloadTok.c_str());
      return false;
    }
    if (!stm::parseVariant(VariantTok, R.Kind)) {
      Err = formatString("line %u: unknown variant '%s'", LineNo,
                         VariantTok.c_str());
      return false;
    }
    unsigned Repeat = 1;
    bool SawScale = false;
    while (Fields >> Extra) {
      if (Extra[0] == 'x') {
        if (!parseUnsignedField(Extra.substr(1), Repeat)) {
          Err = formatString("line %u: bad repeat '%s'", LineNo, Extra.c_str());
          return false;
        }
      } else if (!SawScale && parseUnsignedField(Extra, R.Scale)) {
        SawScale = true;
      } else {
        Err = formatString("line %u: unexpected field '%s'", LineNo,
                           Extra.c_str());
        return false;
      }
    }
    for (unsigned I = 0; I < Repeat; ++I)
      Out.push_back(R);
  }
  return true;
}

bool gpustm::serve::loadRequestScript(const std::string &Path,
                                      std::vector<Request> &Out,
                                      std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = formatString("cannot open request script '%s'", Path.c_str());
    return false;
  }
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Text.append(Buf, N);
  std::fclose(F);
  return parseRequestScript(Text, Out, Err);
}

bool gpustm::serve::requestsFromEnv(std::vector<Request> &Out) {
  std::string Path = envString("GPUSTM_SERVER_SCRIPT", "");
  if (Path.empty())
    return false;
  std::string Err;
  if (!loadRequestScript(Path, Out, Err))
    reportFatalError("GPUSTM_SERVER_SCRIPT: " + Err);
  return true;
}

std::vector<Request>
gpustm::serve::makeMixedStream(uint64_t Seed, unsigned Count,
                               const std::vector<std::string> &Workloads,
                               const std::vector<stm::Variant> &Variants,
                               unsigned MaxScale) {
  std::vector<Request> Stream;
  if (Workloads.empty() || Variants.empty())
    return Stream;
  Rng Rand(Seed * 0x9e3779b97f4a7c15ULL + 0x5e37e);
  Stream.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    Request R;
    R.Workload = Workloads[Rand.nextBelow(Workloads.size())];
    R.Kind = Variants[Rand.nextBelow(Variants.size())];
    R.Scale = 1 + static_cast<unsigned>(Rand.nextBelow(MaxScale));
    Stream.push_back(R);
  }
  return Stream;
}
