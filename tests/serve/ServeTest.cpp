//===- tests/serve/ServeTest.cpp - Serving layer tests --------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
// The warm-reuse identity contract and the server built on it:
//   * Memory::rewind restores the arena exactly.
//   * A recycled ExecutionContext produces results bit-identical (by
//     resultDigest, which covers every deterministic field) to fresh
//     one-shot runWorkload() calls -- across all seven variants, three
//     workloads, trace recording, a weak-memory run after a traced one,
//     and the multi-kernel reset (GN).
//   * StmServer returns one-shot-identical results in submit order, with
//     or without the result cache, and its request scripts and stream
//     generator are deterministic and strictly parsed.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "simt/Memory.h"
#include "wmm/MemModel.h"
#include "workloads/All.h"
#include "workloads/Genome.h"
#include "workloads/HashTable.h"
#include "workloads/KMeans.h"
#include "workloads/RandomArray.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

using namespace gpustm;
using namespace gpustm::serve;
using namespace gpustm::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Memory::rewind
//===----------------------------------------------------------------------===//

TEST(MemoryRewindTest, RestoresCursorAndZeroesTail) {
  simt::Memory Mem(256);
  simt::Addr A = Mem.allocate(16);
  for (unsigned I = 0; I < 16; ++I)
    Mem.store(A + I, 100 + I);
  size_t Mark = Mem.allocated();
  simt::Addr B = Mem.allocate(32);
  for (unsigned I = 0; I < 32; ++I)
    Mem.store(B + I, 200 + I);

  Mem.rewind(Mark);
  EXPECT_EQ(Mem.allocated(), Mark);
  // The recycled region is intact; the released region reads as fresh
  // zero-initialized memory, so re-allocations start from the same state a
  // new arena would give them.
  for (unsigned I = 0; I < 16; ++I)
    EXPECT_EQ(Mem.load(A + I), 100u + I);
  simt::Addr B2 = Mem.allocate(32);
  EXPECT_EQ(B2, B) << "bump allocation must resume at the same address";
  for (unsigned I = 0; I < 32; ++I)
    EXPECT_EQ(Mem.load(B2 + I), 0u);
}

TEST(MemoryRewindDeathTest, PastCursorIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  simt::Memory Mem(64);
  Mem.allocate(8);
  EXPECT_DEATH(Mem.rewind(Mem.allocated() + 1), "rewind past");
}

//===----------------------------------------------------------------------===//
// Warm-reuse identity: recycled ExecutionContext == fresh one-shot
//===----------------------------------------------------------------------===//

/// Small paper workloads: big enough to commit/abort on every variant,
/// small enough that the 7-variant x 3-workload matrix (VBV included)
/// stays in test time.
std::unique_ptr<Workload> smallWorkload(const std::string &Name) {
  if (Name == "RA") {
    RandomArray::Params P;
    P.ArrayWords = 1u << 12;
    P.NumTx = 256;
    return std::make_unique<RandomArray>(P);
  }
  if (Name == "HT") {
    HashTable::Params P;
    P.TableWords = 1u << 10;
    P.NumTx = 256;
    return std::make_unique<HashTable>(P);
  }
  if (Name == "KM") {
    KMeans::Params P;
    P.NumPoints = 512;
    P.K = 8;
    return std::make_unique<KMeans>(P);
  }
  if (Name == "GN") {
    Genome::Params P;
    P.GenomeLen = 512;
    P.NumSegments = 768;
    P.TableWords = 1u << 11;
    return std::make_unique<Genome>(P);
  }
  ADD_FAILURE() << "unknown workload " << Name;
  return nullptr;
}

HarnessConfig smallConfig(stm::Variant V) {
  HarnessConfig HC;
  HC.Kind = V;
  HC.NumLocks = 1u << 10;
  HC.Launches = {{2, 64}, {2, 64}};
  return HC;
}

std::vector<stm::Variant> allVariants() {
  return {stm::Variant::CGL,        stm::Variant::EGPGV,
          stm::Variant::VBV,        stm::Variant::TBVSorting,
          stm::Variant::HVSorting,  stm::Variant::HVBackoff,
          stm::Variant::Optimized};
}

class WarmIdentityTest : public ::testing::TestWithParam<std::string> {};

/// The tentpole invariant: run every variant twice on one recycled context
/// -- cold first, then revisited warm -- and every digest must equal the
/// digest of a fresh one-shot run of the same request.
TEST_P(WarmIdentityTest, EveryVariantDigestMatchesOneShot) {
  const std::string Name = GetParam();
  auto Warm = smallWorkload(Name);
  ExecutionContext Ctx(*Warm, smallConfig(stm::Variant::CGL));

  std::vector<stm::Variant> Sequence = allVariants();
  std::vector<stm::Variant> Revisit = allVariants();
  Sequence.insert(Sequence.end(), Revisit.begin(), Revisit.end());

  std::map<unsigned, uint64_t> OneShot;
  for (stm::Variant V : Sequence) {
    HarnessConfig HC = smallConfig(V);
    HarnessResult WarmR = Ctx.run(HC);
    ASSERT_TRUE(WarmR.Completed) << Name << "/" << stm::variantName(V) << ": "
                                 << WarmR.Error;
    EXPECT_TRUE(WarmR.Verified) << Name << "/" << stm::variantName(V);

    unsigned Key = static_cast<unsigned>(V);
    if (!OneShot.count(Key)) {
      auto Fresh = smallWorkload(Name);
      OneShot[Key] = resultDigest(runWorkload(*Fresh, HC));
    }
    EXPECT_EQ(resultDigest(WarmR), OneShot[Key])
        << Name << "/" << stm::variantName(V)
        << ": warm run diverged from one-shot";
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WarmIdentityTest,
                         ::testing::Values("RA", "HT", "KM"),
                         [](const auto &Info) { return Info.param; });

/// GN runs two kernels and its reset() restores four regions plus cached
/// host inputs -- the hardest warm path, checked against one-shot for the
/// paper variant and the optimized one.
TEST(WarmIdentityMultiKernelTest, GenomeResetMatchesOneShot) {
  auto Warm = smallWorkload("GN");
  ExecutionContext Ctx(*Warm, smallConfig(stm::Variant::HVSorting));
  for (stm::Variant V :
       {stm::Variant::HVSorting, stm::Variant::Optimized,
        stm::Variant::HVSorting}) {
    HarnessConfig HC = smallConfig(V);
    HarnessResult WarmR = Ctx.run(HC);
    ASSERT_TRUE(WarmR.Completed) << WarmR.Error;
    auto Fresh = smallWorkload("GN");
    EXPECT_EQ(resultDigest(WarmR), resultDigest(runWorkload(*Fresh, HC)))
        << "GN/" << stm::variantName(V);
  }
}

/// Trace recording on a recycled context: the observer attaches per run,
/// detaches afterwards, and neither changes modeled results.
TEST(WarmIdentityObserverTest, TraceRecordingOnWarmContextIsIdentical) {
  auto Warm = smallWorkload("RA");
  ExecutionContext Ctx(*Warm, smallConfig(stm::Variant::HVSorting));
  HarnessConfig Plain = smallConfig(stm::Variant::HVSorting);
  uint64_t First = resultDigest(Ctx.run(Plain));

  HarnessConfig Traced = Plain;
  Traced.TracePath = "serve_warm_trace.bin";
  uint64_t WithTrace = resultDigest(Ctx.run(Traced));
  uint64_t After = resultDigest(Ctx.run(Plain));
  EXPECT_EQ(WithTrace, First) << "trace recording changed modeled results";
  EXPECT_EQ(After, First) << "observer leaked into the following warm run";
  std::remove("serve_warm_trace.bin");
  std::remove("serve_warm_trace.bin.1");
  std::remove("serve_warm_trace.bin.2");
}

/// A traced run's transaction observer detaches with its recorder: a
/// weak-memory run that follows on the same warm context relaxes memory
/// exactly as a one-shot run with an identically seeded model does.
TEST(WarmIdentityObserverTest, WmmRunAfterTracedRunMatchesOneShot) {
  auto Warm = smallWorkload("RA");
  HarnessConfig Plain = smallConfig(stm::Variant::HVSorting);
  ExecutionContext Ctx(*Warm, Plain);
  HarnessConfig Traced = Plain;
  Traced.TracePath = "serve_warm_wmm_trace.bin";
  ASSERT_TRUE(Ctx.run(Traced).Completed);
  std::remove("serve_warm_wmm_trace.bin");

  wmm::WmmConfig WC;
  WC.Seed = 7;
  wmm::MemModel WarmModel(WC);
  HarnessConfig Relaxed = Plain;
  Relaxed.Wmm = &WarmModel;
  HarnessResult WarmR = Ctx.run(Relaxed);
  ASSERT_TRUE(WarmR.Completed) << WarmR.Error;
  EXPECT_GT(WarmR.Sim.get("wmm.drains"), 0u)
      << "weak-memory mode stayed off after the traced run";

  wmm::MemModel OneShotModel(WC);
  Relaxed.Wmm = &OneShotModel;
  auto Fresh = smallWorkload("RA");
  EXPECT_EQ(resultDigest(WarmR), resultDigest(runWorkload(*Fresh, Relaxed)))
      << "warm weak-memory run diverged from one-shot";
}

/// A workload that declines reset(): the context must fall back to a full
/// rewind + setup and still match one-shot digests.
TEST(WarmIdentityFallbackTest, NoResetWorkloadFallsBackToFullSetup) {
  struct NoReset : RandomArray {
    using RandomArray::RandomArray;
    bool reset(simt::Device &Dev) override {
      (void)Dev;
      return false; // Decline: force the rewind-to-zero + setup() path.
    }
  };
  RandomArray::Params P;
  P.ArrayWords = 1u << 12;
  P.NumTx = 256;
  NoReset W(P);
  HarnessConfig HC = smallConfig(stm::Variant::Optimized);
  ExecutionContext Ctx(W, HC);
  uint64_t Cold = resultDigest(Ctx.run(HC));
  uint64_t WarmDigest = resultDigest(Ctx.run(HC));
  RandomArray Fresh(P);
  EXPECT_EQ(Cold, resultDigest(runWorkload(Fresh, HC)));
  EXPECT_EQ(WarmDigest, Cold);
}

/// Shape violations are fatal, not silently mis-sized: a warmed context
/// refuses a request with different launches or lock counts.
TEST(ExecutionContextDeathTest, ShapeMismatchIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto W = smallWorkload("RA");
  HarnessConfig HC = smallConfig(stm::Variant::HVSorting);
  ExecutionContext Ctx(*W, HC);
  HarnessConfig BadLocks = HC;
  BadLocks.NumLocks = HC.NumLocks * 2;
  EXPECT_DEATH(Ctx.run(BadLocks), "shape");
  HarnessConfig BadLaunch = HC;
  BadLaunch.Launches = {{4, 128}};
  EXPECT_DEATH(Ctx.run(BadLaunch), "shape");
}

//===----------------------------------------------------------------------===//
// Request scripts and the stream generator
//===----------------------------------------------------------------------===//

TEST(RequestScriptTest, ParsesWorkloadsVariantsScalesAndRepeats) {
  std::vector<Request> Reqs;
  std::string Err;
  ASSERT_TRUE(parseRequestScript("# header comment\n"
                                 "RA hv\n"
                                 "HT STM-Optimized 2\n"
                                 "\n"
                                 "KM cgl x3  # trailing comment\n"
                                 "GN backoff 4 x2\n",
                                 Reqs, Err))
      << Err;
  ASSERT_EQ(Reqs.size(), 7u);
  EXPECT_EQ(Reqs[0].Workload, "RA");
  EXPECT_EQ(Reqs[0].Kind, stm::Variant::HVSorting);
  EXPECT_EQ(Reqs[0].Scale, 1u);
  EXPECT_EQ(Reqs[1].Kind, stm::Variant::Optimized);
  EXPECT_EQ(Reqs[1].Scale, 2u);
  EXPECT_EQ(Reqs[2].Workload, "KM");
  EXPECT_EQ(Reqs[4].Workload, "KM");
  EXPECT_EQ(Reqs[5].Workload, "GN");
  EXPECT_EQ(Reqs[5].Scale, 4u);
  EXPECT_EQ(Reqs[6].Workload, "GN");
}

TEST(RequestScriptTest, RejectsMalformedLinesWithLineNumbers) {
  std::vector<Request> Reqs;
  std::string Err;
  EXPECT_FALSE(parseRequestScript("RA hv\nZZ hv\n", Reqs, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("ZZ"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(parseRequestScript("RA nosuchvariant\n", Reqs, Err));
  EXPECT_NE(Err.find("variant"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(parseRequestScript("RA\n", Reqs, Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(parseRequestScript("RA hv x0\n", Reqs, Err));
  EXPECT_NE(Err.find("repeat"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(parseRequestScript("RA hv 1 2\n", Reqs, Err));
  EXPECT_NE(Err.find("unexpected"), std::string::npos) << Err;
}

TEST(RequestStreamTest, GeneratorIsDeterministicAndSeedSensitive) {
  auto A = makeMixedStream(7, 32, {"RA", "HT"},
                           {stm::Variant::HVSorting, stm::Variant::Optimized});
  auto B = makeMixedStream(7, 32, {"RA", "HT"},
                           {stm::Variant::HVSorting, stm::Variant::Optimized});
  auto C = makeMixedStream(8, 32, {"RA", "HT"},
                           {stm::Variant::HVSorting, stm::Variant::Optimized});
  ASSERT_EQ(A.size(), 32u);
  bool SameAsB = true, SameAsC = true;
  for (size_t I = 0; I < A.size(); ++I) {
    SameAsB &= formatRequest(A[I]) == formatRequest(B[I]);
    SameAsC &= formatRequest(A[I]) == formatRequest(C[I]);
  }
  EXPECT_TRUE(SameAsB) << "same seed must reproduce the same stream";
  EXPECT_FALSE(SameAsC) << "different seeds should differ";
}

//===----------------------------------------------------------------------===//
// StmServer
//===----------------------------------------------------------------------===//

/// A short mixed stream with repeats (cache hits) and variant changes on
/// one context key (warm runs) -- small scripted requests would be ideal,
/// but the server resolves paper-scale configs from Request, so keep to
/// the fast classes.
std::vector<Request> smokeStream() {
  std::vector<Request> Reqs;
  std::string Err;
  EXPECT_TRUE(parseRequestScript("HT hv x2\n"
                                 "HT opt\n"
                                 "KM cgl\n"
                                 "HT cgl\n"
                                 "KM cgl\n"
                                 "HT hv\n",
                                 Reqs, Err))
      << Err;
  return Reqs;
}

ServerConfig testServerConfig(unsigned Workers, int Cache) {
  ServerConfig SC;
  SC.Workers = Workers;
  SC.QueueDepth = 16;
  SC.BatchCap = 4;
  SC.CacheResults = Cache;
  return SC;
}

TEST(StmServerTest, ResultsComeBackInSubmitOrderAndMatchOneShot) {
  std::vector<Request> Stream = smokeStream();
  StmServer Server(testServerConfig(2, 1));
  std::vector<RequestResult> Results = Server.serve(Stream);
  ASSERT_EQ(Results.size(), Stream.size());

  std::map<std::string, uint64_t> OneShot;
  for (size_t I = 0; I < Results.size(); ++I) {
    EXPECT_EQ(formatRequest(Results[I].Req), formatRequest(Stream[I]))
        << "result " << I << " out of submit order";
    ASSERT_TRUE(Results[I].Ok) << Results[I].Error;
    const std::string Key = requestKey(Stream[I]);
    if (!OneShot.count(Key)) {
      auto W = makeWorkload(Stream[I].Workload, Stream[I].Scale);
      OneShot[Key] = resultDigest(runWorkload(*W, requestConfig(Stream[I])));
    }
    EXPECT_EQ(Results[I].Digest, OneShot[Key])
        << Key << ": served result diverged from one-shot";
  }

  ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Requests, Stream.size());
  EXPECT_EQ(Stats.ColdRuns + Stats.WarmRuns + Stats.CacheHits, Stream.size());
  EXPECT_GT(Stats.CacheHits, 0u) << "repeats in the stream must memoize";
  EXPECT_GT(Stats.WarmRuns, 0u) << "variant changes must run warm";
  // Two context keys (HT@1, KM@1) -- warm reuse means at most one context
  // per key per worker, far below one per request.
  EXPECT_LE(Stats.ContextsBuilt, 2u * 2u);
}

TEST(StmServerTest, CacheOffStillMatchesAndBuildsNoExtraContexts) {
  std::vector<Request> Stream = smokeStream();
  StmServer Cached(testServerConfig(1, 1));
  StmServer Uncached(testServerConfig(1, 0));
  std::vector<RequestResult> A = Cached.serve(Stream);
  std::vector<RequestResult> B = Uncached.serve(Stream);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    ASSERT_TRUE(A[I].Ok && B[I].Ok);
    EXPECT_EQ(A[I].Digest, B[I].Digest) << "request " << I;
  }
  EXPECT_EQ(Uncached.stats().CacheHits, 0u);
  EXPECT_GT(Cached.stats().CacheHits, 0u);
}

TEST(StmServerTest, DrainResetsWaveButKeepsPoolWarm) {
  StmServer Server(testServerConfig(1, 1));
  std::vector<Request> Wave = {{"HT", stm::Variant::HVSorting, 1},
                               {"HT", stm::Variant::Optimized, 1}};
  std::vector<RequestResult> First = Server.serve(Wave);
  ASSERT_EQ(First.size(), 2u);
  EXPECT_EQ(First[0].Temp, Temperature::Cold);
  EXPECT_EQ(First[1].Temp, Temperature::Warm);

  // Second wave: the context pool and cache survive the drain, so nothing
  // runs cold again.
  std::vector<RequestResult> Second = Server.serve(Wave);
  ASSERT_EQ(Second.size(), 2u);
  for (const RequestResult &R : Second) {
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Temp, Temperature::Cached);
  }
  EXPECT_EQ(Second[0].Digest, First[0].Digest);
  EXPECT_EQ(Second[1].Digest, First[1].Digest);
  EXPECT_EQ(Server.stats().ContextsBuilt, 1u);
}

//===----------------------------------------------------------------------===//
// Strict GPUSTM_SERVER_* parsing
//===----------------------------------------------------------------------===//

TEST(ServerEnvDeathTest, BadWorkerCountIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto Resolve = [](const char *Var, const char *Value) {
    ::setenv(Var, Value, 1);
    ServerConfig SC = resolveServerConfig(ServerConfig());
    ::unsetenv(Var);
    return SC;
  };
  EXPECT_DEATH(Resolve("GPUSTM_SERVER_WORKERS", "0"),
               "GPUSTM_SERVER_WORKERS='0'.*1\\.\\.256");
  EXPECT_DEATH(Resolve("GPUSTM_SERVER_WORKERS", "257"),
               "GPUSTM_SERVER_WORKERS='257'.*1\\.\\.256");
  EXPECT_DEATH(Resolve("GPUSTM_SERVER_WORKERS", "many"), "not a number");
  EXPECT_DEATH(Resolve("GPUSTM_SERVER_QUEUE", "8x"), "trailing garbage");
  EXPECT_DEATH(Resolve("GPUSTM_SERVER_QUEUE", "0"), "GPUSTM_SERVER_QUEUE");
  EXPECT_DEATH(Resolve("GPUSTM_SERVER_BATCH", "-2"), "GPUSTM_SERVER_BATCH");
  ::unsetenv("GPUSTM_SERVER_WORKERS");
  ::unsetenv("GPUSTM_SERVER_QUEUE");
  ::unsetenv("GPUSTM_SERVER_BATCH");
}

TEST(ServerEnvDeathTest, BrokenServerScriptIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<Request> Reqs;
  ::unsetenv("GPUSTM_SERVER_SCRIPT");
  EXPECT_FALSE(requestsFromEnv(Reqs)) << "unset must be a quiet no";

  auto FromScript = [&](const char *Text) {
    const char *Path = "serve_env_script.txt";
    std::FILE *F = std::fopen(Path, "w");
    std::fputs(Text, F);
    std::fclose(F);
    ::setenv("GPUSTM_SERVER_SCRIPT", Path, 1);
    std::vector<Request> Out;
    requestsFromEnv(Out);
    return Out;
  };
  EXPECT_DEATH(FromScript("RA nosuch\n"), "GPUSTM_SERVER_SCRIPT.*variant");
  EXPECT_DEATH(
      {
        ::setenv("GPUSTM_SERVER_SCRIPT", "/nonexistent/reqs.txt", 1);
        std::vector<Request> Out;
        requestsFromEnv(Out);
      },
      "GPUSTM_SERVER_SCRIPT.*cannot open");

  // A good script parses through the same path.
  std::vector<Request> Good = FromScript("RA hv x2\nKM opt\n");
  ASSERT_EQ(Good.size(), 3u);
  EXPECT_EQ(Good[2].Workload, "KM");
  ::unsetenv("GPUSTM_SERVER_SCRIPT");
  std::remove("serve_env_script.txt");
}

} // namespace
