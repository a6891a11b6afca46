//===- tests/support/SupportTest.cpp - Support library tests --------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "support/EnvOptions.h"
#include "support/Format.h"
#include "support/FunctionRef.h"
#include "support/MathExtras.h"
#include "support/Parallel.h"
#include "support/Random.h"
#include "support/SmallVector.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>

using namespace gpustm;

namespace {

TEST(MathExtrasTest, PowerOfTwoPredicates) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(2));
  EXPECT_FALSE(isPowerOf2(3));
  EXPECT_TRUE(isPowerOf2(1ull << 40));
  EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(MathExtrasTest, Log2AndNextPow2) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(2), 1u);
  EXPECT_EQ(log2Floor(3), 1u);
  EXPECT_EQ(log2Floor(1024), 10u);
  EXPECT_EQ(nextPowerOf2(1), 1ull);
  EXPECT_EQ(nextPowerOf2(3), 4ull);
  EXPECT_EQ(nextPowerOf2(1024), 1024ull);
  EXPECT_EQ(nextPowerOf2(1025), 2048ull);
}

TEST(MathExtrasTest, DivideCeilAndAlign) {
  EXPECT_EQ(divideCeil(0, 4), 0ull);
  EXPECT_EQ(divideCeil(1, 4), 1ull);
  EXPECT_EQ(divideCeil(4, 4), 1ull);
  EXPECT_EQ(divideCeil(5, 4), 2ull);
  EXPECT_EQ(alignTo(0, 16), 0ull);
  EXPECT_EQ(alignTo(1, 16), 16ull);
  EXPECT_EQ(alignTo(16, 16), 16ull);
}

TEST(RandomTest, DeterministicAndSeedSensitive) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Diverged = false;
  Rng A2(42);
  for (int I = 0; I < 100 && !Diverged; ++I)
    Diverged = A2.next() != C.next();
  EXPECT_TRUE(Diverged);
}

TEST(RandomTest, BoundedSamplingStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 10000; ++I) {
    uint64_t V = R.nextBelow(37);
    EXPECT_LT(V, 37u);
  }
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.nextInRange(10, 20);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 20u);
  }
}

TEST(RandomTest, RoughUniformity) {
  Rng R(11);
  unsigned Buckets[8] = {};
  constexpr int N = 80000;
  for (int I = 0; I < N; ++I)
    ++Buckets[R.nextBelow(8)];
  for (unsigned B : Buckets) {
    EXPECT_GT(B, N / 8 - N / 40);
    EXPECT_LT(B, N / 8 + N / 40);
  }
}

TEST(RandomTest, ZeroSeedIsRemapped) {
  Rng R(0);
  EXPECT_NE(R.next(), 0u);
}

TEST(FormatTest, FormatString) {
  EXPECT_EQ(formatString("%d + %d = %d", 2, 2, 4), "2 + 2 = 4");
  EXPECT_EQ(formatString("%s", "plain"), "plain");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(FormatTest, Padding) {
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(FormatTest, FormatCount) {
  EXPECT_EQ(formatCount(7), "7");
  EXPECT_EQ(formatCount(1024), "1K");
  EXPECT_EQ(formatCount(1u << 20), "1M");
  EXPECT_EQ(formatCount(3u << 20), "3M");
  EXPECT_EQ(formatCount(1000), "1000");
}

TEST(StatsTest, AddGetMergeEntries) {
  StatsSet A, B;
  A.inc("x");
  A.add("x", 4);
  A.set("y", 10);
  B.add("x", 1);
  B.add("z", 2);
  A.merge(B);
  EXPECT_EQ(A.get("x"), 6u);
  EXPECT_EQ(A.get("y"), 10u);
  EXPECT_EQ(A.get("z"), 2u);
  EXPECT_EQ(A.get("missing"), 0u);
  auto E = A.entries();
  ASSERT_EQ(E.size(), 3u);
  EXPECT_EQ(E[0].first, "x"); // Name-sorted.
}

/// Set GPUSTM_TEST_OPT to \p V and read it over the full 64-bit range.
uint64_t readTestOpt(const char *V) {
  ::setenv("GPUSTM_TEST_OPT", V, 1);
  return envUnsignedInRange("GPUSTM_TEST_OPT", 7, 0, ~0ull);
}

TEST(EnvOptionsTest, ParsesAndDefaults) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EQ(readTestOpt("123"), 123u);
  EXPECT_EQ(readTestOpt("0x10"), 16u);
  // A set-but-bad value is fatal, never the default.
  EXPECT_DEATH(readTestOpt("garbage"), "GPUSTM_TEST_OPT='garbage' is not");
  ::unsetenv("GPUSTM_TEST_OPT");
  EXPECT_EQ(envUnsignedInRange("GPUSTM_TEST_OPT", 7, 0, ~0ull), 7u);
  EXPECT_EQ(envString("GPUSTM_TEST_OPT", "dflt"), "dflt");
}

TEST(EnvOptionsTest, RejectsTrailingGarbage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // "8x" is fatal: it is neither read as 8 nor as the default.
  EXPECT_DEATH(readTestOpt("8x"), "'8x' has trailing garbage");
  EXPECT_DEATH(readTestOpt("8 9"), "'8 9' has trailing garbage");
  // Trailing whitespace alone is tolerated.
  EXPECT_EQ(readTestOpt("8 "), 8u);
  ::unsetenv("GPUSTM_TEST_OPT");
}

TEST(EnvOptionsTest, ParsesBools) {
  ::unsetenv("GPUSTM_TEST_OPT");
  EXPECT_TRUE(envBool("GPUSTM_TEST_OPT", true));
  EXPECT_FALSE(envBool("GPUSTM_TEST_OPT", false));
  for (const char *V : {"1", "true", "YES", "On"}) {
    ::setenv("GPUSTM_TEST_OPT", V, 1);
    EXPECT_TRUE(envBool("GPUSTM_TEST_OPT", false)) << V;
  }
  for (const char *V : {"0", "false", "NO", "Off"}) {
    ::setenv("GPUSTM_TEST_OPT", V, 1);
    EXPECT_FALSE(envBool("GPUSTM_TEST_OPT", true)) << V;
  }
  ::setenv("GPUSTM_TEST_OPT", "maybe", 1);
  EXPECT_TRUE(envBool("GPUSTM_TEST_OPT", true));
  EXPECT_FALSE(envBool("GPUSTM_TEST_OPT", false));
  ::unsetenv("GPUSTM_TEST_OPT");
}

TEST(EnvOptionsTest, RangeCheckedAcceptsValidAndDefaults) {
  ::unsetenv("GPUSTM_TEST_OPT");
  EXPECT_EQ(envUnsignedInRange("GPUSTM_TEST_OPT", 7, 1, 100), 7u);
  ::setenv("GPUSTM_TEST_OPT", "", 1);
  EXPECT_EQ(envUnsignedInRange("GPUSTM_TEST_OPT", 7, 1, 100), 7u);
  ::setenv("GPUSTM_TEST_OPT", "42", 1);
  EXPECT_EQ(envUnsignedInRange("GPUSTM_TEST_OPT", 7, 1, 100), 42u);
  // Range is inclusive on both ends.
  ::setenv("GPUSTM_TEST_OPT", "1", 1);
  EXPECT_EQ(envUnsignedInRange("GPUSTM_TEST_OPT", 7, 1, 100), 1u);
  ::setenv("GPUSTM_TEST_OPT", "100", 1);
  EXPECT_EQ(envUnsignedInRange("GPUSTM_TEST_OPT", 7, 1, 100), 100u);
  ::unsetenv("GPUSTM_TEST_OPT");
}

TEST(EnvOptionsTest, ParseUnsignedInRangeAcceptsAndRejects) {
  // The one numeric parser behind GPUSTM_* variables and CLI flags.
  struct Case {
    const char *Text;
    uint64_t Min, Max;
    const char *Why; ///< nullptr = accepted.
    uint64_t Value;
  };
  const Case Cases[] = {
      {"42", 0, 100, nullptr, 42},
      {"0", 0, 100, nullptr, 0},
      {"100", 1, 100, nullptr, 100},
      {"0x10", 0, 100, nullptr, 16},
      {" 7 ", 0, 100, nullptr, 7},
      {"+5", 0, 100, nullptr, 5},
      {"18446744073709551615", 0, UINT64_MAX, nullptr, UINT64_MAX},
      {"", 0, 100, "is not a number", 0},
      {"abc", 0, 100, "is not a number", 0},
      {"-", 0, 100, "is not a number", 0},
      {"two", 0, 100, "is not a number", 0},
      {"3x", 0, 100, "has trailing garbage", 0},
      {"8 9", 0, 100, "has trailing garbage", 0},
      {"1.5", 0, 100, "has trailing garbage", 0},
      {"-1", 0, 100, "is negative", 0},
      {" -0", 0, 100, "is negative", 0},
      {"18446744073709551616", 0, UINT64_MAX, "overflows", 0},
      {"0", 1, 100, "is out of range", 0},
      {"101", 1, 100, "is out of range", 0},
  };
  for (const Case &C : Cases) {
    uint64_t Out = 12345;
    const char *Why = parseUnsignedInRange(C.Text, C.Min, C.Max, Out);
    if (!C.Why) {
      EXPECT_EQ(Why, nullptr) << "'" << C.Text << "': " << Why;
      EXPECT_EQ(Out, C.Value) << C.Text;
    } else {
      ASSERT_NE(Why, nullptr) << "'" << C.Text << "' accepted";
      EXPECT_STREQ(Why, C.Why) << C.Text;
      EXPECT_EQ(Out, 12345u) << "rejected '" << C.Text << "' wrote Out";
    }
  }
}

TEST(EnvOptionsTest, RangeCheckedRejectsBadValues) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Values that size arrays must not silently degrade: set-but-bad is
  // fatal, and the message names the variable, the value, and the range.
  auto ReadIt = [](const char *V) {
    ::setenv("GPUSTM_TEST_OPT", V, 1);
    return envUnsignedInRange("GPUSTM_TEST_OPT", 7, 1, 100);
  };
  EXPECT_DEATH(ReadIt("0"), "GPUSTM_TEST_OPT='0'.*1\\.\\.100");
  EXPECT_DEATH(ReadIt("101"), "GPUSTM_TEST_OPT='101'.*1\\.\\.100");
  EXPECT_DEATH(ReadIt("99999999999999999999"), "overflows");
  EXPECT_DEATH(ReadIt("garbage"), "not a number");
  EXPECT_DEATH(ReadIt("8x"), "trailing garbage");
  EXPECT_DEATH(ReadIt("-1"), "GPUSTM_TEST_OPT='-1'");
  ::unsetenv("GPUSTM_TEST_OPT");
}

TEST(FunctionRefTest, CallsThroughWithCaptures) {
  int Acc = 0;
  auto AddN = [&Acc](int N) { Acc += N; return Acc; };
  function_ref<int(int)> F = AddN;
  EXPECT_EQ(F(3), 3);
  EXPECT_EQ(F(4), 7);
  function_ref<int(int)> Empty;
  EXPECT_FALSE(static_cast<bool>(Empty));
  EXPECT_TRUE(static_cast<bool>(F));
}

TEST(SmallVectorTest, StaysInlineUpToN) {
  SmallVector<int, 4> V;
  for (int I = 0; I < 4; ++I)
    V.push_back(I * 10);
  EXPECT_TRUE(V.isInline());
  EXPECT_EQ(V.size(), 4u);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(V[static_cast<size_t>(I)], I * 10);
}

TEST(SmallVectorTest, SpillsToHeapAndKeepsContents) {
  SmallVector<int, 4> V;
  for (int I = 0; I < 100; ++I)
    V.push_back(I);
  EXPECT_FALSE(V.isInline());
  EXPECT_EQ(V.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V[static_cast<size_t>(I)], I);
  // clear() keeps the spilled capacity (no shrink-back on the hot path).
  size_t Cap = V.capacity();
  V.clear();
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.capacity(), Cap);
}

TEST(SmallVectorTest, SwapRemoveIdiom) {
  // The watchpoint buckets compact with the swap-with-back idiom.
  SmallVector<int, 4> V;
  for (int I = 0; I < 6; ++I)
    V.push_back(I);
  V[1] = V.back();
  V.pop_back();
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V[1], 5);
}

TEST(SmallVectorTest, CopyAndMove) {
  SmallVector<int, 2> V;
  for (int I = 0; I < 8; ++I)
    V.push_back(I);
  SmallVector<int, 2> Copy(V);
  EXPECT_EQ(Copy.size(), 8u);
  EXPECT_EQ(Copy[7], 7);
  SmallVector<int, 2> Moved(std::move(V));
  EXPECT_EQ(Moved.size(), 8u);
  EXPECT_EQ(Moved[7], 7);
  EXPECT_TRUE(V.empty());
  Copy = Moved;
  EXPECT_EQ(Copy.size(), 8u);
}

TEST(ParallelTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  parallelForIndexed(N, 4, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ParallelTest, SerialFallbackRunsOnCallingThread) {
  // Jobs <= 1 must not spawn threads: the work observes the caller's
  // thread-local state directly.
  thread_local int Marker = 0;
  Marker = 42;
  bool SawMarker = true;
  parallelForIndexed(8, 1, [&](size_t) { SawMarker &= (Marker == 42); });
  EXPECT_TRUE(SawMarker);
}

TEST(ParallelTest, MapResultsAreInIndexOrder) {
  std::function<int(size_t)> Square = [](size_t I) {
    return static_cast<int>(I * I);
  };
  std::vector<int> Serial = parallelMapIndexed<int>(64, 1, Square);
  std::vector<int> Par = parallelMapIndexed<int>(64, 4, Square);
  EXPECT_EQ(Serial, Par);
  for (size_t I = 0; I < Serial.size(); ++I)
    EXPECT_EQ(Serial[I], static_cast<int>(I * I));
}

TEST(ParallelTest, HandlesZeroAndOneItems) {
  int Runs = 0;
  parallelForIndexed(0, 4, [&](size_t) { ++Runs; });
  EXPECT_EQ(Runs, 0);
  parallelForIndexed(1, 4, [&](size_t) { ++Runs; });
  EXPECT_EQ(Runs, 1);
}

TEST(ParallelTest, HostJobsClampedAndCached) {
  // hostJobs() reads GPUSTM_JOBS once per process; whatever it returns
  // must be in the documented [1, 256] range.
  unsigned J = hostJobs();
  EXPECT_GE(J, 1u);
  EXPECT_LE(J, 256u);
  EXPECT_EQ(hostJobs(), J);
}

TEST(ParallelTest, HostJobsRejectsGarbage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // A bad GPUSTM_JOBS is fatal, never a silent serial run.  The death-test
  // child is a fresh process, so hostJobs() reads the variable there.
  ::setenv("GPUSTM_JOBS", "two", 1);
  EXPECT_DEATH(hostJobs(),
               "GPUSTM_JOBS='two' is not a number; accepted range is "
               "1\\.\\.256");
  ::unsetenv("GPUSTM_JOBS");
}

} // namespace
