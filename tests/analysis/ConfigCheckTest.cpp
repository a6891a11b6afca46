//===- tests/analysis/ConfigCheckTest.cpp - StmConfig validation ----------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
//
// One test per validateStmConfig rule, plus the fatal escalation path the
// runtime uses at construction.  The rules live in a single function shared
// by StmRuntime, the fuzzer, and stmlint's config.invalid check, so this
// file is the only place the diagnostics need pinning.
//
//===----------------------------------------------------------------------===//

#include "stm/ConfigCheck.h"
#include "stm/LockLog.h"

#include <gtest/gtest.h>

using namespace gpustm;
using stm::StmConfig;
using stm::validateStmConfig;
using stm::Variant;

namespace {

StmConfig baseConfig() {
  StmConfig C;
  C.SharedDataWords = 1u << 16;
  return C;
}

TEST(ConfigCheck, DefaultConfigAccepted) {
  EXPECT_EQ(validateStmConfig(baseConfig()), "");
  // SharedDataWords = 0 is legal for every variant except STM-Optimized.
  StmConfig C;
  EXPECT_EQ(validateStmConfig(C), "");
}

TEST(ConfigCheck, NumLocksMustBeNonzeroPowerOfTwo) {
  StmConfig C = baseConfig();
  C.NumLocks = 0;
  EXPECT_NE(validateStmConfig(C).find("NumLocks"), std::string::npos);
  C.NumLocks = 3;
  EXPECT_NE(validateStmConfig(C).find("power of two"), std::string::npos);
  C.NumLocks = (1u << 20) + 1;
  EXPECT_FALSE(validateStmConfig(C).empty());
  C.NumLocks = 1; // 2^0 is a (degenerate but legal) single stripe.
  EXPECT_EQ(validateStmConfig(C), "");
}

TEST(ConfigCheck, LogCapsMustBeNonzero) {
  StmConfig C = baseConfig();
  C.ReadSetCap = 0;
  EXPECT_NE(validateStmConfig(C).find("ReadSetCap"), std::string::npos);
  C = baseConfig();
  C.WriteSetCap = 0;
  EXPECT_NE(validateStmConfig(C).find("WriteSetCap"), std::string::npos);
}

TEST(ConfigCheck, LockLogShapeBounds) {
  StmConfig C = baseConfig();
  C.LockLogBuckets = 0;
  EXPECT_NE(validateStmConfig(C).find("LockLogBuckets"), std::string::npos);
  C.LockLogBuckets = stm::LockLog::MaxBuckets;
  EXPECT_EQ(validateStmConfig(C), "");
  C.LockLogBuckets = stm::LockLog::MaxBuckets + 1;
  EXPECT_NE(validateStmConfig(C).find("LockLogBuckets"), std::string::npos);
  C = baseConfig();
  C.LockLogBucketCap = 0;
  EXPECT_NE(validateStmConfig(C).find("LockLogBucketCap"), std::string::npos);
}

TEST(ConfigCheck, OversizedCapsLookTransposed) {
  // Caps over 16x the declared shared data are almost certainly swapped
  // arguments; rejected only when SharedDataWords is actually declared.
  StmConfig C = baseConfig();
  C.SharedDataWords = 4;
  C.ReadSetCap = 65;
  EXPECT_NE(validateStmConfig(C).find("16x"), std::string::npos);
  C.ReadSetCap = 64; // exactly 16x: allowed
  EXPECT_EQ(validateStmConfig(C), "");
  C.SharedDataWords = 0;
  C.ReadSetCap = 1u << 20;
  EXPECT_EQ(validateStmConfig(C), "");
}

TEST(ConfigCheck, OptimizedNeedsSharedDataWords) {
  StmConfig C = baseConfig();
  C.Kind = Variant::Optimized;
  EXPECT_EQ(validateStmConfig(C), "");
  C.SharedDataWords = 0;
  EXPECT_NE(validateStmConfig(C).find("STM-Optimized"), std::string::npos);
}

TEST(ConfigCheckDeathTest, CheckOrDieEscalatesToFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  StmConfig C = baseConfig();
  C.NumLocks = 12;
  EXPECT_DEATH(stm::checkStmConfigOrDie(C),
               "invalid StmConfig: NumLocks must be a nonzero power of two");
  StmConfig Ok = baseConfig();
  stm::checkStmConfigOrDie(Ok); // Well-formed: returns normally.
}

} // namespace
