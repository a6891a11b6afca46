//===- tests/simt/FiberTest.cpp - Fiber machinery tests -------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Fiber.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

using namespace gpustm::simt;

namespace {

struct CounterArg {
  int Value = 0;
  int YieldsWanted = 0;
};

void countingBody(void *ArgPtr) {
  auto *Arg = static_cast<CounterArg *>(ArgPtr);
  for (int I = 0; I < Arg->YieldsWanted; ++I) {
    ++Arg->Value;
    Fiber::yieldToHost();
  }
  ++Arg->Value;
}

TEST(FiberTest, RunsToCompletionWithoutYield) {
  StackPool Pool(16 * 1024);
  CounterArg Arg{0, 0};
  Fiber F;
  F.init(Pool.acquire(), countingBody, &Arg);
  EXPECT_FALSE(F.isFinished());
  F.resume();
  EXPECT_TRUE(F.isFinished());
  EXPECT_EQ(Arg.Value, 1);
  Pool.release(F.takeStack());
}

TEST(FiberTest, YieldsAndResumes) {
  StackPool Pool(16 * 1024);
  CounterArg Arg{0, 3};
  Fiber F;
  F.init(Pool.acquire(), countingBody, &Arg);
  F.resume();
  EXPECT_EQ(Arg.Value, 1);
  EXPECT_FALSE(F.isFinished());
  F.resume();
  EXPECT_EQ(Arg.Value, 2);
  F.resume();
  EXPECT_EQ(Arg.Value, 3);
  F.resume(); // Body's final increment; fiber finishes.
  EXPECT_EQ(Arg.Value, 4);
  EXPECT_TRUE(F.isFinished());
  Pool.release(F.takeStack());
}

TEST(FiberTest, ManyInterleavedFibers) {
  StackPool Pool(16 * 1024);
  constexpr int NumFibers = 64;
  CounterArg Args[NumFibers];
  Fiber Fibers[NumFibers];
  for (int I = 0; I < NumFibers; ++I) {
    Args[I] = CounterArg{0, 5};
    Fibers[I].init(Pool.acquire(), countingBody, &Args[I]);
  }
  bool AnyLive = true;
  while (AnyLive) {
    AnyLive = false;
    for (int I = 0; I < NumFibers; ++I) {
      if (Fibers[I].isFinished())
        continue;
      Fibers[I].resume();
      AnyLive = true;
    }
  }
  for (int I = 0; I < NumFibers; ++I) {
    EXPECT_EQ(Args[I].Value, 6);
    Pool.release(Fibers[I].takeStack());
  }
}

TEST(FiberTest, StackPoolRecyclesStacks) {
  StackPool Pool(16 * 1024);
  FiberStack S1 = Pool.acquire();
  void *Base = S1.base();
  Pool.release(S1);
  FiberStack S2 = Pool.acquire();
  EXPECT_EQ(S2.base(), Base);
  EXPECT_EQ(Pool.totalAllocated(), 1u);
  Pool.release(S2);
}

TEST(FiberTest, CurrentIsNullOnHost) {
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(FiberTest, SlabPoolRunsFibers) {
  // Slab layout: stacks carved from shared mappings (2 VMAs per slab
  // instead of 2 per stack).  Fibers must behave identically.
  StackPool Pool(16 * 1024, StackLayout::Slab);
  EXPECT_TRUE(Pool.usesSlabs());
  constexpr int NumFibers = 300; // spills into a second slab of 256
  std::vector<CounterArg> Args(NumFibers);
  std::vector<Fiber> Fibers(NumFibers);
  for (int I = 0; I < NumFibers; ++I) {
    Args[I] = CounterArg{0, 2};
    Fibers[I].init(Pool.acquire(), countingBody, &Args[I]);
  }
  for (int Step = 0; Step < 3; ++Step)
    for (int I = 0; I < NumFibers; ++I)
      Fibers[I].resume();
  for (int I = 0; I < NumFibers; ++I) {
    EXPECT_TRUE(Fibers[I].isFinished());
    EXPECT_EQ(Args[I].Value, 3);
    Pool.release(Fibers[I].takeStack());
  }
}

TEST(FiberTest, SlabStacksAreDisjointAndStaggered) {
  // Device-sized stacks: at a plain 64 KiB stride every stack top would be
  // congruent modulo 64 KiB, i.e. sit in the same cache set.
  constexpr size_t StackBytes = 64 * 1024;
  StackPool Pool(StackBytes, StackLayout::Slab);
  std::vector<FiberStack> Stacks;
  for (int I = 0; I < 300; ++I) // spills into a second slab of 256
    Stacks.push_back(Pool.acquire());
  EXPECT_EQ(Pool.totalAllocated(), 512u);

  std::vector<FiberStack> ByBase = Stacks;
  std::sort(ByBase.begin(), ByBase.end(),
            [](const FiberStack &A, const FiberStack &B) {
              return A.base() < B.base();
            });
  for (size_t I = 0; I < ByBase.size(); ++I) {
    EXPECT_GE(ByBase[I].usableBytes(), StackBytes);
    if (I > 0) {
      EXPECT_LE(ByBase[I - 1].top(), ByBase[I].base())
          << "stacks " << I - 1 << " and " << I << " overlap";
    }
  }

  std::set<uintptr_t> TopResidues;
  for (const FiberStack &S : Stacks)
    TopResidues.insert(reinterpret_cast<uintptr_t>(S.top()) % StackBytes);
  EXPECT_GT(TopResidues.size(), 1u)
      << "every stack top falls on the same 64 KiB offset";
  for (const FiberStack &S : Stacks)
    Pool.release(S);
}

TEST(FiberTest, SlabPoolRecyclesStacks) {
  StackPool Pool(16 * 1024, StackLayout::Slab);
  FiberStack S1 = Pool.acquire();
  void *Base = S1.base();
  Pool.release(S1);
  FiberStack S2 = Pool.acquire();
  EXPECT_EQ(S2.base(), Base);
  Pool.release(S2);
}

void deepStackBody(void *ArgPtr) {
  // Touch a few KB of stack to validate usable stack space.
  volatile char Buffer[8000];
  for (size_t I = 0; I < sizeof(Buffer); I += 512)
    Buffer[I] = 2;
  *static_cast<int *>(ArgPtr) = Buffer[512];
}

TEST(FiberTest, UsableStackDepth) {
  StackPool Pool(32 * 1024);
  int Out = 0;
  Fiber F;
  F.init(Pool.acquire(), deepStackBody, &Out);
  F.resume();
  EXPECT_TRUE(F.isFinished());
  EXPECT_EQ(Out, 2);
  Pool.release(F.takeStack());
}

constexpr size_t kSlabDepthStackBytes = 32 * 1024;

void nearlyFullStackBody(void *ArgPtr) {
  // Leave 2 KiB of the usable stack for the boot and trampoline frames and
  // this frame's own spill slots; touch every line of the rest.
  volatile char Buffer[kSlabDepthStackBytes - 2048];
  for (size_t I = 0; I < sizeof(Buffer); I += 64)
    Buffer[I] = 3;
  Buffer[sizeof(Buffer) - 1] = 3;
  *static_cast<int *>(ArgPtr) = Buffer[0] + Buffer[sizeof(Buffer) - 1];
}

TEST(FiberTest, SlabUsableStackDepth) {
  // The slab twin of UsableStackDepth: an interior slab stack has no guard
  // page, so a fiber that uses nearly all of it must stay clear of both
  // neighbours.
  StackPool Pool(kSlabDepthStackBytes, StackLayout::Slab);
  FiberStack Below = Pool.acquire();
  FiberStack Mid = Pool.acquire();
  FiberStack Above = Pool.acquire();
  ASSERT_LE(Below.top(), Mid.base());
  ASSERT_LE(Mid.top(), Above.base());

  constexpr uint64_t Canary = 0x5AFEC0DEDEADBEEFull;
  auto Words = [](const FiberStack &S) {
    return std::make_pair(static_cast<uint64_t *>(S.base()),
                          static_cast<uint64_t *>(S.top()));
  };
  for (const FiberStack *S : {&Below, &Above}) {
    auto [Begin, End] = Words(*S);
    std::fill(Begin, End, Canary);
  }

  int Out = 0;
  Fiber F;
  F.init(Mid, nearlyFullStackBody, &Out);
  F.resume();
  EXPECT_TRUE(F.isFinished());
  EXPECT_EQ(Out, 6);

  for (const FiberStack *S : {&Below, &Above}) {
    auto [Begin, End] = Words(*S);
    EXPECT_EQ(std::count(Begin, End, Canary), End - Begin)
        << "a neighbouring stack was overwritten";
  }
  Pool.release(F.takeStack());
  Pool.release(Below);
  Pool.release(Above);
}

// The switch must return into whichever host frame resumed the fiber this
// time, not the one that resumed it before: the two helpers below resume
// the same fiber from different call depths, each holding locals across
// the resume that only a return into that very frame gets back intact.

struct PingPongArg {
  int Steps = 0;
  long FiberSum = 0;
};

void pingPongBody(void *ArgPtr) {
  auto *Arg = static_cast<PingPongArg *>(ArgPtr);
  volatile long Local = 1000;
  for (int I = 0; I < 3; ++I) {
    ++Arg->Steps;
    Fiber::yieldToHost();
    Local = Local + I;
  }
  ++Arg->Steps;
  Arg->FiberSum = Local;
}

__attribute__((noinline)) long resumeShallow(Fiber &F, long Tag) {
  volatile long Local = Tag * 3;
  F.resume();
  return Local + 1;
}

__attribute__((noinline)) long resumeDeepest(Fiber &F, long Tag) {
  volatile long Locals[8];
  for (int I = 0; I < 8; ++I)
    Locals[I] = Tag + I;
  F.resume();
  long Sum = 0;
  for (int I = 0; I < 8; ++I)
    Sum += Locals[I];
  return Sum;
}

__attribute__((noinline)) long resumeDeep(Fiber &F, long Tag) {
  volatile long Local = Tag * 5;
  long Inner = resumeDeepest(F, Tag + 1);
  return Inner + Local;
}

TEST(FiberTest, SwitchReturnsToCurrentResumeSite) {
  for (StackLayout Layout : {StackLayout::Guarded, StackLayout::Slab}) {
    StackPool Pool(16 * 1024, Layout);
    PingPongArg Arg;
    Fiber F;
    F.init(Pool.acquire(), pingPongBody, &Arg);

    EXPECT_EQ(resumeShallow(F, 7), 7 * 3 + 1);
    EXPECT_EQ(Arg.Steps, 1);
    // resumeDeep(T) = sum(T+1 .. T+8) + 5T.
    EXPECT_EQ(resumeDeep(F, 10), 11 * 8 + 28 + 50);
    EXPECT_EQ(Arg.Steps, 2);
    EXPECT_EQ(resumeShallow(F, -4), -4 * 3 + 1);
    EXPECT_EQ(Arg.Steps, 3);
    EXPECT_FALSE(F.isFinished());
    EXPECT_EQ(resumeDeep(F, 20), 21 * 8 + 28 + 100);
    EXPECT_EQ(Arg.Steps, 4);
    EXPECT_TRUE(F.isFinished());
    EXPECT_EQ(Arg.FiberSum, 1000 + 0 + 1 + 2);
    Pool.release(F.takeStack());
  }
}

} // namespace
