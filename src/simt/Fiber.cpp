//===- simt/Fiber.cpp - Cooperative lane fibers ---------------------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Fiber.h"
#include "support/EnvOptions.h"
#include "support/Error.h"

#include <cassert>
#include <cstring>
#include <sys/mman.h>
#include <unistd.h>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define GPUSTM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GPUSTM_ASAN 1
#endif
#endif
#ifdef GPUSTM_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace gpustm;
using namespace gpustm::simt;

//===----------------------------------------------------------------------===//
// Context switch
//===----------------------------------------------------------------------===//

#if defined(__x86_64__)

// System V AMD64 user-mode context switch.  Pushes the callee-saved integer
// registers below the caller's return address (the continuation), publishes
// the stack pointer through *SaveSP, then installs RestoreSP, pops the
// target's registers and continuation, and jumps to it.  The FP control
// words are not modified by any simulated code, so they are intentionally
// not saved.
//
// The switch leaves by `jmp`, not `ret`: a `ret` is predicted from the
// return-stack buffer, whose top entry is the return into the caller on the
// stack being left, so a switch by `ret` always mispredicts.  One macro
// stamps out a symbol per direction, so each direction jumps from its own
// site, whose target (the code after the other direction's call) hardly
// ever changes.
extern "C" void gpustm_fiber_resume(void **SaveSP, void *RestoreSP);
extern "C" void gpustm_fiber_yield(void **SaveSP, void *RestoreSP);
extern "C" void gpustm_fiber_boot();
extern "C" void gpustm_fiber_trampoline(void *Self);

asm(R"asm(
.text
.macro GPUSTM_FIBER_SWITCH name
.globl \name
.type \name, @function
\name:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  popq %rcx
  jmpq *%rcx
.size \name, .-\name
.endm
GPUSTM_FIBER_SWITCH gpustm_fiber_resume
GPUSTM_FIBER_SWITCH gpustm_fiber_yield
.purgem GPUSTM_FIBER_SWITCH

.globl gpustm_fiber_boot
.type gpustm_fiber_boot, @function
gpustm_fiber_boot:
  movq %r12, %rdi
  andq $-16, %rsp
  callq gpustm_fiber_trampoline
  ud2
.size gpustm_fiber_boot, .-gpustm_fiber_boot
)asm");

#endif // __x86_64__

namespace {
thread_local Fiber *CurrentFiberTLS = nullptr;
} // namespace

// `used`: the only reference is from the toplevel asm blob, which LTO
// cannot see, so without the attribute -flto links drop the symbol.
extern "C" __attribute__((used)) void gpustm_fiber_trampoline(void *Self) {
  // Runs the fiber body; never returns to the caller.
  Fiber::trampoline(static_cast<Fiber *>(Self));
}

void Fiber::trampoline(Fiber *Self) {
  Self->Entry(Self->Arg);
  Self->Finished = true;
  yieldToHost();
  gpustm_unreachable("resumed a finished fiber");
}

void Fiber::init(FiberStack S, EntryFn E, void *A) {
  assert(S.valid() && "fiber needs a stack");
  Stack = S;
  Entry = E;
  Arg = A;
  Started = false;
  Finished = false;

#if defined(__x86_64__)
  // Build the initial switch frame: six callee-saved register slots followed
  // by the boot shim as the continuation.  The boot shim expects the Fiber
  // pointer in r12 (the fourth popped slot).
  uintptr_t Top = reinterpret_cast<uintptr_t>(S.top()) & ~uintptr_t(15);
  uint64_t *Frame = reinterpret_cast<uint64_t *>(Top) - 7;
  Frame[0] = 0;                                    // r15
  Frame[1] = 0;                                    // r14
  Frame[2] = 0;                                    // r13
  Frame[3] = reinterpret_cast<uint64_t>(this);     // r12
  Frame[4] = 0;                                    // rbx
  Frame[5] = 0;                                    // rbp
  Frame[6] = reinterpret_cast<uint64_t>(&gpustm_fiber_boot);
  FiberSP = Frame;
#else
  FiberSP = nullptr; // ucontext path initializes lazily in resume().
#endif
}

#if defined(__x86_64__)

void Fiber::resume() {
  assert(!Finished && "resuming a finished fiber");
  assert(CurrentFiberTLS == nullptr && "nested fiber resume");
  CurrentFiberTLS = this;
  gpustm_fiber_resume(&HostSP, FiberSP);
  CurrentFiberTLS = nullptr;
}

void Fiber::yieldToHost() {
  Fiber *Self = CurrentFiberTLS;
  assert(Self && "yieldToHost outside a fiber");
  gpustm_fiber_yield(&Self->FiberSP, Self->HostSP);
}

#else // ucontext fallback for non-x86-64 hosts.

namespace {
struct UctxPair {
  ucontext_t FiberCtx;
  ucontext_t HostCtx;
};
thread_local Fiber *BootFiber = nullptr;

void uctxEntry() {
  Fiber *F = BootFiber;
  // Reuse the same trampoline path as the assembly backend.
  gpustm_fiber_trampoline(F);
}
} // namespace

void Fiber::resume() {
  assert(!Finished && "resuming a finished fiber");
  assert(CurrentFiberTLS == nullptr && "nested fiber resume");
  CurrentFiberTLS = this;
  if (!Started) {
    Started = true;
    auto *Pair = new UctxPair();
    FiberSP = Pair;
    getcontext(&Pair->FiberCtx);
    Pair->FiberCtx.uc_stack.ss_sp = Stack.base();
    Pair->FiberCtx.uc_stack.ss_size = Stack.totalBytes();
    Pair->FiberCtx.uc_link = nullptr;
    BootFiber = this;
    makecontext(&Pair->FiberCtx, reinterpret_cast<void (*)()>(uctxEntry), 0);
  }
  auto *Pair = static_cast<UctxPair *>(FiberSP);
  swapcontext(&Pair->HostCtx, &Pair->FiberCtx);
  CurrentFiberTLS = nullptr;
}

void Fiber::yieldToHost() {
  Fiber *Self = CurrentFiberTLS;
  assert(Self && "yieldToHost outside a fiber");
  auto *Pair = static_cast<UctxPair *>(Self->FiberSP);
  swapcontext(&Pair->FiberCtx, &Pair->HostCtx);
}

#endif

Fiber *Fiber::current() { return CurrentFiberTLS; }

//===----------------------------------------------------------------------===//
// StackPool
//===----------------------------------------------------------------------===//

namespace {
/// Stacks per slab-mode mapping.  A full Fermi device keeps ~21.5k lane
/// stacks resident; 256 stacks per slab keeps that under 200 VMAs per
/// device, so a many-job sweep stays far below vm.max_map_count.
constexpr size_t kSlabStacks = 256;

/// Unused bytes between neighbouring slab stacks.  Device lane stacks are
/// 64 KiB, so without a gap every lane's frame at a given depth maps to one
/// L1 set and one of two L2 sets, and a warp round that steps many lanes
/// evicts its own switch frames.  A 512-byte stagger moves each stack 8
/// lines further around the cache index than its neighbour, so a slab's
/// stack tops cover a 128 KiB index range (an L2 of 2048 sets) for 0.8%
/// more mapping.  64 and 1088 bytes measured the same (EXPERIMENTS.md).
constexpr size_t kSlabStagger = 512;

/// Clear ASan's shadow for stack memory about to be reused or unmapped.  A
/// fiber discarded without unwinding (a deadlocked or watchdog-tripped
/// launch) leaves its frames' redzones poisoned, and the shadow outlives
/// munmap, so the next lane stack on those addresses -- even in a new
/// mapping -- would report a false stack-buffer-overflow.
void unpoisonStack(void *Base, size_t Bytes) {
#ifdef GPUSTM_ASAN
  __asan_unpoison_memory_region(Base, Bytes);
#else
  (void)Base;
  (void)Bytes;
#endif
}
} // namespace

StackLayout StackPool::deviceLayout() {
  static const StackLayout L = envBool("GPUSTM_STACK_SLABS", true)
                                   ? StackLayout::Slab
                                   : StackLayout::Guarded;
  return L;
}

StackPool::StackPool(size_t StackBytes, StackLayout Layout)
    : StackBytes(StackBytes), Layout(Layout) {}

StackPool::~StackPool() {
  if (usesSlabs()) {
    for (auto &[Base, Bytes] : Slabs) {
      unpoisonStack(Base, Bytes);
      ::munmap(Base, Bytes);
    }
    return;
  }
  for (FiberStack &S : FreeList) {
    unpoisonStack(S.base(), S.totalBytes());
    ::munmap(S.base(), S.totalBytes());
  }
}

void StackPool::allocateSlab(size_t Page, size_t Usable) {
  // Layout: [guard page][stack 0][gap][stack 1][gap]...[stack N-1][gap],
  // one RW mprotect over all the stacks, so the whole slab costs two VMAs.
  size_t Stride = Usable + kSlabStagger;
  size_t Total = Page + kSlabStacks * Stride;
  void *Base =
      ::mmap(nullptr, Total, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Base == MAP_FAILED)
    reportFatalError("fiber stack slab mmap failed");
  if (::mprotect(static_cast<char *>(Base) + Page, Total - Page,
                 PROT_READ | PROT_WRITE) != 0)
    reportFatalError("fiber stack slab mprotect failed");
#ifdef MADV_HUGEPAGE
  // Lane stacks are touched near their tops every fiber switch; 2 MiB pages
  // shrink that TLB working set ~512x.  Best-effort: alignment and THP
  // availability are up to the kernel.
  (void)::madvise(static_cast<char *>(Base) + Page, Total - Page,
                  MADV_HUGEPAGE);
#endif
  Slabs.emplace_back(Base, Total);
  // Push in reverse so acquire() hands out stacks in increasing address
  // order (cosmetic; the order is host-side only).
  for (size_t I = kSlabStacks; I-- > 0;) {
    char *StackBase = static_cast<char *>(Base) + Page + I * Stride;
    FreeList.push_back(FiberStack(StackBase, Usable, Usable));
  }
  NumAllocated += kSlabStacks;
}

FiberStack StackPool::acquire() {
  if (!FreeList.empty()) {
    FiberStack S = FreeList.back();
    FreeList.pop_back();
    return S;
  }
  size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  size_t Usable = (StackBytes + Page - 1) / Page * Page;
  if (usesSlabs()) {
    allocateSlab(Page, Usable);
    FiberStack S = FreeList.back();
    FreeList.pop_back();
    return S;
  }
  size_t Total = Usable + Page; // one guard page below the stack
  void *Base = ::mmap(nullptr, Total, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Base == MAP_FAILED)
    reportFatalError("fiber stack mmap failed");
  if (::mprotect(static_cast<char *>(Base) + Page, Usable,
                 PROT_READ | PROT_WRITE) != 0)
    reportFatalError("fiber stack mprotect failed");
  ++NumAllocated;
  return FiberStack(Base, Total, Usable);
}

void StackPool::release(FiberStack Stack) {
  if (!Stack.valid())
    return;
  unpoisonStack(static_cast<char *>(Stack.top()) - Stack.usableBytes(),
                Stack.usableBytes());
  FreeList.push_back(Stack);
}
