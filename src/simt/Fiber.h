//===- simt/Fiber.h - Cooperative lane fibers -------------------*- C++ -*-===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each simulated GPU thread (a "lane") runs on a cooperative fiber.  The
/// warp scheduler resumes a lane, the lane runs until its next device
/// operation (load/store/atomic/fence/branch/barrier) and yields back.  This
/// file provides the minimal fiber machinery: a fast user-mode context
/// switch (hand-written x86-64 assembly, with a ucontext fallback for other
/// targets) and pooled stacks, either carved from shared slabs (the device
/// default) or mapped one by one above a guard page each.
///
/// Device code must keep lane-local state trivially destructible: when the
/// livelock watchdog trips, suspended fibers are discarded without unwinding
/// (the library builds with -fno-exceptions), so destructors pending on a
/// lane stack would be skipped.  The STM runtime and the bundled workloads
/// follow this rule by keeping all transaction state in simulated memory or
/// in host-side descriptors owned by the runtime.
///
//===----------------------------------------------------------------------===//

#ifndef GPUSTM_SIMT_FIBER_H
#define GPUSTM_SIMT_FIBER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpustm {
namespace simt {

/// A reusable fiber stack: usable memory, preceded by a guard page in the
/// Guarded layout.
class FiberStack {
public:
  FiberStack() = default;
  FiberStack(void *Base, size_t TotalBytes, size_t UsableBytes)
      : Base(Base), TotalBytes(TotalBytes), UsableBytes(UsableBytes) {}

  /// First byte past the usable region (stacks grow down).
  void *top() const {
    return static_cast<char *>(Base) + TotalBytes;
  }

  bool valid() const { return Base != nullptr; }
  void *base() const { return Base; }
  size_t totalBytes() const { return TotalBytes; }
  size_t usableBytes() const { return UsableBytes; }

private:
  void *Base = nullptr;
  size_t TotalBytes = 0;
  size_t UsableBytes = 0;
};

/// How a StackPool lays out its stacks in the address space.
enum class StackLayout {
  /// Each stack is its own mmap with a PROT_NONE guard page below it, so
  /// overflow faults instead of corrupting a neighbouring lane.  Costs two
  /// kernel VMAs per stack, which is fine for a handful of fibers but
  /// exceeds the default vm.max_map_count (65530) at full device residency
  /// (~21.5k lane stacks) once a host-parallel sweep runs several devices
  /// concurrently.  It also defeats transparent huge pages, so every lane
  /// stack occupies its own TLB entry.
  Guarded,
  /// Stacks are carved from large shared mappings of kSlabStacks stacks
  /// each (two VMAs per slab, MADV_HUGEPAGE applied), with a small unused
  /// gap between neighbours so their tops fall in different cache sets.
  /// Only the lowest stack of a slab sits on the guard page; an interior
  /// overflow corrupts the neighbouring lane's stack instead of faulting.
  Slab,
};

/// Allocates and recycles fiber stacks.
///
/// The layout is fixed at pool construction.  It is host-side bookkeeping
/// only: simulation results are identical in both layouts.  Devices default
/// to Slab (see deviceLayout()) because a full-residency sweep needs the
/// VMA economy and the huge-page TLB relief; standalone pools default to
/// Guarded for the stronger overflow diagnostics.
class StackPool {
public:
  explicit StackPool(size_t StackBytes = 64 * 1024,
                     StackLayout Layout = StackLayout::Guarded);
  ~StackPool();

  StackPool(const StackPool &) = delete;
  StackPool &operator=(const StackPool &) = delete;

  /// Get a stack (from the freelist or freshly mapped).
  FiberStack acquire();

  /// Return a stack for reuse.
  void release(FiberStack Stack);

  /// Number of stacks ever mapped (for stats/tests).
  size_t totalAllocated() const { return NumAllocated; }

  /// Whether this pool carves stacks out of shared slabs (for stats/tests).
  bool usesSlabs() const { return Layout == StackLayout::Slab; }

  /// The layout device lane pools use: Slab, unless overridden with
  /// GPUSTM_STACK_SLABS=0 (e.g. when chasing a suspected stack overflow).
  static StackLayout deviceLayout();

private:
  /// Map a slab of kSlabStacks stacks and refill the freelist.
  void allocateSlab(size_t Page, size_t Usable);

  size_t StackBytes;
  StackLayout Layout;
  std::vector<FiberStack> FreeList;
  /// Slab-mode mappings to munmap on destruction: (base, bytes).
  std::vector<std::pair<void *, size_t>> Slabs;
  size_t NumAllocated = 0;
};

/// A suspended or running cooperative fiber.
///
/// The host (scheduler) calls resume(); the fiber body calls
/// Fiber::yieldToHost() to suspend itself.  A fiber whose body returns is
/// `finished` and must not be resumed again.
class Fiber {
public:
  using EntryFn = void (*)(void *Arg);

  Fiber() = default;

  /// Prepare the fiber to run `Entry(Arg)` on \p Stack.  The stack must stay
  /// alive until the fiber is finished or discarded.
  void init(FiberStack Stack, EntryFn Entry, void *Arg);

  /// Resume the fiber until it yields or finishes.  Must be called from the
  /// host context only.
  void resume();

  /// Suspend the *currently running* fiber and return to the host.
  static void yieldToHost();

  /// The fiber currently executing, or nullptr when in host context.
  static Fiber *current();

  bool isFinished() const { return Finished; }
  const FiberStack &stack() const { return Stack; }

  /// The suspended context's stack pointer (the frame resume() will pop).
  /// For prefetching only; null until init() on the x86-64 backend and
  /// always null on the ucontext fallback.
  const void *savedSP() const { return FiberSP; }

  /// Releases the stack handle for recycling (the fiber must be finished or
  /// intentionally discarded, e.g. after a watchdog trip).
  FiberStack takeStack() {
    FiberStack S = Stack;
    Stack = FiberStack();
    return S;
  }

  /// Internal: first-entry shim target.  Do not call directly.
  static void trampoline(Fiber *Self);

private:
  FiberStack Stack;
  EntryFn Entry = nullptr;
  void *Arg = nullptr;
  void *FiberSP = nullptr; ///< Saved stack pointer while suspended.
  void *HostSP = nullptr;  ///< Saved host stack pointer while running.
  bool Started = false; ///< ucontext fallback: context built on first resume.
  bool Finished = false;
};

} // namespace simt
} // namespace gpustm

#endif // GPUSTM_SIMT_FIBER_H
