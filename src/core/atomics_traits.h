// Atomics-traits shim: the single seam between the lock-free runtime code
// and the memory model it executes under.
//
// Every templated concurrency primitive in this repository (SpscRing,
// RemotePendingFlag, SleeperGate) names its atomics through a Traits
// parameter instead of using std::atomic directly:
//
//   typename Traits::template Atomic<uint64_t> pos_;
//   Traits::ThreadFence(std::memory_order_seq_cst);
//   Traits::OnNonAtomicRead(&slot);   // instrumentation hook, no-op here
//
// Production code instantiates the default, StdAtomicsTraits, which maps
// 1:1 onto std::atomic / std::atomic_thread_fence with zero-cost no-op
// instrumentation hooks - the compiled hot path is bit-identical to writing
// std::atomic by hand. Its futex seam (FutexWait / FutexWake, used by
// SleeperGate) is the one raw Linux syscall in src/. The model checker
// (src/check/model_atomic.h) provides ModelCheckerTraits, which routes the
// *same* primitive code through simulated store buffers, an
// exhaustive-interleaving scheduler, and vector-clock race detection for the
// non-atomic hooks.
//
// Rules enforced by tools/lint_hotpath.py:
//  * Files that declare a Traits template parameter must not name
//    std::atomic directly (outside this header) - otherwise the checker
//    silently stops seeing part of the protocol.
//  * Non-seq_cst memory orderings everywhere in the concurrency files carry
//    a `// ordering:` rationale comment.

#ifndef SOFTTIMER_SRC_CORE_ATOMICS_TRAITS_H_
#define SOFTTIMER_SRC_CORE_ATOMICS_TRAITS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace softtimer {

struct StdAtomicsTraits {
  template <typename T>
  using Atomic = std::atomic<T>;

  static void ThreadFence(std::memory_order order) {
    std::atomic_thread_fence(order);
  }

  // Instrumentation hooks around non-atomic accesses to data published
  // through the atomics above (e.g. ring slots). The model checker turns
  // these into scheduling points with happens-before race detection; in
  // production they compile to nothing.
  static void OnNonAtomicRead(const volatile void* /*addr*/) {}
  static void OnNonAtomicWrite(const volatile void* /*addr*/) {}

  // Scheduling hint for spin/retry loops in model-checked drivers; a no-op
  // on real hardware (the OS scheduler is preemptive, the model one is not).
  static void Yield() {}

  // Futex seam: park on / wake a 32-bit atomic's own word with the
  // process-private futex(2) operations. FutexWait blocks only while `word`
  // still holds `expected` (the kernel compares and enqueues atomically),
  // for at most `timeout` (relative, CLOCK_MONOTONIC); it may also return
  // spuriously. FutexWake wakes at most one waiter and returns how many it
  // woke. FutexWait is SOFTTIMER_BLOCKING (marked at its definition).
  static void FutexWait(Atomic<uint32_t>& word, uint32_t expected,
                        std::chrono::nanoseconds timeout);
  static uint32_t FutexWake(Atomic<uint32_t>& word);
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_ATOMICS_TRAITS_H_
