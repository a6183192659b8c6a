// SleeperGate: the eventcount-style sleep/wake protocol used by
// ShardedRtHost to keep a cross-core publish from waiting out a sleeping
// shard's backup-bounded park.
//
// The gate owns one 32-bit `sleeping` word, its fences, and the park
// itself: the sleeper blocks on the word with FUTEX_WAIT (through the
// Traits futex seam, src/core/atomics_traits.h), so there is no mutex or
// condition variable anywhere on the sleep/wake path.
//
// Sleeper (shard loop thread):            Waker (producer thread):
//   gate.PrepareSleep()   sleeping=1        publish command (ring + flag)
//                         fence             gate.WakeSleeper():
//   recheck pending/stop                      fence
//   gate.Wait(timeout)    FUTEX_WAIT          if sleeping == 0: return
//                         while word==1       if exchange(sleeping, 0) == 1:
//   gate.FinishSleep()    sleeping=0            FUTEX_WAKE (one waiter)
//
// Lost wakeups. This is the same Dekker shape as RemotePendingFlag with the
// roles swapped: each side stores its flag, fences, then reads the other
// side's state. If the sleeper's recheck misses the publish, the waker's
// fence orders its sleeping-load after the sleeper's sleeping-store, so it
// observes 1 and delivers the wake. The kernel closes the last window:
// FUTEX_WAIT compares the word and enqueues the waiter atomically, so a
// waker whose exchange lands before the sleeper reaches the kernel leaves
// the word at 0 and the wait returns at once instead of blocking. Dropping
// either fence re-opens the classic lost wakeup: both sides' stores sit in
// store buffers, the recheck reads pending==0, the waker reads sleeping==0,
// and the shard sleeps a full backup period with work queued.
//
// One wake per park. Only the sleeper raises the word (once per park), and
// only a waker whose exchange flips it from 1 to 0 issues FUTEX_WAKE, so
// any number of racing producers deliver at most one wake syscall per park
// and the rest stop at the relaxed load (a read of a shared line, no RMW).
//
// tests/model_check_test.cc explores the shipped orderings with FUTEX_WAIT
// modelled as "block only while the word is 1" and two racing wakers (no
// lost wakeup, at most one wake per park in any interleaving), and the
// weakened ones (WeakSleepFenceOrdering / WeakWakeFenceOrdering reproduce
// the miss).
//
// Traits/Ordering parameters: see src/core/atomics_traits.h. Production uses
// the defaults; never override Ordering outside the model-check suite.

#ifndef SOFTTIMER_SRC_RT_EVENTCOUNT_H_
#define SOFTTIMER_SRC_RT_EVENTCOUNT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/core/atomics_traits.h"

namespace softtimer {

// Shipped orderings for the sleep/wake gate.
struct SleeperGateOrdering {
  // ordering: the flag store needs no ordering of its own; the fence right
  // after it is what orders it against the recheck's loads.
  static constexpr std::memory_order kSleepStore = std::memory_order_relaxed;
  // Store-load fence between announcing sleep and rechecking the wake
  // condition; pairs with kWakeFence on the producer side.
  static constexpr std::memory_order kSleepFence = std::memory_order_seq_cst;
  // Store-load fence between the producer's publish and its sleeping-flag
  // read; pairs with kSleepFence (see the lost-wakeup scenario above).
  static constexpr std::memory_order kWakeFence = std::memory_order_seq_cst;
  // ordering: the fence before this load does the ordering; the load itself
  // can be relaxed.
  static constexpr std::memory_order kWakeLoad = std::memory_order_relaxed;
  // ordering: the exchange only elects which waker issues the one wake for
  // this park - atomicity alone does that. The publish was ordered by
  // kWakeFence, and the woken loop drains its rings with their own acquire
  // loads (pairs with the ring's release publish, not with this RMW).
  static constexpr std::memory_order kWakeExchange = std::memory_order_relaxed;
  // ordering: clearing the flag after a wait races nothing that matters - a
  // wake aimed at an awake loop is harmless.
  static constexpr std::memory_order kWakeClearStore =
      std::memory_order_relaxed;
};

template <typename Traits = StdAtomicsTraits,
          typename Ordering = SleeperGateOrdering>
class SleeperGate {
 public:
  // Sleeper side: announce intent to sleep. Must be followed by a recheck
  // of the wake condition before Wait (the fence makes a publish that the
  // recheck misses observe sleeping==1 instead).
  void PrepareSleep() {
    sleeping_.store(1, Ordering::kSleepStore);
    Traits::ThreadFence(Ordering::kSleepFence);
  }

  // Sleeper side, after a recheck that found nothing to do: parks until a
  // waker claims this park, `timeout` elapses, or a spurious return. Never
  // blocks once a waker has flipped the word back to 0.
  // SOFTTIMER_BLOCKING: parks the calling thread in the kernel
  void Wait(std::chrono::nanoseconds timeout) {
    Traits::FutexWait(sleeping_, 1, timeout);
  }

  // Sleeper side: done sleeping (or decided not to block after all).
  void FinishSleep() { sleeping_.store(0, Ordering::kWakeClearStore); }

  // Waker side, after publishing work: wakes the sleeper if it may be inside
  // (or committed to entering) its wait. Returns the number of threads the
  // wake actually took out of a blocking wait (0 or 1); 0 also means "no
  // sleeper", "another waker owns this park's wake", or "the sleeper had
  // not reached the kernel yet" (its wait then returns at once).
  uint32_t WakeSleeper() {
    Traits::ThreadFence(Ordering::kWakeFence);
    if (sleeping_.load(Ordering::kWakeLoad) == 0) {
      return 0;
    }
    if (sleeping_.exchange(0, Ordering::kWakeExchange) == 0) {
      return 0;
    }
    return Traits::FutexWake(sleeping_);
  }

 private:
  typename Traits::template Atomic<uint32_t> sleeping_{0};
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_RT_EVENTCOUNT_H_
