// Full-ring rejection semantics of the cross-core producer API: the
// distinguishable invalid-id return, the per-producer ring_full_rejects /
// retry_exhausted counters, the handler-preserving TryScheduleCrossCore
// contract, and the bounded retry helper. The single-thread tests pin the
// exact counter arithmetic; the threaded test (run under the tsan preset via
// the `cross-thread` label) proves the retry helper rides out real ring
// contention without dropping timers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/sharded_soft_timer_runtime.h"
#include "src/timer/timer_slab.h"

namespace softtimer {
namespace {

class ManualClock : public ClockSource {
 public:
  uint64_t NowTicks() const override {
    return now_.load(std::memory_order_relaxed);
  }
  uint64_t ResolutionHz() const override { return 1'000'000; }
  void Advance(uint64_t ticks) {
    now_.fetch_add(ticks, std::memory_order_relaxed);
  }

 private:
  // Atomic: producer threads read the clock inside ScheduleCrossCore while
  // the consumer advances it.
  std::atomic<uint64_t> now_{0};
};

ShardedSoftTimerRuntime::Config Cfg(size_t ring_capacity) {
  ShardedSoftTimerRuntime::Config c;
  c.num_shards = 1;
  c.ring_capacity = ring_capacity;
  return c;
}

TEST(ShardedRingRejectTest, TryschedulePreservesHandlerOnFullRing) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(4));
  auto token = rt.RegisterProducer();
  ASSERT_TRUE(token.valid());

  auto fired = std::make_shared<int>(0);
  SoftTimerFacility::Handler handler =
      [fired](const SoftTimerFacility::FireInfo&) { ++*fired; };
  ASSERT_EQ(fired.use_count(), 2);

  // Fill the ring (capacity rounds to a power of two; stop at rejection).
  int pushed = 0;
  while (true) {
    SoftTimerFacility::Handler filler =
        [fired](const SoftTimerFacility::FireInfo&) { ++*fired; };
    SoftEventId id = rt.TryScheduleCrossCore(token, 0, 0, filler);
    if (!id.valid()) {
      // Rejection must hand the closure back intact and be counted.
      EXPECT_TRUE(static_cast<bool>(filler));
      break;
    }
    ++pushed;
    ASSERT_LT(pushed, 64) << "ring never filled";
  }
  EXPECT_EQ(token.ring_full_rejects(), 1u);
  EXPECT_EQ(token.retry_exhausted(), 0u);

  // The original handler was never consumed; once the shard drains the ring
  // it pushes fine and fires. Draining and firing are separate sweeps: a
  // freshly drained command lands at a quantum-rounded future deadline, so
  // advance past it before expecting the dispatch.
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drains the ring
  clock.Advance(64);
  EXPECT_GT(rt.OnTriggerState(0, TriggerSource::kSyscall), 0u);
  SoftEventId id = rt.TryScheduleCrossCore(token, 0, 0, handler);
  EXPECT_TRUE(id.valid());
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drain
  clock.Advance(64);
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // fire
  EXPECT_EQ(*fired, pushed + 1);
}

TEST(ShardedRingRejectTest, RetryHelperGivesUpAndCountsExhaustion) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  auto token = rt.RegisterProducer();
  ASSERT_TRUE(token.valid());

  // Saturate the ring with the consuming path; nobody drains.
  int pushed = 0;
  while (rt.ScheduleCrossCore(token, 0, 0,
                              [](const SoftTimerFacility::FireInfo&) {})
             .valid()) {
    ++pushed;
    ASSERT_LT(pushed, 64);
  }
  uint64_t rejects_before = token.ring_full_rejects();
  EXPECT_EQ(rejects_before, 1u);  // the consuming probe above

  CrossCoreRetry retry;
  retry.max_attempts = 3;
  retry.spin_base = 4;  // keep the give-up path fast
  retry.spin_cap = 8;
  SoftEventId id = rt.ScheduleCrossCoreWithRetry(
      token, 0, 0, [](const SoftTimerFacility::FireInfo&) {}, 0, retry);
  EXPECT_FALSE(id.valid());
  // Every attempt is visible in ring_full_rejects; the give-up in
  // retry_exhausted.
  EXPECT_EQ(token.ring_full_rejects(), rejects_before + 3);
  EXPECT_EQ(token.retry_exhausted(), 1u);

  // Invalid-target calls report failure without touching the full-ring
  // counters (there was no ring to reject from).
  EXPECT_FALSE(rt.ScheduleCrossCoreWithRetry(
                     token, /*shard=*/7, 0,
                     [](const SoftTimerFacility::FireInfo&) {}, 0, retry)
                   .valid());
  EXPECT_EQ(token.ring_full_rejects(), rejects_before + 3);
  EXPECT_EQ(token.retry_exhausted(), 1u);
}

// The payload test: a producer blasts schedules through the retry helper at
// a ring far too small for the burst while the consumer thread drains at
// trigger states. Every push must either land (and eventually fire) or be
// accounted in retry_exhausted - no timer may vanish silently.
TEST(ShardedRingRejectTest, RetryHelperSurvivesContendedRingCrossThread) {
  constexpr int kOps = 10'000;
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(16));

  std::atomic<uint64_t> fired{0};
  // Producer state, published for the consumer's bounded wait and for the
  // failure messages below. The producer makes no fatal assertion: every
  // exit path raises producer_done, so a producer failure ends the
  // consumer's loop instead of hanging it.
  std::atomic<bool> producer_done{false};
  std::atomic<bool> abandon{false};  // consumer gave up waiting
  std::atomic<bool> token_valid{false};
  std::atomic<int> ops_done{0};
  uint64_t landed = 0;
  uint64_t retry_exhausted = 0;
  uint64_t ring_full_rejects = 0;

  std::thread producer([&] {
    auto token = rt.RegisterProducer();
    if (token.valid()) {
      token_valid.store(true, std::memory_order_relaxed);
      CrossCoreRetry retry;
      retry.max_attempts = 64;  // generous: the consumer is actively draining
      for (int op = 0; op < kOps && !abandon.load(std::memory_order_relaxed);
           ++op) {
        SoftEventId id = rt.ScheduleCrossCoreWithRetry(
            token, 0, /*delta_ticks=*/0,
            [&fired](const SoftTimerFacility::FireInfo&) {
              fired.fetch_add(1, std::memory_order_relaxed);
            },
            /*handler_tag=*/0, retry);
        if (id.valid()) {
          ++landed;
        }
        ops_done.store(op + 1, std::memory_order_relaxed);
      }
      retry_exhausted = token.retry_exhausted();
      ring_full_rejects = token.ring_full_rejects();
    }
    producer_done.store(true, std::memory_order_release);
  });

  // Consumer: the shard owner drains at trigger states until the producer
  // finishes (or the deadline passes), then a final drain sweeps the tail.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!producer_done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    clock.Advance(1);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
  }
  bool finished = producer_done.load(std::memory_order_acquire);
  abandon.store(true, std::memory_order_relaxed);  // bounds the join
  producer.join();
  ASSERT_TRUE(finished) << "producer still running at the deadline after "
                        << ops_done.load() << " of " << kOps << " ops";
  ASSERT_TRUE(token_valid.load()) << "producer could not register";
  // Settle: drain the tail commands, then advance past their (quantum-
  // rounded) deadlines and sweep again.
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  clock.Advance(64);
  rt.OnTriggerState(0, TriggerSource::kSyscall);

  // Conservation: every op either landed or is counted as a give-up.
  EXPECT_EQ(landed + retry_exhausted, static_cast<uint64_t>(kOps));
  // A 16-slot ring against a 10k burst must have seen backpressure.
  EXPECT_GT(ring_full_rejects, 0u);
  EXPECT_EQ(fired.load(), landed);
}

}  // namespace
}  // namespace softtimer
