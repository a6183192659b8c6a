// ShardedRtHost behaviour: per-shard trigger loops, cross-core wakeups
// cutting through backup-bounded sleeps, and shared polling work on a
// one-queue MultiQueuePoller. Real threads and wall-clock sleeps; bounds are
// loose for loaded CI machines. Runs under the `cross-thread` label / tsan preset.

#include "src/rt/sharded_rt_host.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/net/multi_queue_poller.h"

namespace softtimer {
namespace {

TEST(ShardedRtHostTest, StartStopIsIdempotentAndJoins) {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 3;
  ShardedRtHost host(cfg);
  EXPECT_FALSE(host.running());
  host.Start();
  host.Start();  // no-op
  EXPECT_TRUE(host.running());
  host.Stop();
  host.Stop();  // no-op
  EXPECT_FALSE(host.running());
  // Restartable.
  host.Start();
  EXPECT_TRUE(host.running());
}  // dtor stops again

TEST(ShardedRtHostTest, CrossCoreEventFiresWhileShardsSleep) {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.interrupt_clock_hz = 100;  // 10 ms backup: a wakeup must beat this
  ShardedRtHost host(cfg);
  host.Start();
  // Let the loops reach their sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto token = host.RegisterProducer();
  std::atomic<uint64_t> fired_tick{0};
  uint64_t t0 = host.clock().NowTicks();
  host.runtime().ScheduleCrossCore(
      token, 1, 200 /* 200 us */,
      [&](const SoftTimerFacility::FireInfo& info) {
        fired_tick.store(info.fired_tick, std::memory_order_relaxed);
      });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired_tick.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  host.Stop();
  ASSERT_NE(fired_tick.load(), 0u);
  EXPECT_GE(fired_tick.load() - t0, 200u);  // T < actual
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(1);
  EXPECT_GT(loop.polls, 0u);
}

// Two producers race to wake one parked shard. Only the producer whose
// exchange flips the gate word from 1 to 0 issues the futex wake, and a
// wake is counted only when it takes the shard out of a blocking wait, so
// however the producers interleave there is at most one counted wakeup per
// park.
TEST(ShardedRtHostTest, RacingProducersNeverCountMoreWakeupsThanParks) {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.interrupt_clock_hz = 100;  // 10 ms backup: wakes, not timeouts, end parks
  ShardedRtHost host(cfg);
  host.Start();
  constexpr int kPerProducer = 2'000;
  std::atomic<uint64_t> scheduled{0};
  std::atomic<uint64_t> fired{0};
  std::atomic<bool> go{false};
  auto produce = [&] {
    auto token = host.RegisterProducer();
    while (!go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (int i = 0; i < kPerProducer; ++i) {
      SoftEventId id = host.runtime().ScheduleCrossCoreWithRetry(
          token, 1, 1 + i % 20, [&](const SoftTimerFacility::FireInfo&) {
            fired.fetch_add(1, std::memory_order_relaxed);
          });
      if (id.valid()) {
        scheduled.fetch_add(1, std::memory_order_relaxed);
      }
      if (i % 8 == 0) {
        // Let the shard drain and park again, so the next bursts from both
        // producers land on a sleeper.
        std::this_thread::sleep_for(std::chrono::microseconds(30));
      }
    }
  };
  std::thread a(produce);
  std::thread b(produce);
  go.store(true, std::memory_order_release);
  a.join();
  b.join();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fired.load(std::memory_order_relaxed) <
             scheduled.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  host.Stop();
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(1);
  EXPECT_EQ(fired.load(), scheduled.load());
  EXPECT_GT(loop.sleeps, 0u);
  EXPECT_LE(loop.wakeups, loop.sleeps);
  EXPECT_LE(loop.due_parks, loop.sleeps);
}

// One rx queue shared by every shard through queue_work: the paper's "idle
// CPUs poll the network" (Section 5.2) on the M-on-N poller with M = 1.
// Drain sleeps briefly so overlapping drains would be caught.
class SharedQueue : public MultiQueuePoller::Queue {
 public:
  size_t Drain(size_t /*max_packets*/, uint64_t /*now_tick*/) override {
    int now = concurrent_.fetch_add(1, std::memory_order_acq_rel) + 1;
    int prev = max_concurrent_.load(std::memory_order_relaxed);
    while (now > prev &&
           !max_concurrent_.compare_exchange_weak(prev, now,
                                                  std::memory_order_relaxed)) {
    }
    drains_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    concurrent_.fetch_sub(1, std::memory_order_acq_rel);
    return 1;
  }
  uint64_t drains() const { return drains_.load(std::memory_order_relaxed); }
  int max_concurrent() const {
    return max_concurrent_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> concurrent_{0};
  std::atomic<int> max_concurrent_{0};
  std::atomic<uint64_t> drains_{0};
};

MultiQueuePoller::Config OneQueuePollerConfig() {
  MultiQueuePoller::Config pcfg;
  pcfg.governor.min_interval_ticks = 10;  // 10 us at 1 MHz: always busy
  pcfg.governor.max_interval_ticks = 1'000;
  pcfg.governor.initial_interval_ticks = 10;
  pcfg.max_cores = 4;
  return pcfg;
}

TEST(ShardedRtHostTest, OneQueueWorkDrainsOnExactlyOneShardAtATime) {
  MultiQueuePoller poller(OneQueuePollerConfig());
  SharedQueue queue;
  poller.AddQueue(&queue);
  ShardedRtHost::Config cfg;
  cfg.num_shards = 4;
  std::array<std::atomic<uint64_t>, 4> calls{};
  cfg.queue_work.poll = [&](size_t shard, uint64_t now) {
    calls[shard].fetch_add(1, std::memory_order_relaxed);
    return poller.PollOnce(static_cast<uint32_t>(shard), now);
  };
  cfg.queue_work.next_due = [&] { return poller.next_due_tick(); };
  ShardedRtHost host(cfg);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  host.Stop();
  EXPECT_GT(queue.drains(), 0u);
  EXPECT_EQ(queue.max_concurrent(), 1);  // the queue's claim admits one shard
  EXPECT_EQ(poller.queue_stats(0).polls, queue.drains());
  uint64_t claimed_polls = 0;
  uint64_t loop_packets = 0;
  for (size_t s = 0; s < host.num_shards(); ++s) {
    ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(s);
    EXPECT_EQ(loop.queue_polls, calls[s].load()) << "shard " << s;
    claimed_polls += poller.core_stats(static_cast<uint32_t>(s)).polls;
    loop_packets += loop.queue_packets;
  }
  EXPECT_EQ(claimed_polls, queue.drains());
  EXPECT_EQ(loop_packets, poller.total_packets());
}

TEST(ShardedRtHostTest, QueueWorkProgressesWhileShardsStayBusy) {
  MultiQueuePoller poller(OneQueuePollerConfig());
  SharedQueue queue;
  poller.AddQueue(&queue);
  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.interrupt_clock_hz = 1'000;
  cfg.queue_work.poll = [&](size_t shard, uint64_t now) {
    return poller.PollOnce(static_cast<uint32_t>(shard), now);
  };
  cfg.queue_work.next_due = [&] { return poller.next_due_tick(); };
  ShardedRtHost host(cfg);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_GT(queue.drains(), 0u);

  // Keep every shard busy with an imminent-deadline treadmill: the queue
  // must still be served (by whichever shard wins its claim between timer
  // checks).
  auto token = host.RegisterProducer();
  std::atomic<bool> stop{false};
  std::thread treadmill([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      host.runtime().ScheduleCrossCore(token, i++ % 2, 150,
                                       [](const SoftTimerFacility::FireInfo&) {});
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  uint64_t drains_before = queue.drains();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t drains_under_load = queue.drains() - drains_before;
  stop.store(true, std::memory_order_relaxed);
  treadmill.join();
  host.Stop();
  // The queue never wedged: it still made progress while shards cycled busy.
  EXPECT_GT(drains_under_load, 0u);
  EXPECT_EQ(queue.max_concurrent(), 1);
  uint64_t dispatched = host.runtime().AggregateStats().dispatches;
  EXPECT_GT(dispatched, 0u);
}

}  // namespace
}  // namespace softtimer
