// Wall-clock behaviour of the real-time host: MonotonicClockSource, and the
// paper's backup-bounded park on a one-shard ShardedRtHost (the single-core
// case: one facility, one trigger loop). These use actual wall-clock sleeps;
// delays are kept in the hundreds-of-microseconds range and assertions are
// loose upper bounds so the suite stays robust on loaded machines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/rt/monotonic_clock_source.h"
#include "src/rt/sharded_rt_host.h"

namespace softtimer {
namespace {

TEST(MonotonicClockSourceTest, TicksAdvanceWithWallTime) {
  MonotonicClockSource clock(1'000'000);
  uint64_t t0 = clock.NowTicks();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  uint64_t t1 = clock.NowTicks();
  EXPECT_GE(t1 - t0, 2'000u);   // at least 2 ms of 1 us ticks
  EXPECT_LT(t1 - t0, 500'000u);  // and not absurdly more
}

TEST(MonotonicClockSourceTest, UntilTickIsZeroForPast) {
  MonotonicClockSource clock(1'000'000);
  EXPECT_EQ(clock.UntilTick(0).count(), 0);
  uint64_t future = clock.NowTicks() + 10'000;
  auto wait = clock.UntilTick(future);
  EXPECT_GT(wait.count(), 5'000'000);   // > 5 ms
  EXPECT_LE(wait.count(), 10'100'000);  // <= ~10 ms
}

ShardedRtHost::Config OneShard() {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.measure_hz = 1'000'000;      // 1 tick = 1 us
  cfg.interrupt_clock_hz = 1'000;  // X = 1 ms
  return cfg;
}

// Waits up to `limit` for `done()`; callers assert on the outcome.
template <typename Pred>
void WaitFor(Pred done, std::chrono::milliseconds limit) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(RtHostTest, EventFiresFromApplicationPolls) {
  // Never started: the calling thread owns the shard and drives its
  // trigger state by hand, like a busy event loop passing its check point.
  ShardedRtHost host(OneShard());
  bool fired = false;
  auto start = std::chrono::steady_clock::now();
  host.runtime().ScheduleOnShard(
      0, 500 /* 500 us */,
      [&](const SoftTimerFacility::FireInfo&) { fired = true; });
  while (!fired &&
         std::chrono::steady_clock::now() - start < std::chrono::milliseconds(200)) {
    host.runtime().OnTriggerState(0, TriggerSource::kSyscall);
  }
  EXPECT_TRUE(fired);
  auto elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_GE(elapsed_us, 500);
  EXPECT_EQ(host.shard_lateness_raw(0).count(), 1u);
}

TEST(RtHostTest, SleepAndDispatchHonorsDeadline) {
  // Scheduled before Start(), so no producer wake is involved: the shard's
  // park must end at the deadline on its own.
  ShardedRtHost host(OneShard());
  std::atomic<uint64_t> fired_tick{0};
  uint64_t t0 = host.clock().NowTicks();
  host.runtime().ScheduleOnShard(
      0, 1'000 /* 1 ms */, [&](const SoftTimerFacility::FireInfo& info) {
        fired_tick.store(info.fired_tick, std::memory_order_relaxed);
      });
  host.Start();
  WaitFor([&] { return fired_tick.load(std::memory_order_relaxed) != 0; },
          std::chrono::milliseconds(5'000));
  host.Stop();
  ASSERT_NE(fired_tick.load(), 0u);
  EXPECT_GT(fired_tick.load() - t0, 1'000u);  // T < actual
  // Generous bound: scheduler jitter, but nowhere near the 5 s cap.
  EXPECT_LT(fired_tick.load() - t0, 300'000u);
  EXPECT_GT(host.shard_loop_stats(0).sleeps, 0u);
}

TEST(RtHostTest, SleepWithoutEventsBoundsAtBackupPeriod) {
  ShardedRtHost host(OneShard());
  uint64_t x = host.runtime().shard_facility(0).ticks_per_backup_interval();
  uint64_t t0 = host.clock().NowTicks();
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  host.Stop();
  uint64_t elapsed = host.clock().NowTicks() - t0;
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(0);
  EXPECT_GE(loop.backup_checks, 1u);
  // A backup check ends a park that lasted one full period, so they cannot
  // outnumber the periods that elapsed...
  EXPECT_LE(loop.backup_checks * x, elapsed);
  // ...and with no events and no producers, every park but the one Stop()
  // cut short ended at the backup bound.
  EXPECT_GE(loop.backup_checks + 1, loop.sleeps);
  EXPECT_EQ(loop.wakeups, 0u);
  EXPECT_EQ(host.runtime().AggregateStats().dispatches, 0u);
}

TEST(RtHostTest, RunForDispatchesPeriodicWork) {
  // A handler that re-arms itself every ~1 ms on a running host: each fire
  // comes out of a park, and the chain keeps going until Stop().
  ShardedRtHost host(OneShard());
  std::atomic<int> fires{0};
  SoftTimerFacility::Handler periodic =
      [&](const SoftTimerFacility::FireInfo&) {
        fires.fetch_add(1, std::memory_order_relaxed);
        host.runtime().ScheduleOnShard(0, 1'000, periodic);
      };
  host.runtime().ScheduleOnShard(0, 1'000, periodic);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  host.Stop();
  // ~30 fires expected; accept a broad band for loaded CI machines.
  EXPECT_GE(fires.load(), 10);
  EXPECT_LE(fires.load(), 40);
}

TEST(RtHostTest, LatenessStaysWithinPaperBoundUnderSleepLoop) {
  // A chain of events ~700 us apart, every one armed on the shard's own
  // loop thread (the first from shard_setup, the rest by the handler), so
  // each fire comes out of a park and none waits on the thread's start-up.
  constexpr int kFires = 20;
  ShardedRtHost::Config cfg = OneShard();
  ShardedRtHost* host_ptr = nullptr;
  std::atomic<int> fired{0};
  SoftTimerFacility::Handler handler =
      [&](const SoftTimerFacility::FireInfo&) {
        if (fired.fetch_add(1, std::memory_order_relaxed) + 1 < kFires) {
          host_ptr->runtime().ScheduleOnShard(0, 700, handler);
        }
      };
  cfg.shard_setup = [&](size_t shard) {
    host_ptr->runtime().ScheduleOnShard(shard, 700, handler);
  };
  ShardedRtHost host(cfg);
  host_ptr = &host;
  uint64_t x = host.runtime().shard_facility(0).ticks_per_backup_interval();
  host.Start();
  WaitFor([&] { return fired.load(std::memory_order_relaxed) == kFires; },
          std::chrono::milliseconds(5'000));
  host.Stop();
  LatencyHistogram lateness = host.shard_lateness_raw(0);
  ASSERT_EQ(lateness.count(), static_cast<uint64_t>(kFires));
  // T < actual: lateness >= 1 always. The upper bound holds as long as the
  // OS wakes the shard thread near the requested time; allow generous
  // scheduler slop for loaded CI machines.
  EXPECT_GE(lateness.min(), 1u);
  EXPECT_LT(lateness.max(), 6 * x) << "p50 " << lateness.Percentile(50)
                                   << " ticks, X " << x << " ticks";
}

}  // namespace
}  // namespace softtimer
