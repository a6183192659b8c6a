// ShardedPacingRuntime: per-shard wheels over the sharded soft-timer
// runtime. Deterministic single-thread tests exercise the cross-core
// control protocol step by step (the runtime's threading contract only
// requires serialized owner/producer calls, which one thread satisfies);
// the final test runs real shard threads through ShardedRtHost with the
// wheel driven by the shard_setup/shard_tick hooks.

#include "src/pacing/sharded_pacing.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sharded_soft_timer_runtime.h"
#include "src/rt/sharded_rt_host.h"

namespace softtimer {
namespace {

class ManualClock : public ClockSource {
 public:
  uint64_t NowTicks() const override { return now_; }
  uint64_t ResolutionHz() const override { return 1'000'000; }
  void Advance(uint64_t ticks) { now_ += ticks; }

 private:
  uint64_t now_ = 0;
};

class CountingSink : public PacingWheel::BatchSink {
 public:
  void OnPacedBatch(const PacedEmit* batch, size_t count,
                    uint64_t) override {
    for (size_t i = 0; i < count; ++i) {
      packets.fetch_add(batch[i].packets, std::memory_order_relaxed);
    }
    batches.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> packets{0};
  std::atomic<uint64_t> batches{0};
};

ShardedSoftTimerRuntime::Config RtCfg(size_t shards) {
  ShardedSoftTimerRuntime::Config c;
  c.num_shards = shards;
  return c;
}

ShardedPacingRuntime::Config PacingCfg() {
  ShardedPacingRuntime::Config c;
  c.wheel.quantum_ticks = 8;
  c.wheel.num_slots = 1024;
  return c;
}

PacedFlowConfig Flow(uint64_t target, uint64_t min_burst) {
  PacedFlowConfig c;
  c.target_interval_ticks = target;
  c.min_burst_interval_ticks = min_burst;
  return c;
}

TEST(ShardedPacingTest, FlowIdsCarryShardByteAndRouteBack) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, RtCfg(4));
  ShardedPacingRuntime pacing(&rt, PacingCfg());
  ASSERT_EQ(pacing.num_shards(), 4u);
  PacedFlowId id = pacing.AddFlowOnShard(2, Flow(100, 10));
  ASSERT_TRUE(id.valid());
  EXPECT_EQ(ShardedPacingRuntime::ShardOf(id), 2u);
  // Routing is by the id alone: no shard argument on the *OnShard calls.
  EXPECT_TRUE(pacing.ActivateOnShard(id));
  EXPECT_TRUE(pacing.shard_wheel(2).queued_flows() == 1);
  EXPECT_EQ(pacing.shard_wheel(0).queued_flows(), 0u);
  EXPECT_TRUE(pacing.DeactivateOnShard(id));
  EXPECT_TRUE(pacing.RemoveFlowOnShard(id));
  // Stale and malformed ids are rejected, not misrouted.
  EXPECT_FALSE(pacing.ActivateOnShard(id));
  EXPECT_FALSE(pacing.ActivateOnShard(PacedFlowId{}));
}

TEST(ShardedPacingTest, PerShardWheelsDriveIndependently) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, RtCfg(2));
  ShardedPacingRuntime pacing(&rt, PacingCfg());
  CountingSink sink0, sink1;
  pacing.BindSink(0, &sink0);
  pacing.BindSink(1, &sink1);
  PacedFlowId f0 = pacing.AddFlowOnShard(0, Flow(50, 5));
  PacedFlowId f1 = pacing.AddFlowOnShard(1, Flow(200, 20));
  ASSERT_TRUE(pacing.ActivateOnShard(f0));
  ASSERT_TRUE(pacing.ActivateOnShard(f1));
  // One soft event per shard, regardless of flow count.
  EXPECT_EQ(rt.shard_facility(0).pending_count(), 1u);
  EXPECT_EQ(rt.shard_facility(1).pending_count(), 1u);
  for (int i = 0; i < 400; ++i) {
    clock.Advance(1);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    rt.OnTriggerState(1, TriggerSource::kSyscall);
  }
  // 400 ticks: shard 0's flow (interval 50) fires ~8x, shard 1's ~2x.
  EXPECT_GE(sink0.packets.load(), 7u);
  EXPECT_GE(sink1.packets.load(), 1u);
  EXPECT_LT(sink1.packets.load(), sink0.packets.load());
}

TEST(ShardedPacingTest, CrossCoreReRateAppliesAtTargetShardTriggerState) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, RtCfg(2));
  ShardedPacingRuntime pacing(&rt, PacingCfg());
  CountingSink sink;
  pacing.BindSink(1, &sink);
  PacedFlowId id = pacing.AddFlowOnShard(1, Flow(1000, 100));
  ASSERT_TRUE(pacing.ActivateOnShard(id));
  EXPECT_EQ(pacing.shard_wheel(1).next_due_tick(), 1u);
  clock.Advance(2);
  rt.OnTriggerState(1, TriggerSource::kSyscall);  // first emission
  EXPECT_EQ(sink.packets.load(), 1u);

  // A producer on another core re-rates the flow through the command ring.
  auto token = rt.RegisterProducer();
  ASSERT_TRUE(token.valid());
  ASSERT_TRUE(pacing.ReRateCrossCore(token, id, 50, 5));
  EXPECT_TRUE(rt.remote_pending(1));
  // Drained at the target shard's next trigger state, applied one tick
  // later (the command rides a delta-0 soft event, which fires at the
  // facility's schedule_tick + 1)...
  rt.OnTriggerState(1, TriggerSource::kIpIntr);
  clock.Advance(1);
  rt.OnTriggerState(1, TriggerSource::kIpIntr);
  EXPECT_EQ(pacing.shard_wheel(1).stats().re_rates, 1u);
  // ...and the new cadence is immediate: emissions every ~50 ticks instead
  // of 1000.
  uint64_t before = sink.packets.load();
  for (int i = 0; i < 500; ++i) {
    clock.Advance(1);
    rt.OnTriggerState(1, TriggerSource::kSyscall);
  }
  EXPECT_GE(sink.packets.load() - before, 9u);
}

TEST(ShardedPacingTest, CrossCoreActivateDeactivateAndBudget) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, RtCfg(2));
  ShardedPacingRuntime pacing(&rt, PacingCfg());
  CountingSink sink;
  pacing.BindSink(1, &sink);
  auto token = rt.RegisterProducer();
  PacedFlowId id = pacing.AddFlowOnShard(1, Flow(10, 5));

  // Each cross-core op drains at the shard's next trigger state and applies
  // one tick later (delta-0 soft event fires at schedule_tick + 1).
  auto step = [&] {
    rt.OnTriggerState(1, TriggerSource::kSyscall);  // drain the command
    clock.Advance(1);
    rt.OnTriggerState(1, TriggerSource::kSyscall);  // fire it
  };
  // Far initial delay: keeps the first emission outside this test's window,
  // so only the control-plane sequencing is observed.
  ASSERT_TRUE(pacing.ActivateCrossCore(token, id, /*initial_delay_ticks=*/500));
  step();
  EXPECT_TRUE(pacing.shard_wheel(1).active(
      PacedFlowId{StripTimerIdShard(id.value)}));

  ASSERT_TRUE(pacing.DeactivateCrossCore(token, id));
  step();
  EXPECT_FALSE(pacing.shard_wheel(1).active(
      PacedFlowId{StripTimerIdShard(id.value)}));

  // Budget top-up also routes: reactivation after exhaustion goes through
  // AddBudgetCrossCore (control plane), emission through the wheel (data
  // plane).
  ASSERT_TRUE(pacing.AddBudgetCrossCore(token, id, 3));
  step();
  // Unlimited flow: AddBudget is a no-op but must still succeed.
  EXPECT_EQ(sink.packets.load(), 0u);  // deactivated: no emissions yet
}

TEST(ShardedPacingTest, RtHostShardsPaceConcurrently) {
  // Real shard threads: each shard activates its own flows from the
  // shard_setup hook (the owner-thread-only API, run on the shard's loop
  // thread), the wheel event fires inside the shard loop, and this thread
  // re-rates a flow cross-core mid-run. The hooks capture a pointer that is
  // filled in before Start(), breaking the host-config / pacing-runtime
  // construction cycle.
  ShardedPacingRuntime* pacing_ptr = nullptr;
  CountingSink sinks[2];
  std::vector<PacedFlowId> ids[2];  // written by shard_setup, then published
  std::atomic<int> setup_done{0};

  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  // Both shards spin (the isolated profile), so the wheel events and the
  // cross-core re-rate are picked up without parks or wakeups.
  cfg.shard_profiles.resize(2);
  for (auto& profile : cfg.shard_profiles) {
    profile.profile = ShardedRtHost::ShardProfile::kIsolated;
  }
  cfg.shard_setup = [&](size_t shard) {
    for (int i = 0; i < 16; ++i) {
      PacedFlowId id = pacing_ptr->AddFlowOnShard(
          shard, Flow(500 + 50 * static_cast<uint64_t>(i), 50));
      ids[shard].push_back(id);
      pacing_ptr->ActivateOnShard(id, static_cast<uint64_t>(i) * 30);
    }
    setup_done.fetch_add(1, std::memory_order_release);
  };
  cfg.shard_tick = [&](size_t shard) { pacing_ptr->PollShard(shard); };

  ShardedRtHost host(cfg);
  ShardedPacingRuntime pacing(&host.runtime(), PacingCfg());
  pacing_ptr = &pacing;
  pacing.BindSink(0, &sinks[0]);
  pacing.BindSink(1, &sinks[1]);
  host.Start();

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto wait_for = [&](auto pred) {
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  };
  bool setup_ok =
      wait_for([&] { return setup_done.load(std::memory_order_acquire) == 2; });
  bool paced_ok = setup_ok && wait_for([&] {
    return sinks[0].packets.load() >= 100 && sinks[1].packets.load() >= 100;
  });
  bool rerate_sent = false;
  uint64_t shard1_before_rerate = 0;
  bool advanced_ok = false;
  if (paced_ok) {
    auto token = host.RegisterProducer();
    shard1_before_rerate = sinks[1].packets.load();
    rerate_sent = pacing.ReRateCrossCore(token, ids[1][0], 120, 12);
    advanced_ok = wait_for([&] {
      return sinks[1].packets.load() >= shard1_before_rerate + 50;
    });
  }
  host.Stop();  // join threads before inspecting shard-local state

  EXPECT_TRUE(setup_ok);
  EXPECT_TRUE(paced_ok) << "shard0=" << sinks[0].packets.load()
                        << " shard1=" << sinks[1].packets.load();
  EXPECT_TRUE(rerate_sent);
  EXPECT_TRUE(advanced_ok);
  EXPECT_EQ(pacing.shard_wheel(1).stats().re_rates, 1u);
  // Pacing ran on both shards with exactly one armed wheel event each.
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_GE(pacing.shard_host(s).stats().wheel_events +
                  pacing.shard_host(s).stats().poll_drains,
              1u);
    EXPECT_LE(host.runtime().shard_facility(s).pending_count(), 1u);
  }
}

}  // namespace
}  // namespace softtimer
