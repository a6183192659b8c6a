// Example: the soft-timer facility on real wall-clock time.
//
// Everything else in this repository runs on the simulator; this example
// runs the same SoftTimerFacility against std::chrono::steady_clock inside
// an ordinary user-space loop - the shape a DPDK-style stack would use. A
// one-shard ShardedRtHost owns the loop thread. Its shard runs the spinning
// (isolated) profile, so the loop never parks: each iteration checks for due
// soft events (the trigger state), then does a small work burst
// (shard_tick), so no event waits longer than one burst past its deadline.
// A paced stream targets one event per 500 us; after Stop() we report the
// achieved intervals and the host's lateness histograms.

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "src/core/adaptive_pacer.h"
#include "src/rt/sharded_rt_host.h"
#include "src/stats/summary_stats.h"

using namespace softtimer;

int main() {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.shard_profiles.resize(1);
  cfg.shard_profiles[0].profile = ShardedRtHost::ShardProfile::kIsolated;
  // A busy loop doing a small work burst (2000 multiply-adds, about a
  // microsecond on a current x86 core) between trigger-state checks.
  // The isolated profile calibrates its steal threshold on these same
  // iterations, burst included, so only a real preemption reads as a steal
  // and the clean histogram leaves out just the dispatches next to one.
  volatile uint64_t sink = 0;
  cfg.shard_tick = [&sink](size_t) {
    for (int i = 0; i < 2'000; ++i) {
      sink = sink + static_cast<uint64_t>(i) * 2654435761u;
    }
  };
  ShardedRtHost host(cfg);
  SoftTimerFacility& facility = host.runtime().shard_facility(0);
  std::printf("real-time soft timers: measure %llu Hz, backup %llu Hz (X = %llu)\n\n",
              (unsigned long long)facility.MeasureResolution(),
              (unsigned long long)facility.InterruptClockResolution(),
              (unsigned long long)facility.ticks_per_backup_interval());

  AdaptivePacer pacer({500, 100});  // target 500 us, burst floor 100 us
  SummaryStats intervals_us;
  uint64_t last_fire = 0;

  // Runs on the shard's loop thread, which owns the shard: re-arm locally.
  std::function<void(const SoftTimerFacility::FireInfo&)> stream =
      [&](const SoftTimerFacility::FireInfo& info) {
        if (last_fire != 0) {
          intervals_us.Add(static_cast<double>(info.fired_tick - last_fire));
        }
        last_fire = info.fired_tick;
        host.runtime().ScheduleOnShard(0, pacer.OnPacketSent(info.fired_tick), stream);
      };
  // Before Start() this thread owns the shard, so it may schedule directly.
  pacer.StartTrain(facility.MeasureTime());
  host.runtime().ScheduleOnShard(0, 500, stream);

  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  host.Stop();  // joins the loop thread: everything below is quiesced

  const LatencyHistogram& lateness = host.shard_lateness_raw(0);
  std::printf("paced stream over 400 ms of wall time:\n");
  std::printf("  events fired:        %llu\n", (unsigned long long)lateness.count());
  std::printf("  achieved interval:   %.1f us mean (target 500), stddev %.1f\n",
              intervals_us.mean(), intervals_us.stddev());
  std::printf("  lateness:            p50 %llu us, p99 %llu us, max %llu us\n",
              (unsigned long long)lateness.Percentile(50),
              (unsigned long long)lateness.Percentile(99),
              (unsigned long long)lateness.max());
  const LatencyHistogram& clean = host.shard_lateness_clean(0);
  std::printf("  clean lateness:      p99 %llu us over %llu events "
              "(steal threshold %llu us)\n",
              (unsigned long long)clean.Percentile(99),
              (unsigned long long)clean.count(),
              (unsigned long long)host.isolated_shard_stats(0).steal_threshold_ticks);
  std::printf("  trigger-state polls: %llu\n",
              (unsigned long long)host.shard_loop_stats(0).polls);
  return lateness.count() > 0 ? 0 : 1;
}
