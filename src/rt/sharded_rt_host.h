// Real-time host for ShardedSoftTimerRuntime: one trigger-loop thread per
// shard, each playing the role the paper assigns to a CPU. A one-shard host
// is the single-core case: the facility on std::chrono::steady_clock inside
// an ordinary user-space loop (examples/realtime_host.cpp).
//
// Every normal shard thread alternates trigger-state checks with
// backup-bounded sleeps: a sleep never extends past the earlier of the
// shard's next soft-event deadline and one backup period, so the paper's
// T < actual < T + X + 1 bound holds per shard. Per-iteration application
// work (a DPDK-style loop's I/O batch) goes in Config::shard_tick, right
// after the trigger-state check. Two things are multi-core specific:
//
//  * Wakeups. A cross-core schedule must not wait out the target shard's
//    sleep, so the runtime's wake hook pokes the target thread's eventcount
//    (SleeperGate, src/rt/eventcount.h): the shard parks on its 32-bit
//    `sleeping` word itself with FUTEX_WAIT_PRIVATE, bounded by a relative
//    timeout. A producer reads the word after a fence and stops there
//    unless the shard is parked (or committed to parking); then the one
//    producer whose exchange flips the word from 1 to 0 issues the only
//    FUTEX_WAKE_PRIVATE for that park. No lock is taken on either side. The
//    seq_cst fences on both sides close the classic sleep/publish race, and
//    the backup bound makes even a hypothetical missed wakeup a
//    bounded-lateness event, never a lost one.
//
//  * Shared polling work. The paper has idle CPUs poll the network instead
//    of halting (Section 5.2; mirrored by tests/smp_test.cc). With
//    Config::queue_work set, every normal shard offers each loop iteration
//    to a claimed-queue poller (MultiQueuePoller): whichever shard wins a
//    queue's claim drains it, and the set-wide next-due tick bounds every
//    shard's sleep.
//
// Per-shard profiles (DESIGN.md section 14). Each shard runs one of two
// loop profiles, selected by Config::shard_profiles so mixed-profile hosts
// are first-class:
//
//  * kNormal - the loop described above (trigger checks + backup-bounded
//    sleeps, optional queue work).
//
//  * kIsolated - a latency-SLO dedicated core: every iteration is a
//    trigger-state check, then shard_tick, then a CpuRelax() pause hint,
//    and the loop NEVER parks on the eventcount, so a cross-core schedule
//    is picked up within one iteration instead of one futex wakeup. It runs
//    no backup: the paper's backup interrupt bounds lateness when trigger
//    states are sparse, and here the check IS the loop, so a backup could
//    only relabel a check the loop makes anyway. Because shared VMs steal
//    the CPU for multi-microsecond stretches, the loop detects preemption
//    (an iteration's clock gap above a steal threshold) and keeps TWO
//    dispatch-lateness histograms: `raw` (every dispatch) and `clean`
//    (dispatches not adjacent to a detected steal). The threshold is 32x
//    the median gap of the loop's own first kCalibrationIterations
//    iterations (check plus shard_tick, after shard_setup); their
//    dispatches go to raw only, since no threshold exists yet to vouch for
//    them. SLO gates read the clean histogram - the same CPU-attribution
//    methodology as the bench suite's CPU-time-per-op numbers - while raw
//    is always reported alongside.
//
// Producer threads (application threads scheduling onto shards) register
// through RegisterProducer() and use the runtime's cross-core API directly.

#ifndef SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_
#define SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/sharded_soft_timer_runtime.h"
#include "src/rt/eventcount.h"
#include "src/rt/monotonic_clock_source.h"
#include "src/stats/latency_histogram.h"

namespace softtimer {

class ShardedRtHost {
 public:
  enum class ShardProfile {
    kNormal,    // trigger checks + backup-bounded sleeps (default)
    kIsolated,  // dedicated spinning core, never sleeps on the eventcount
  };

  struct ShardProfileConfig {
    ShardProfile profile = ShardProfile::kNormal;
    // Dispatch-lateness SLO budget in measure ticks. Clean dispatches whose
    // FireInfo::lateness_ticks() exceeds it bump IsolatedShardStats::
    // slo_violations. 0 disables SLO accounting. Honoured on either profile
    // (a normal shard may carry an SLO too; every dispatch counts as clean
    // there since only the isolated loop performs steal detection).
    uint64_t slo_lateness_ticks = 0;
  };

  struct Config {
    size_t num_shards = 2;
    uint64_t measure_hz = 1'000'000;
    uint64_t interrupt_clock_hz = 1'000;  // backup bound: 1 ms
    TimerQueueKind queue_kind = TimerQueueKind::kHashedWheel;
    size_t max_producers = 8;
    size_t ring_capacity = 1024;
    // Shared polling work (e.g. the network poll loop): M-on-N claimed
    // queue polling (MultiQueuePoller, src/net). queue_work is served by
    // EVERY kNormal shard concurrently - per-queue exclusivity is the
    // callee's problem (the QueueClaim protocol), so a one-queue poller
    // runs its queue on one shard at a time. `poll` runs once per loop
    // iteration (it claims and drains at most one due queue; the loop keeps
    // serving while it returns packets), and `next_due` bounds the shard's
    // sleep so no due queue waits for a backup interrupt when every shard
    // has parked. Isolated shards never touch it - the core is dedicated.
    struct QueueWork {
      // (shard, now_tick) -> packets drained; typically
      // MultiQueuePoller::PollOnce with shard as the core id.
      std::function<size_t(size_t shard, uint64_t now_tick)> poll;
      // Set-wide earliest next-due tick (MultiQueuePoller::next_due_tick).
      std::function<uint64_t()> next_due;
    };
    QueueWork queue_work;
    // Per-shard hooks, each invoked on the shard's own loop thread (so they
    // may freely touch that shard's facility and shard-local state such as
    // a PacingWheelHost). `shard_setup` runs once, before the loop's first
    // iteration; `shard_tick` runs every iteration right after the
    // trigger-state check (e.g. an opportunistic PacingWheelHost::Poll()).
    std::function<void(size_t shard)> shard_setup;
    std::function<void(size_t shard)> shard_tick;
    // Per-shard profiles. Empty = every shard runs kNormal. Otherwise must
    // have exactly num_shards entries; mixed hosts (isolated shard 0 beside
    // normal shard 1) are the intended use. Isolated shards never park and
    // never serve queue_work - the core is dedicated.
    std::vector<ShardProfileConfig> shard_profiles;
  };

  explicit ShardedRtHost(Config config);
  ~ShardedRtHost();

  ShardedRtHost(const ShardedRtHost&) = delete;
  ShardedRtHost& operator=(const ShardedRtHost&) = delete;

  ShardedSoftTimerRuntime& runtime() { return *runtime_; }
  const MonotonicClockSource& clock() const { return clock_; }
  size_t num_shards() const { return config_.num_shards; }

  // Spawns one trigger-loop thread per shard. After Start(), shard
  // facilities belong to their loop threads: interact through the runtime's
  // producer API (or stop first).
  void Start();
  // Stops and joins all shard threads. Idempotent.
  void Stop();
  bool running() const { return running_; }

  // Registers the calling (producer) thread; see
  // ShardedSoftTimerRuntime::RegisterProducer.
  ShardedSoftTimerRuntime::ProducerToken RegisterProducer() {
    return runtime_->RegisterProducer();
  }

  struct ShardLoopStats {
    uint64_t polls = 0;          // trigger-state checks performed by the loop
    uint64_t sleeps = 0;         // parks entered (futex waits issued)
    // Parks whose wake tick was already <= now when the shard parked: the
    // wait gets a zero timeout, so how long it lasts is up to the kernel's
    // timer slack (DESIGN.md section 17).
    uint64_t due_parks = 0;
    // Checks attributed to the backup interrupt (normal shards only: an
    // isolated shard's every check is a trigger state).
    uint64_t backup_checks = 0;
    // Producer wakes that took this shard out of a blocking wait. At most
    // one per park, so wakeups <= sleeps always holds.
    uint64_t wakeups = 0;
    uint64_t queue_polls = 0;    // queue_work.poll invocations by this shard
    uint64_t queue_packets = 0;  // packets those invocations drained
  };
  // Safe while running for `wakeups`; read the rest after Stop() (or accept
  // a torn-but-monotonic snapshot).
  ShardLoopStats shard_loop_stats(size_t shard) const;

  // Counters specific to the isolated spin loop (all but slo_violations are
  // zero for kNormal shards; its iterations are ShardLoopStats::polls).
  // Quiesced reads only, like the histograms below.
  struct IsolatedShardStats {
    uint64_t steal_events = 0;  // checks whose leading gap exceeded the
                                // steal threshold (preemption detected)
    uint64_t stolen_ticks = 0;  // total ticks inside detected steal gaps
    uint64_t max_gap_ticks = 0; // largest check-to-check gap classified
    // Dispatches excluded from the clean histogram because a steal was
    // detected in the gap before or after their check (they stay in raw).
    uint64_t steal_suppressed_dispatches = 0;
    uint64_t slo_violations = 0;    // clean dispatches over the SLO budget
    // From the startup calibration: the median gap of the loop's first
    // kCalibrationIterations iterations, shard_tick included, and the steal
    // threshold derived from it.
    uint64_t calibrated_gap_ticks = 0;
    uint64_t steal_threshold_ticks = 0;  // 32x the median gap
  };
  IsolatedShardStats isolated_shard_stats(size_t shard) const;

  // Dispatch-lateness histograms (FireInfo::lateness_ticks per dispatched
  // handler), fed by a facility dispatch probe on EVERY shard. A normal
  // shard records each dispatch once and its clean histogram IS its raw
  // one; an isolated shard's clean excludes steal-adjacent dispatches and
  // those of its calibration iterations (see header comment). Written by
  // the shard's loop thread: read after Stop(), or from the loop thread
  // itself (shard_tick hooks).
  const LatencyHistogram& shard_lateness_raw(size_t shard) const;
  const LatencyHistogram& shard_lateness_clean(size_t shard) const;

  // The effective profile of a shard (resolved against the default).
  const ShardProfileConfig& shard_profile(size_t shard) const {
    return profiles_[shard];
  }

 private:
  // Dispatches buffered per check awaiting the trailing-gap steal verdict
  // (see LatenessProbe). Far above any sane dispatch batch for an
  // SLO-carrying shard; overflow falls back to raw-only recording.
  static constexpr size_t kCleanBufferCap = 64;
  // Iterations an isolated loop times before it classifies steals.
  static constexpr size_t kCalibrationIterations = 1024;

  // Steal-classification state of an isolated shard's lateness probe
  // (loop-thread only). Normal shards allocate none of it.
  struct CleanLateness {
    bool calibrating = true;     // no steal threshold yet: raw-only
    bool check_tainted = false;  // current check's leading gap was a steal
    size_t pending_count = 0;
    std::array<uint64_t, kCleanBufferCap> pending{};
    LatencyHistogram histogram;
  };

  // Everything one shard's loop thread touches, cache-line separated.
  struct alignas(kCacheLineBytes) ShardLoop {
    // Raised while the loop thread is inside (or committed to entering) its
    // park, and the futex word it parks on; producers only wake it when they
    // observe it raised. The protocol lives in src/rt/eventcount.h
    // (model-checked by tests/model_check_test.cc).
    SleeperGate<> gate;
    std::atomic<uint64_t> wakeups{0};
    ShardLoopStats stats;  // loop-thread writes (wakeups mirrored on read)
    IsolatedShardStats iso;
    // Lateness-probe state (loop-thread only, set up before Start()).
    uint64_t slo_budget = 0;
    LatencyHistogram lateness_raw;
    std::unique_ptr<CleanLateness> clean;  // isolated shards only
    std::thread thread;
  };

  static void WakeShard(void* ctx, size_t shard);
  // Facility dispatch probe, installed on every shard facility with the
  // shard's ShardLoop as context; runs inside DispatchFired on the loop
  // thread (or whichever thread drives a quiesced facility in tests).
  // Records lateness and charges no cost (returns 0).
  static uint64_t LatenessProbe(void* ctx,
                                const SoftTimerFacility::FireInfo& info);
  void RunShard(size_t shard);
  void RunShardIsolated(size_t shard);
  // One isolated-loop iteration: the check, shard_tick, a pause hint.
  void SpinOnce(size_t shard);
  // Flush (clean trailing gap) or suppress (steal trailing gap) the
  // dispatches buffered during the previous isolated check.
  static void ResolvePendingClean(ShardLoop& loop, bool trailing_steal);
  // Backup-bounded sleep for `shard`, then the check it was bounded for.
  void SleepAndDispatch(size_t shard);

  Config config_;
  MonotonicClockSource clock_;
  std::vector<ShardProfileConfig> profiles_;  // resolved, num_shards entries
  std::unique_ptr<ShardedSoftTimerRuntime> runtime_;
  std::vector<std::unique_ptr<ShardLoop>> loops_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_
