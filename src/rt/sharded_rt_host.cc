#include "src/rt/sharded_rt_host.h"

#include <algorithm>
#include <cassert>

#include "src/core/cpu_relax.h"

namespace softtimer {

ShardedRtHost::ShardedRtHost(Config config)
    : config_(std::move(config)), clock_(config_.measure_hz) {
  assert(config_.num_shards >= 1);
  assert(config_.shard_profiles.empty() ||
         config_.shard_profiles.size() == config_.num_shards);
  profiles_ = config_.shard_profiles;
  profiles_.resize(config_.num_shards);  // missing entries default to kNormal
  ShardedSoftTimerRuntime::Config rc;
  rc.num_shards = config_.num_shards;
  rc.max_producers = config_.max_producers;
  rc.ring_capacity = config_.ring_capacity;
  rc.facility.interrupt_clock_hz = config_.interrupt_clock_hz;
  rc.facility.queue_kind = config_.queue_kind;
  runtime_ = std::make_unique<ShardedSoftTimerRuntime>(&clock_, rc);
  runtime_->set_wake_hook(&ShardedRtHost::WakeShard, this);
  loops_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    loops_.push_back(std::make_unique<ShardLoop>());
    ShardLoop& loop = *loops_.back();
    if (profiles_[i].profile == ShardProfile::kIsolated) {
      loop.clean = std::make_unique<CleanLateness>();
    }
    loop.slo_budget = profiles_[i].slo_lateness_ticks;
    runtime_->shard_facility(i).set_dispatch_probe(
        &ShardedRtHost::LatenessProbe, &loop);
  }
}

ShardedRtHost::~ShardedRtHost() { Stop(); }

void ShardedRtHost::Start() {
  if (running_) {
    return;
  }
  // ordering: loop threads are created after this store; the thread launch
  // itself synchronizes.
  stop_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i < loops_.size(); ++i) {
    bool isolated = profiles_[i].profile == ShardProfile::kIsolated;
    loops_[i]->thread = std::thread(
        [this, i, isolated] { isolated ? RunShardIsolated(i) : RunShard(i); });
  }
  running_ = true;
}

void ShardedRtHost::Stop() {
  if (!running_) {
    return;
  }
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& loop : loops_) {
    // The waker side of the gate, exactly like a producer's publish: either
    // the sleeper's post-fence stop check sees the store above, or this
    // sees its sleeping flag and wakes it.
    loop->gate.WakeSleeper();
  }
  for (auto& loop : loops_) {
    loop->thread.join();
  }
  running_ = false;
}

void ShardedRtHost::WakeShard(void* ctx, size_t shard) {
  auto* host = static_cast<ShardedRtHost*>(ctx);
  ShardLoop& loop = *host->loops_[shard];
  // Fence + sleeping-flag read (src/rt/eventcount.h): if the sleeper's
  // pending-flag recheck missed our publish, the gate's fence orders our
  // sleeping-load after its sleeping-store, so we observe it committed and
  // deliver the wake (unless a racing producer already claimed it).
  if (loop.gate.WakeSleeper() != 0) {
    // ordering: stats counter; read quiesced or tolerating staleness.
    loop.wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedRtHost::SleepAndDispatch(size_t shard) {
  ShardLoop& loop = *loops_[shard];
  SoftTimerFacility& facility = runtime_->shard_facility(shard);
  uint64_t wake_tick = clock_.NowTicks() + facility.ticks_per_backup_interval();
  bool backup_bound = true;
  std::optional<uint64_t> deadline = facility.NextDeadlineTick();
  if (deadline && *deadline < wake_tick) {
    wake_tick = *deadline;
    backup_bound = false;
  }
  if (config_.queue_work.next_due) {
    // No due queue may wait out a full backup period just because every
    // shard parked: the earliest queue deadline bounds the sleep exactly
    // like the shard's own next soft-event deadline does. Each releasing
    // shard folds its published deadline into the gate BEFORE it can reach
    // this sleep, so the last shard to park always sees the earliest one.
    uint64_t queue_due = config_.queue_work.next_due();
    if (queue_due < wake_tick) {
      wake_tick = queue_due;
      backup_bound = false;
    }
  }
  loop.gate.PrepareSleep();
  // Recheck under the flag: a command published before the gate's fence is
  // visible here; one published after it sees the sleeper flag and wakes us
  // (or flips the word first, and the futex wait returns at once).
  if (!runtime_->remote_pending(shard) &&
      // ordering: the gate's seq_cst fence orders this load after the flag
      // store, and Stop() runs the waker side of the gate after its
      // seq_cst stop store, so a relaxed read cannot miss a shutdown.
      !stop_.load(std::memory_order_relaxed)) {
    ++loop.stats.sleeps;
    std::chrono::nanoseconds timeout = clock_.UntilTick(wake_tick);
    if (timeout.count() == 0) {
      ++loop.stats.due_parks;
    }
    loop.gate.Wait(timeout);
  }
  loop.gate.FinishSleep();
  if (backup_bound && clock_.NowTicks() >= wake_tick) {
    ++loop.stats.backup_checks;
    runtime_->OnBackupInterrupt(shard);
    return;
  }
  runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
}

void ShardedRtHost::RunShard(size_t shard) {
  ShardLoop& loop = *loops_[shard];
  if (config_.shard_setup) {
    config_.shard_setup(shard);
  }
  // ordering: both stop checks are relaxed - the loop re-polls continuously
  // and the sleep path rechecks under the eventcount, so staleness costs at
  // most one extra iteration.
  while (!stop_.load(std::memory_order_relaxed)) {
    ++loop.stats.polls;
    runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
    if (config_.shard_tick) {
      config_.shard_tick(shard);
    }
    if (config_.queue_work.poll) {
      // Serve at most one claimed queue per iteration, interleaved with the
      // shard's own trigger checks; as long as queues keep yielding packets
      // the shard stays in its loop (the `continue` skips the sleep), which
      // is how an idle shard absorbs queues from a busy one - it simply
      // keeps winning claims the busy shard has no spare iterations for.
      size_t drained = config_.queue_work.poll(shard, clock_.NowTicks());
      ++loop.stats.queue_polls;
      loop.stats.queue_packets += drained;
      if (drained > 0) {
        continue;
      }
    }
    // ordering: same relaxed-stop contract as the loop condition above.
    if (stop_.load(std::memory_order_relaxed)) {
      break;
    }
    SleepAndDispatch(shard);
  }
}

// SOFTTIMER_HOT
uint64_t ShardedRtHost::LatenessProbe(void* ctx,
                                      const SoftTimerFacility::FireInfo& info) {
  auto* loop = static_cast<ShardLoop*>(ctx);
  uint64_t lateness = info.lateness_ticks();
  loop->lateness_raw.Record(lateness);
  CleanLateness* clean = loop->clean.get();
  if (clean == nullptr) {
    // Normal profile: no steal detection, every dispatch is clean, so the
    // raw histogram doubles as the clean one (shard_lateness_clean).
    if (loop->slo_budget != 0 && lateness > loop->slo_budget) {
      ++loop->iso.slo_violations;
    }
    return 0;
  }
  if (clean->calibrating) {
    return 0;  // no steal threshold yet to vouch for it: raw only
  }
  if (clean->check_tainted) {
    // Leading gap was a steal: this dispatch's fired_tick is preemption
    // noise, keep it out of the clean histogram entirely.
    ++loop->iso.steal_suppressed_dispatches;
    return 0;
  }
  // Clean so far, but a steal could still have landed between the loop-top
  // clock read and the facility's dispatch read. Buffer until the NEXT
  // loop-top read vouches for the trailing gap (sandwich rule: a dispatch
  // is clean only when the gaps on both sides of its check are clean).
  if (clean->pending_count < kCleanBufferCap) {
    clean->pending[clean->pending_count++] = lateness;
  } else {
    ++loop->iso.steal_suppressed_dispatches;  // overflow: raw-only
  }
  return 0;
}

void ShardedRtHost::ResolvePendingClean(ShardLoop& loop, bool trailing_steal) {
  CleanLateness& clean = *loop.clean;
  if (clean.pending_count == 0) {
    return;
  }
  if (trailing_steal) {
    loop.iso.steal_suppressed_dispatches += clean.pending_count;
  } else {
    for (size_t i = 0; i < clean.pending_count; ++i) {
      uint64_t lateness = clean.pending[i];
      clean.histogram.Record(lateness);
      if (loop.slo_budget != 0 && lateness > loop.slo_budget) {
        ++loop.iso.slo_violations;
      }
    }
  }
  clean.pending_count = 0;
}

void ShardedRtHost::SpinOnce(size_t shard) {
  ++loops_[shard]->stats.polls;
  runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
  if (config_.shard_tick) {
    config_.shard_tick(shard);
  }
  CpuRelax();
}

void ShardedRtHost::RunShardIsolated(size_t shard) {
  ShardLoop& loop = *loops_[shard];
  CleanLateness& clean = *loop.clean;
  if (config_.shard_setup) {
    config_.shard_setup(shard);
  }
  // Calibration: time the loop's own first iterations, clock read to clock
  // read, exactly as the classifier below measures them. The median, not
  // the mean, so a steal landing inside the calibration cannot poison it.
  // The steal threshold is a generous multiple of that median - far above
  // scheduling jitter, far below any real preemption.
  std::array<uint64_t, kCalibrationIterations> gaps;
  size_t samples = 0;
  clean.calibrating = true;
  uint64_t prev_tick = clock_.NowTicks();
  // ordering: same relaxed-stop contract as RunShard - the loop re-polls
  // continuously, so staleness costs at most one extra iteration.
  while (samples < kCalibrationIterations &&
         !stop_.load(std::memory_order_relaxed)) {
    SpinOnce(shard);
    uint64_t now = clock_.NowTicks();
    gaps[samples++] = now - prev_tick;
    prev_tick = now;
  }
  clean.calibrating = false;
  uint64_t median_gap = 0;
  if (samples > 0) {
    std::nth_element(gaps.begin(), gaps.begin() + samples / 2,
                     gaps.begin() + samples);
    median_gap = gaps[samples / 2];
  }
  uint64_t steal_threshold =
      std::max<uint64_t>(32 * std::max<uint64_t>(median_gap, 1), 4);
  loop.iso.calibrated_gap_ticks = median_gap;
  loop.iso.steal_threshold_ticks = steal_threshold;

  // ordering: same relaxed-stop contract as above.
  while (!stop_.load(std::memory_order_relaxed)) {
    uint64_t now = clock_.NowTicks();
    uint64_t gap = now - prev_tick;
    prev_tick = now;
    bool steal = gap > steal_threshold;
    // The previous check's dispatches were waiting on this gap's verdict.
    ResolvePendingClean(loop, steal);
    if (steal) {
      ++loop.iso.steal_events;
      loop.iso.stolen_ticks += gap;
    }
    if (gap > loop.iso.max_gap_ticks) {
      loop.iso.max_gap_ticks = gap;
    }
    clean.check_tainted = steal;
    SpinOnce(shard);
  }
  // No trailing gap will ever vouch for the last check's dispatches;
  // suppress them (they are in raw) rather than guess.
  ResolvePendingClean(loop, /*trailing_steal=*/true);
}

ShardedRtHost::ShardLoopStats ShardedRtHost::shard_loop_stats(
    size_t shard) const {
  ShardLoopStats s = loops_[shard]->stats;
  // ordering: stats counter; monotonic, staleness acceptable by contract.
  s.wakeups = loops_[shard]->wakeups.load(std::memory_order_relaxed);
  return s;
}

ShardedRtHost::IsolatedShardStats ShardedRtHost::isolated_shard_stats(
    size_t shard) const {
  return loops_[shard]->iso;
}

const LatencyHistogram& ShardedRtHost::shard_lateness_raw(size_t shard) const {
  return loops_[shard]->lateness_raw;
}

const LatencyHistogram& ShardedRtHost::shard_lateness_clean(
    size_t shard) const {
  const ShardLoop& loop = *loops_[shard];
  return loop.clean ? loop.clean->histogram : loop.lateness_raw;
}

}  // namespace softtimer
