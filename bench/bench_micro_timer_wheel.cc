// Microbenchmarks of the timer-queue data structures (google-benchmark).
//
// The paper keeps soft-timer events in "a modified form of timing wheels";
// these benchmarks compare every backend in kAllTimerQueueKinds (binary-heap
// baseline, hashed wheel, callout list, grouped sorting queue) on
// the operations the facility performs: schedule, cancel, the
// per-trigger-state check (EarliestDeadline + no-op expire), steady
// fire/reschedule churn, and deadline-update churn at various pending-set
// sizes. The backend matrix at the end holds 1M pending timers over long
// horizons (1M and 64M ticks) for cancel/reschedule churn and burst expiry.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/timer/timer_queue.h"

namespace softtimer {
namespace {

// Arg 0 of every benchmark indexes kAllTimerQueueKinds; the label names it.
const std::vector<int64_t> kKindArgs = [] {
  std::vector<int64_t> args;
  for (size_t i = 0; i < std::size(kAllTimerQueueKinds); ++i) {
    args.push_back(static_cast<int64_t>(i));
  }
  return args;
}();

std::unique_ptr<TimerQueue> MakeQueue(benchmark::State& state) {
  TimerQueueKind kind = kAllTimerQueueKinds[state.range(0)];
  state.SetLabel(TimerQueueKindName(kind));
  return MakeTimerQueue(kind);
}

void BM_Schedule(benchmark::State& state) {
  auto q = MakeQueue(state);
  uint64_t deadline = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->Schedule(deadline, [] {}));
    deadline += 7;
    if (q->size() > 100'000) {
      state.PauseTiming();
      q->ExpireUpTo(deadline);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_Schedule)->ArgsProduct({kKindArgs});

void BM_ScheduleCancel(benchmark::State& state) {
  auto q = MakeQueue(state);
  for (auto _ : state) {
    TimerId id = q->Schedule(1'000'000, [] {});
    benchmark::DoNotOptimize(q->Cancel(id));
  }
}
BENCHMARK(BM_ScheduleCancel)->ArgsProduct({kKindArgs});

// The facility's hot path: nothing due, check and move on.
void BM_TriggerCheckNothingDue(benchmark::State& state) {
  auto q = MakeQueue(state);
  size_t pending = static_cast<size_t>(state.range(1));
  for (size_t i = 0; i < pending; ++i) {
    q->Schedule(1'000'000'000 + i, [] {});
  }
  uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->EarliestDeadline());
    benchmark::DoNotOptimize(q->ExpireUpTo(now));
    ++now;
  }
}
BENCHMARK(BM_TriggerCheckNothingDue)->ArgsProduct({kKindArgs, {4, 1024}});

// Steady-state churn: one event fires and is rescheduled per step, with a
// standing population of `range(1)` pending timers.
void BM_FireRescheduleChurn(benchmark::State& state) {
  auto q = MakeQueue(state);
  size_t population = static_cast<size_t>(state.range(1));
  uint64_t now = 0;
  for (size_t i = 0; i < population; ++i) {
    q->Schedule(now + 10 + i * 13 % 1000, [] {});
  }
  uint64_t next = now + 5;
  for (auto _ : state) {
    q->Schedule(next, [] {});
    now = next;
    benchmark::DoNotOptimize(q->ExpireUpTo(now));
    next = now + 5;
    // Refill what fired from the standing population.
    while (q->size() < population) {
      q->Schedule(now + 10 + (now * 13) % 1000, [] {});
    }
  }
}
BENCHMARK(BM_FireRescheduleChurn)->ArgsProduct({kKindArgs, {16, 4096}});

// Deadline update churn: every step moves one live timer of a standing
// population to a new deadline. Native O(1) Update (grouped sorting queue)
// against the emulated cancel+reschedule the other backends inherit.
void BM_UpdateChurn(benchmark::State& state) {
  auto q = MakeQueue(state);
  size_t population = static_cast<size_t>(state.range(1));
  std::vector<TimerId> ids(population);
  for (size_t i = 0; i < population; ++i) {
    ids[i] = q->Schedule(1'000'000 + i * 13 % 100'000, [] {});
  }
  uint64_t step = 0;
  for (auto _ : state) {
    size_t slot = step % population;
    ids[slot] = q->Update(ids[slot], 1'000'000 + (step * 7) % 100'000);
    benchmark::DoNotOptimize(ids[slot]);
    ++step;
  }
}
BENCHMARK(BM_UpdateChurn)->ArgsProduct({kKindArgs, {4096}});

// --- Backend matrix: 1M pending timers, deadlines uniform over a long
// horizon (range(1) ticks). Setup schedules in deadline order, so the
// callout list's tail walk stays O(1) while the population is built.

constexpr size_t kMatrixPending = 1'000'000;

// splitmix64: a fixed stream, identical for every backend.
struct MatrixRng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

std::vector<uint64_t> SortedDeadlines(uint64_t now, uint64_t horizon, MatrixRng& rng) {
  std::vector<uint64_t> deadlines(kMatrixPending);
  for (uint64_t& d : deadlines) {
    d = now + 1 + rng.Next() % horizon;
  }
  std::sort(deadlines.begin(), deadlines.end());
  return deadlines;
}

// Cancel/reschedule churn: each step cancels one tracked timer (stale if it
// already fired), re-arms it at a fresh deadline within the horizon, and
// advances the clock one tick; whatever fired is topped back up, so the
// population stays at 1M.
void BM_MatrixChurn(benchmark::State& state) {
  auto q = MakeQueue(state);
  const uint64_t horizon = static_cast<uint64_t>(state.range(1));
  MatrixRng rng{1};
  uint64_t now = 0;
  std::vector<TimerId> ids;
  ids.reserve(kMatrixPending);
  for (uint64_t d : SortedDeadlines(now, horizon, rng)) {
    ids.push_back(q->Schedule(d, [] {}));
  }
  for (auto _ : state) {
    TimerId& id = ids[rng.Next() % kMatrixPending];
    benchmark::DoNotOptimize(q->Cancel(id));
    id = q->Schedule(now + 1 + rng.Next() % horizon, [] {});
    ++now;
    benchmark::DoNotOptimize(q->ExpireUpTo(now));
    while (q->size() < kMatrixPending) {
      q->Schedule(now + 1 + rng.Next() % horizon, [] {});
    }
  }
}
BENCHMARK(BM_MatrixChurn)
    ->ArgsProduct({kKindArgs, {1 << 20, 1 << 26}})
    ->Unit(benchmark::kMicrosecond);

// Burst expiry: drain the whole 1M population in 64 equal clock steps
// (~16k fires per ExpireUpTo). Only the drain is timed; `fire` is the time
// per fired timer.
void BM_MatrixBurstExpiry(benchmark::State& state) {
  auto q = MakeQueue(state);
  const uint64_t horizon = static_cast<uint64_t>(state.range(1));
  MatrixRng rng{2};
  uint64_t now = 0;
  size_t fired = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (uint64_t d : SortedDeadlines(now, horizon, rng)) {
      q->Schedule(d, [] {});
    }
    state.ResumeTiming();
    const uint64_t end = now + horizon;
    for (int step = 1; step <= 64; ++step) {
      fired += q->ExpireUpTo(now + horizon * step / 64);
    }
    now = end;
  }
  state.counters["fire"] = benchmark::Counter(
      static_cast<double>(fired), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MatrixBurstExpiry)
    ->ArgsProduct({kKindArgs, {1 << 20, 1 << 26}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace softtimer

BENCHMARK_MAIN();
