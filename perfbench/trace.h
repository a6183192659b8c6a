// Benchmark clock and the traced run's span recorder.
//
// Spans are recorded by the benchmark around each call it makes into a
// layer of the stack (never from inside the library). Every span adds to a
// per-thread, per-name sum of count / total / self time; spans whose trace id
// (the packet id) falls in a seeded 1-in-64 sample are also appended to a
// preallocated per-thread buffer with start, end and parent, and written out
// when the run ends. A span's self time is its duration minus the time its
// child spans cover.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <x86intrin.h>

#include <array>
#include <cstdint>
#include <vector>

#include "perfbench/schedule.h"

namespace perfbench {

// TSC-based nanosecond clock (calibrated once against steady_clock). Used for
// arrivals, latencies and spans: one rdtsc is about half a steady_clock read.
class TscClock {
 public:
  static void Calibrate();
  static uint64_t Raw() { return __rdtsc(); }
  static double ns_per_tick() { return ns_per_tick_; }
  static uint64_t ToNs(uint64_t ticks) {
    return static_cast<uint64_t>(static_cast<double>(ticks) * ns_per_tick_);
  }

 private:
  static inline double ns_per_tick_ = 1.0;
};

enum SpanName : uint16_t {
  kNetPoll,       // MultiQueuePoller::PollOnce
  kNetDrain,      // one rx queue drain (the Queue adapter), under net.poll
  kXcorePush,     // ScheduleCrossCore / ReRateCrossCore on the draining shard
  kXcoreHop,      // the forwarded packet's handler on the owning shard
  kTcpAck,        // RtoEngine::OnCumulativeAck
  kTcpSent,       // RtoEngine::OnSegmentSent
  kTcpRtoFire,    // RTO dispatch: fire probe to retransmit hook
  kPacingPoll,    // ShardedPacingRuntime::PollShard
  kPacingSink,    // the pacer's BatchSink emitting a batch
  kPacingRerate,  // ShardedPacingRuntime::ReRateOnShard
  kPacingBudget,  // ActivateOnShard / AddBudgetOnShard starting a response
  kNumSpanNames,
};

inline const char* SpanLabel(int name) {
  static const char* kLabels[kNumSpanNames] = {
      "net.poll",     "net.drain",    "core.xcore_push", "core.xcore_hop",
      "tcp.ack",      "tcp.sent",     "tcp.rto_fire",    "pacing.poll",
      "pacing.sink",  "pacing.rerate", "pacing.budget"};
  return kLabels[name];
}

struct SpanSum {
  uint64_t count = 0;
  uint64_t total_ticks = 0;
  uint64_t self_ticks = 0;
  uint64_t max_ticks = 0;  // longest single span
};

struct SpanTotals {
  std::array<SpanSum, kNumSpanNames> by_name{};
  uint64_t top_level_ticks = 0;  // spans with no enclosing span
};

struct SpanRecord {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t trace_id = 0;
  int32_t parent = -1;  // index of the enclosing span's record, or -1
  uint16_t name = 0;
  uint16_t thread = 0;
};

class Tracer {
 public:
  static constexpr int kMaxDepth = 16;

  void Init(uint16_t thread, uint64_t seed, size_t record_capacity) {
    thread_ = thread;
    seed_ = seed;
    records_.reserve(record_capacity);
  }
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  const SpanTotals& totals() const { return totals_; }
  const std::vector<SpanRecord>& records() const { return records_; }
  bool TopIs(SpanName name) const {
    return depth_ > 0 && stack_[depth_ - 1].name == name;
  }

  // Returns false (and records nothing) past kMaxDepth.
  bool Push(SpanName name, uint32_t trace_id) {
    if (depth_ == kMaxDepth) {
      return false;
    }
    Frame& f = stack_[depth_];
    f.name = name;
    f.child = 0;
    f.record = -1;
    if (trace_id != 0 && (Mix64(seed_ ^ trace_id) & 63) == 0 &&
        records_.size() < records_.capacity()) {
      f.record = static_cast<int32_t>(records_.size());
      records_.push_back(SpanRecord{
          0, 0, trace_id, depth_ > 0 ? stack_[depth_ - 1].record : -1, name,
          thread_});
    }
    ++depth_;
    f.start = TscClock::Raw();
    if (f.record >= 0) {
      records_[f.record].start = f.start;
    }
    return true;
  }

  void Pop() {
    uint64_t end = TscClock::Raw();
    if (depth_ == 0) {
      return;
    }
    Frame& f = stack_[--depth_];
    uint64_t dur = end - f.start;
    SpanSum& sum = totals_.by_name[f.name];
    ++sum.count;
    sum.total_ticks += dur;
    sum.self_ticks += dur > f.child ? dur - f.child : 0;
    sum.max_ticks = dur > sum.max_ticks ? dur : sum.max_ticks;
    if (depth_ > 0) {
      stack_[depth_ - 1].child += dur;
    } else {
      totals_.top_level_ticks += dur;
    }
    if (f.record >= 0) {
      records_[f.record].end = end;
    }
  }

 private:
  struct Frame {
    uint64_t start = 0;
    uint64_t child = 0;
    int32_t record = -1;
    SpanName name = kNetPoll;
  };

  bool enabled_ = false;
  int depth_ = 0;
  uint16_t thread_ = 0;
  uint64_t seed_ = 0;
  std::array<Frame, kMaxDepth> stack_{};
  SpanTotals totals_;
  std::vector<SpanRecord> records_;
};

// The calling shard thread's tracer (null off the shard threads).
inline thread_local Tracer* t_tracer = nullptr;

// RAII span: a single thread-local load and branch when tracing is off.
class Span {
 public:
  Span(SpanName name, uint32_t trace_id) {
    Tracer* t = t_tracer;
    if (t != nullptr && t->enabled() && t->Push(name, trace_id)) {
      tracer_ = t;
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Pop();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
