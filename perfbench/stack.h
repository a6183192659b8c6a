// The measured system: the soft-timer network stack of src/ driven by a
// precomputed arrival schedule.
//
// Server model (every workload): connection or flow c is owned by shard
// c mod N, and its RtoEngine record and pacing flow are created on that
// shard's thread. Rx queues are MultiQueuePoller::Queue adapters over the
// schedule; whichever shard drains a packet hands it to the owner, locally
// or through ScheduleCrossCore (a 16-byte, allocation-free capture). A
// request starts a response: 4 segments paced by the owner's pacing wheel,
// or sent at once. Every segment arms its RTO through OnSegmentSent; ACKs
// call OnCumulativeAck. A rate-feedback packet re-rates its flow, through
// ReRateCrossCore when it was drained on another shard.
//
// Every library object uses its default configuration; only the workload
// shape (shards, queues, connections, flows, rates, RTT, loss) is set here.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/schedule.h"
#include "perfbench/trace.h"
#include "src/net/multi_queue_poller.h"
#include "src/pacing/sharded_pacing.h"
#include "src/rt/sharded_rt_host.h"
#include "src/stats/latency_histogram.h"
#include "src/tcp/rto_engine.h"

namespace perfbench {

// Run shape, the same for every workload: the stack is set up kSetups times,
// half before the measured span and half after it (setup_s is their median);
// arrivals warm it up for kWarmupS, --seconds is split into kSubwindows
// measured windows, arrivals continue kTailS past the last window, and the
// verdicts run kGraceS after that.
constexpr int kSetups = 16;
constexpr double kWarmupS = 1.5;
constexpr int kSubwindows = 40;
constexpr double kTailS = 0.02;
constexpr double kGraceS = 0.3;

struct Params {
  std::string workload;
  bool fanout = false;  // rate-feedback model instead of request/response
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint32_t shards = 1;
  uint32_t queues = 1;
  RpcShape rpc;
  FanoutShape fan;
  std::string inject;    // seeded violation for the verdict self-test
  std::string trace_out;  // sampled span records (TSV); empty = none
};

// The measured span: --seconds untraced, plus --seconds / 2 traced with
// --trace 1. Arrivals span [0, ScheduleEndNs): warmup, that span, a tail.
double MeasuredSeconds(const Params& p);
uint64_t ScheduleEndNs(const Params& p);
Schedule BuildSchedule(const Params& p);

// One window boundary as seen by one shard thread.
struct ShardSnap {
  uint64_t ns = 0;
  uint64_t thread_cpu_ns = 0;
  uint64_t tx = 0;        // segments or packets emitted (incl. retransmits)
  uint64_t first_tx = 0;  // first transmissions (rate accuracy)
  uint64_t polls = 0;     // PollOnce calls
  uint64_t useful_polls = 0;
  uint64_t poll_packets = 0;
  uint64_t sink_packets = 0;
  uint64_t pending_peak = 0;  // facility pending events, max since last snap
  uint64_t checks = 0;
  uint64_t dispatches = 0;
  uint64_t backup_dispatches = 0;
  uint64_t slab_capacity = 0;
  uint64_t ring_full_rejects = 0;
  uint64_t retry_exhausted = 0;  // the runtime retry helper's give-ups
  uint64_t max_batch = 0;
  softtimer::ShardedRtHost::ShardLoopStats loop;
  softtimer::RtoEngine::Stats engine;
  softtimer::PacingWheel::Stats wheel;
  softtimer::PacingWheelHost::Stats phost;
  softtimer::MultiQueuePoller::CoreStats core;
  SpanTotals spans;
  softtimer::LatencyHistogram host_lateness;  // ticks, all dispatches
  softtimer::LatencyHistogram rto_lateness;   // ticks, RTO fires
  softtimer::LatencyHistogram queue_wait_ns;  // arrival -> drained
  softtimer::LatencyHistogram xcore_wait_ns;  // drained -> hop handler
};

// The main thread's view of one boundary.
struct MainSnap {
  uint64_t ns = 0;
  uint64_t process_cpu_ns = 0;
  uint64_t allocs = 0;
  uint64_t steal_ticks = 0;  // host-wide, USER_HZ ticks (/proc/stat)
};

// Per-connection server state (rpc), touched only by the owning shard.
struct ConnState {
  uint64_t rto_id = 0;
  uint64_t flow_id = 0;
  // Packet index of the request for response r, at [r & 1]: a request that
  // arrives while the previous response is still being paced keeps both.
  uint32_t request[2] = {0, 0};
  uint32_t sent = 0;         // highest segment sent (seq, in segments)
  uint32_t pending_ack = 0;  // ACK that arrived before its segment was sent
  bool started = false;      // pacing flow activated once
};

class Stack;

struct alignas(64) ShardCtx {
  Stack* stack = nullptr;
  size_t index = 0;
  softtimer::ShardedSoftTimerRuntime::ProducerToken token;
  std::unique_ptr<softtimer::RtoEngine> engine;
  Tracer tracer;
  uint64_t tx = 0;
  uint64_t first_tx = 0;
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
  uint64_t poll_packets = 0;
  uint64_t sink_packets = 0;
  uint64_t pending_peak = 0;
  uint64_t last_tick_ns = 0;
  uint64_t max_tick_gap_ns = 0;  // longest stretch between two loop ticks
  // Verdict counters.
  uint64_t early_fires = 0;
  uint64_t op_failures = 0;      // a re-rate or flow start refused
  uint64_t pushes_lost = 0;      // a cross-core push ran out of patience
  // Informational: a request found the previous response still being paced;
  // OnSegmentSent found the window full; an ACK overtook its segment.
  uint64_t overlaps = 0;
  uint64_t send_rejects = 0;
  uint64_t acks_early = 0;
  softtimer::LatencyHistogram rto_lateness;
  softtimer::LatencyHistogram queue_wait_ns;
  softtimer::LatencyHistogram xcore_wait_ns;
  std::vector<ShardSnap> snaps;
  size_t next_snap = 0;
  std::atomic<size_t> snaps_taken{0};
  bool injected = false;
};

class Stack {
 public:
  // Builds the schedule, opens every connection and flow on its owner shard
  // and starts the host; returns once every shard finished its setup.
  Stack(const Params& params, size_t boundaries);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Starts the arrival clock: packet arrival_ns counts from now.
  void StartArrivals();
  uint64_t NowNs() const {
    return TscClock::ToNs(TscClock::Raw() - epoch_raw_);
  }
  // Releases boundary snapshots [0, count) to the shard threads.
  void PublishBoundary(size_t count) {
    boundary_.store(count, std::memory_order_release);
  }
  bool AllShardsSnapped(size_t count) const;
  void Stop();

  const Params& params() const { return p_; }
  const Schedule& schedule() const { return sched_; }
  const std::vector<std::unique_ptr<ShardCtx>>& shards() const { return shards_; }
  const std::vector<uint32_t>& done_delta() const { return done_delta_; }
  const std::vector<uint32_t>& response_delta() const { return response_delta_; }
  const std::vector<uint8_t>& handled() const { return handled_; }
  uint64_t live_rto_timers() const;
  uint64_t ticks_per_us() const { return ticks_per_us_; }

  // Called by the queue adapters and handlers on shard threads.
  void OnDrained(uint32_t packet, uint64_t now_ns);
  void OnHop(uint32_t packet);
  void OnPacedBatch(ShardCtx& ctx, const softtimer::PacedEmit* batch,
                    size_t count);
  void OnRtoFire(ShardCtx& ctx, const softtimer::SoftTimerFacility::FireInfo& info);
  void OnRetransmit(ShardCtx& ctx);
  void OnGiveUp(ShardCtx& ctx);
  bool started() const { return started_.load(std::memory_order_acquire); }

 private:
  class Queue;
  class Sink;

  void ShardSetup(size_t shard);
  void ShardTick(size_t shard);
  size_t Poll(size_t shard, uint64_t now_tick);
  void TakeSnap(ShardCtx& ctx, ShardSnap& snap);
  void Handle(ShardCtx& ctx, uint32_t packet, bool forwarded);
  void Forward(ShardCtx& ctx, uint32_t packet, uint32_t owner);
  // Pushes a hop through the runtime's retry helper, then retries a copy
  // patiently if the helper gave up; false when the hop was lost.
  bool PushHop(ShardCtx& ctx, uint32_t owner,
               const softtimer::SoftTimerFacility::Handler& hop);
  // Retries `push` (a cross-core push that leaves its argument intact when
  // the ring is full) up to the patience bound; counts a loss.
  template <typename Push>
  bool RetryPatiently(ShardCtx& ctx, Push push);
  void SendSegment(ShardCtx& ctx, uint32_t conn);
  void MarkDone(uint32_t packet);
  void RecordResponse(uint32_t request_packet);
  void InjectOnShard(ShardCtx& ctx);
  void InjectRingStall(ShardCtx& ctx);

  Params p_;
  Schedule sched_;
  uint64_t ticks_per_us_ = 1;
  uint64_t epoch_raw_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<size_t> boundary_{0};
  std::atomic<size_t> setup_done_{0};
  uint32_t drop_packet_ = UINT32_MAX;  // seeded "unhandled" violation
  std::atomic<int> stall_{0};          // seeded ring stall: 1 held, 2 released

  // Per packet, written by the owning shard: handled count, and (saturated
  // ns deltas from the scheduled arrival) drain, done and response times.
  std::vector<uint8_t> handled_;
  std::vector<uint32_t> drain_delta_;
  std::vector<uint32_t> done_delta_;
  std::vector<uint32_t> response_delta_;
  std::vector<ConnState> conns_;      // rpc
  std::vector<uint64_t> flow_ids_;    // fanout
  std::vector<uint32_t> flow_pending_;  // fanout: control packet + 1

  std::unique_ptr<softtimer::MultiQueuePoller> poller_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::unique_ptr<ShardCtx>> shards_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::unique_ptr<softtimer::ShardedRtHost> host_;
  std::unique_ptr<softtimer::ShardedPacingRuntime> pacing_;
};

constexpr uint32_t kNoDelta = UINT32_MAX;

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
