#include "perfbench/stack.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace perfbench {

using softtimer::PacedEmit;
using softtimer::PacedFlowConfig;
using softtimer::PacedFlowId;
using softtimer::SoftTimerFacility;

namespace {

// The shard context of the calling shard thread.
thread_local ShardCtx* t_ctx = nullptr;

// How long a push that still finds the cross-core ring full keeps retrying
// before it is lost and fails the run. Hops first go through the runtime's
// retry helper at its default policy, which gives up within about a
// millisecond; on a shared VM a preempted owner shard stalls for tens of
// milliseconds (rt.max_tick_gap_us), long enough to fill a 1024-slot ring.
// The helper's give-ups are reported (core.retry_exhausted), and only a
// stall past this patience loses a packet.
constexpr uint64_t kPushPatienceNs = 1'000'000'000;

uint32_t Saturate(uint64_t ns) {
  return ns >= kNoDelta ? kNoDelta - 1 : static_cast<uint32_t>(ns);
}

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void FireProbe(void* ctx, const SoftTimerFacility::FireInfo& info) {
  auto* shard = static_cast<ShardCtx*>(ctx);
  shard->stack->OnRtoFire(*shard, info);
}

void RetransmitHook(void* ctx, void*, uint64_t, uint32_t) {
  auto* shard = static_cast<ShardCtx*>(ctx);
  shard->stack->OnRetransmit(*shard);
}

void AbortHook(void* ctx, void*) {
  auto* shard = static_cast<ShardCtx*>(ctx);
  shard->stack->OnGiveUp(*shard);
}

}  // namespace

double MeasuredSeconds(const Params& p) {
  return p.trace ? 1.5 * p.seconds : p.seconds;
}

uint64_t ScheduleEndNs(const Params& p) {
  return static_cast<uint64_t>((kWarmupS + MeasuredSeconds(p) + kTailS) * 1e9);
}

Schedule BuildSchedule(const Params& p) {
  return p.fanout ? BuildFanoutSchedule(p.fan, p.queues, p.seed, ScheduleEndNs(p))
                  : BuildRpcSchedule(p.rpc, p.queues, p.seed, ScheduleEndNs(p));
}

// An rx queue over one slice of the schedule. Drain runs under the queue's
// claim, so the cursor needs no synchronization of its own.
class Stack::Queue : public softtimer::MultiQueuePoller::Queue {
 public:
  Queue(Stack* stack, const std::vector<uint32_t>* packets)
      : stack_(stack), packets_(packets) {}

  size_t Drain(size_t max_packets, uint64_t) override {
    if (!stack_->started()) {
      return 0;
    }
    Span span(kNetDrain, 0);
    uint64_t now = stack_->NowNs();
    const std::vector<Packet>& all = stack_->schedule().packets;
    size_t taken = 0;
    while (taken < max_packets && cursor_ < packets_->size()) {
      uint32_t i = (*packets_)[cursor_];
      if (all[i].arrival_ns > now) {
        break;
      }
      ++cursor_;
      ++taken;
      stack_->OnDrained(i, now);
    }
    return taken;
  }

 private:
  Stack* stack_;
  const std::vector<uint32_t>* packets_;
  size_t cursor_ = 0;
};

class Stack::Sink : public softtimer::PacingWheel::BatchSink {
 public:
  Sink(Stack* stack, ShardCtx* ctx) : stack_(stack), ctx_(ctx) {}
  void OnPacedBatch(const PacedEmit* batch, size_t count, uint64_t) override {
    stack_->OnPacedBatch(*ctx_, batch, count);
  }

 private:
  Stack* stack_;
  ShardCtx* ctx_;
};

Stack::Stack(const Params& params, size_t boundaries) : p_(params) {
  softtimer::ShardedRtHost::Config hc;
  ticks_per_us_ = std::max<uint64_t>(hc.measure_hz / 1'000'000, 1);
  sched_ = BuildSchedule(p_);
  size_t n = sched_.packets.size();
  handled_.assign(n, 0);
  drain_delta_.assign(n, kNoDelta);
  done_delta_.assign(n, kNoDelta);
  response_delta_.assign(n, kNoDelta);
  if (p_.fanout) {
    flow_ids_.assign(p_.fan.flows, 0);
    flow_pending_.assign(p_.fan.flows, 0);
  } else {
    conns_.assign(p_.rpc.conns, ConnState{});
  }
  if (p_.inject == "unhandled" && n > 0) {
    drop_packet_ = static_cast<uint32_t>(Mix64(p_.seed) % n);
  }

  poller_ = std::make_unique<softtimer::MultiQueuePoller>(
      softtimer::MultiQueuePoller::Config{});
  for (const auto& q : sched_.queues) {
    queues_.push_back(std::make_unique<Queue>(this, &q));
    poller_->AddQueue(queues_.back().get());
  }
  for (uint32_t s = 0; s < p_.shards; ++s) {
    auto ctx = std::make_unique<ShardCtx>();
    ctx->stack = this;
    ctx->index = s;
    ctx->snaps.resize(boundaries);
    ctx->tracer.Init(static_cast<uint16_t>(s), p_.seed,
                     p_.trace ? (1u << 18) : 0);
    shards_.push_back(std::move(ctx));
  }

  hc.num_shards = p_.shards;
  hc.queue_work.poll = [this](size_t shard, uint64_t now_tick) {
    return Poll(shard, now_tick);
  };
  hc.queue_work.next_due = [this] { return poller_->next_due_tick(); };
  hc.shard_setup = [this](size_t shard) { ShardSetup(shard); };
  hc.shard_tick = [this](size_t shard) { ShardTick(shard); };
  host_ = std::make_unique<softtimer::ShardedRtHost>(std::move(hc));
  if (p_.fanout || p_.rpc.paced) {
    pacing_ = std::make_unique<softtimer::ShardedPacingRuntime>(
        &host_->runtime(), softtimer::ShardedPacingRuntime::Config{});
    for (uint32_t s = 0; s < p_.shards; ++s) {
      sinks_.push_back(std::make_unique<Sink>(this, shards_[s].get()));
      pacing_->BindSink(s, sinks_.back().get());
      softtimer::PacingWheelHost::BatchAdapt adapt;
      adapt.achieved_quota = [this] { return poller_->achieved_quota(); };
      pacing_->shard_host(s).set_batch_adapt(std::move(adapt));
    }
  }
  host_->Start();
  while (setup_done_.load(std::memory_order_acquire) < p_.shards) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Stack::~Stack() { Stop(); }

void Stack::Stop() {
  if (host_) {
    host_->Stop();
  }
}

void Stack::StartArrivals() {
  epoch_raw_ = TscClock::Raw();
  started_.store(true, std::memory_order_release);
}

bool Stack::AllShardsSnapped(size_t count) const {
  for (const auto& ctx : shards_) {
    if (ctx->snaps_taken.load(std::memory_order_acquire) < count) {
      return false;
    }
  }
  return true;
}

void Stack::ShardSetup(size_t shard) {
  ShardCtx& ctx = *shards_[shard];
  t_ctx = &ctx;
  t_tracer = &ctx.tracer;
  ctx.token = host_->RegisterProducer();
  uint32_t n = p_.shards;
  if (!p_.fanout) {
    softtimer::RtoEngine::Config ec;
    ec.shard = shard;
    ctx.engine = std::make_unique<softtimer::RtoEngine>(&host_->runtime(),
                                                        nullptr, ec);
    ctx.engine->set_fire_probe(&FireProbe, &ctx);
    ctx.engine->set_retransmit_hook(&RetransmitHook, &ctx);
    ctx.engine->set_abort_hook(&AbortHook, &ctx);
    for (uint32_t c = static_cast<uint32_t>(shard); c < p_.rpc.conns; c += n) {
      ConnState& cs = conns_[c];
      cs.rto_id = ctx.engine->OpenConnection(&cs);
      if (p_.rpc.paced) {
        PacedFlowConfig fc;
        fc.target_interval_ticks = sched_.pace_us[c] * ticks_per_us_;
        fc.min_burst_interval_ticks = fc.target_interval_ticks;
        fc.packet_budget = p_.rpc.segments;
        fc.user_data = c;
        cs.flow_id = pacing_->AddFlowOnShard(shard, fc).value;
      }
    }
  } else {
    for (uint32_t f = static_cast<uint32_t>(shard); f < p_.fan.flows; f += n) {
      PacedFlowConfig fc;
      fc.target_interval_ticks = sched_.interval_us[f] * ticks_per_us_;
      fc.min_burst_interval_ticks = fc.target_interval_ticks;
      fc.user_data = f;
      PacedFlowId id = pacing_->AddFlowOnShard(shard, fc);
      flow_ids_[f] = id.value;
      pacing_->ActivateOnShard(id, sched_.phase_us[f] * ticks_per_us_);
    }
  }
  setup_done_.fetch_add(1, std::memory_order_release);
}

void Stack::ShardTick(size_t shard) {
  ShardCtx& ctx = *shards_[shard];
  if (started()) {
    uint64_t now = NowNs();
    if (ctx.last_tick_ns != 0 && now - ctx.last_tick_ns > ctx.max_tick_gap_ns) {
      ctx.max_tick_gap_ns = now - ctx.last_tick_ns;
    }
    ctx.last_tick_ns = now;
  }
  if (pacing_) {
    Span span(kPacingPoll, 0);
    pacing_->PollShard(shard);
  }
  if (ctx.tracer.enabled()) {
    uint64_t pending = host_->runtime().shard_facility(shard).pending_count();
    ctx.pending_peak = std::max(ctx.pending_peak, pending);
  }
  size_t target = boundary_.load(std::memory_order_acquire);
  if (ctx.next_snap < target) {
    while (ctx.next_snap < target && ctx.next_snap < ctx.snaps.size()) {
      TakeSnap(ctx, ctx.snaps[ctx.next_snap]);
      ++ctx.next_snap;
      if (p_.trace && ctx.next_snap == static_cast<size_t>(kSubwindows) + 1) {
        ctx.tracer.set_enabled(true);
      }
    }
    ctx.snaps_taken.store(ctx.next_snap, std::memory_order_release);
  }
  if (!p_.inject.empty() && !ctx.injected && started()) {
    InjectOnShard(ctx);
  }
}

// Seeded violations for the verdict self-test, made on the shard threads so
// each reaches its check through the same observation a real one would.
void Stack::InjectOnShard(ShardCtx& ctx) {
  if (p_.inject == "retry_exhausted") {
    InjectRingStall(ctx);
    return;
  }
  if (ctx.index != 0) {
    return;
  }
  ctx.injected = true;
  if (p_.inject == "early_fire") {
    // One dispatch that fired before its due tick, fed through the probe
    // path of the engine's real fires.
    SoftTimerFacility::FireInfo info{};
    info.scheduled_tick = 1000 + Mix64(p_.seed) % 1000;
    info.delta_ticks = 200;
    info.fired_tick = info.scheduled_tick + info.delta_ticks - 1;
    OnRtoFire(ctx, info);
    if (ctx.tracer.TopIs(kTcpRtoFire)) {
      ctx.tracer.Pop();
    }
  } else if (p_.inject == "unconserved") {
    // A connection the live-timer count does not know about: its segment's
    // RTO is scheduled (and re-armed on every retransmission) in the
    // engine's stats but never cancelled, fired for good or counted live.
    uint64_t id = ctx.engine->OpenConnection(nullptr);
    ctx.engine->OnSegmentSent(id, 1 + Mix64(p_.seed) % 1000);
  }
}

// A consumer stall longer than the push patience: shard 1 stops draining
// its command rings while shard 0 pushes no-op events at it along the hop
// path until one is lost.
void Stack::InjectRingStall(ShardCtx& ctx) {
  if (ctx.index == 1) {
    ctx.injected = true;
    stall_.store(1, std::memory_order_release);
    uint64_t give_up = NowNs() + 3 * kPushPatienceNs;
    while (stall_.load(std::memory_order_acquire) != 2 && NowNs() < give_up) {
      std::this_thread::yield();
    }
  } else if (ctx.index == 0 && stall_.load(std::memory_order_acquire) == 1) {
    ctx.injected = true;
    SoftTimerFacility::Handler noop = [](const SoftTimerFacility::FireInfo&) {};
    for (int i = 0; i < (1 << 16) && ctx.pushes_lost == 0; ++i) {
      PushHop(ctx, 1, noop);
    }
    stall_.store(2, std::memory_order_release);
  }
}

size_t Stack::Poll(size_t shard, uint64_t now_tick) {
  ShardCtx& ctx = *shards_[shard];
  size_t n;
  {
    Span span(kNetPoll, 0);
    n = poller_->PollOnce(static_cast<uint32_t>(shard), now_tick);
  }
  ++ctx.polls;
  if (n > 0) {
    ++ctx.useful_polls;
    ctx.poll_packets += n;
  }
  return n;
}

void Stack::TakeSnap(ShardCtx& ctx, ShardSnap& snap) {
  size_t s = ctx.index;
  snap.ns = NowNs();
  snap.thread_cpu_ns = ThreadCpuNs();
  snap.tx = ctx.tx;
  snap.first_tx = ctx.first_tx;
  snap.polls = ctx.polls;
  snap.useful_polls = ctx.useful_polls;
  snap.poll_packets = ctx.poll_packets;
  snap.sink_packets = ctx.sink_packets;
  snap.pending_peak = ctx.pending_peak;
  ctx.pending_peak = 0;
  const SoftTimerFacility::Stats& fs = host_->runtime().shard_facility(s).stats();
  snap.checks = fs.checks;
  snap.dispatches = fs.dispatches;
  snap.backup_dispatches = fs.dispatches_by_source[static_cast<size_t>(
      softtimer::TriggerSource::kBackupIntr)];
  snap.slab_capacity = fs.slab_capacity;
  snap.ring_full_rejects = ctx.token.ring_full_rejects();
  snap.retry_exhausted = ctx.token.retry_exhausted();
  snap.loop = host_->shard_loop_stats(s);
  if (ctx.engine) {
    snap.engine = ctx.engine->stats();
  }
  if (pacing_) {
    snap.wheel = pacing_->shard_wheel(s).stats();
    snap.phost = pacing_->shard_host(s).stats();
    snap.max_batch = pacing_->shard_wheel(s).max_batch();
  }
  snap.core = poller_->core_stats(static_cast<uint32_t>(s));
  snap.spans = ctx.tracer.totals();
  snap.host_lateness = host_->shard_lateness_raw(s);
  snap.rto_lateness = ctx.rto_lateness;
  snap.queue_wait_ns = ctx.queue_wait_ns;
  snap.xcore_wait_ns = ctx.xcore_wait_ns;
}

void Stack::OnDrained(uint32_t packet, uint64_t now_ns) {
  ShardCtx& ctx = *t_ctx;
  uint64_t wait = now_ns - sched_.packets[packet].arrival_ns;
  drain_delta_[packet] = Saturate(wait);
  ctx.queue_wait_ns.Record(wait);
  if (packet == drop_packet_) {
    return;  // seeded "unhandled" violation
  }
  uint32_t owner = sched_.packets[packet].conn % p_.shards;
  if (owner == ctx.index) {
    Handle(ctx, packet, /*forwarded=*/false);
  } else {
    Forward(ctx, packet, owner);
  }
}

void Stack::Forward(ShardCtx& ctx, uint32_t packet, uint32_t owner) {
  Span span(kXcorePush, packet);
  // The hop marks the packet handled on the owner (and, for a control
  // packet, arms its response measurement). Capture: 16 bytes, inside
  // std::function's inline buffer, so the push allocates nothing.
  uint64_t index = packet;
  SoftTimerFacility::Handler hop = [this, index](const SoftTimerFacility::FireInfo&) {
    OnHop(static_cast<uint32_t>(index));
  };
  bool pushed = PushHop(ctx, owner, hop);
  const Packet& pk = sched_.packets[packet];
  if (!pushed || pk.kind() != kControl) {
    return;
  }
  // The re-rate itself travels as the pacing runtime's own control command,
  // queued behind the hop: commands from one producer apply in FIFO order,
  // so the response clock is armed before the re-rate's first emission.
  PacedFlowId flow{flow_ids_[pk.conn]};
  uint64_t interval = pk.payload() * ticks_per_us_;
  // The pacing runtime's cross-core commands have no retry helper.
  auto rerate = [&] { return pacing_->ReRateCrossCore(ctx.token, flow, interval, interval); };
  if (!rerate()) {
    RetryPatiently(ctx, rerate);
  }
}

bool Stack::PushHop(ShardCtx& ctx, uint32_t owner, const SoftTimerFacility::Handler& hop) {
  // The runtime's retry helper at its default policy; its give-ups count in
  // the token's retry_exhausted. It destroys the handler when it gives up,
  // so the patient retry pushes a copy.
  if (host_->runtime().ScheduleCrossCoreWithRetry(ctx.token, owner, 0, hop).valid()) {
    return true;
  }
  SoftTimerFacility::Handler again = hop;
  return RetryPatiently(ctx, [&] {
    return host_->runtime().TryScheduleCrossCore(ctx.token, owner, 0, again).valid();
  });
}

template <typename Push>
bool Stack::RetryPatiently(ShardCtx& ctx, Push push) {
  uint64_t give_up = NowNs() + kPushPatienceNs;
  do {
    // Keep consuming this shard's own command rings while waiting: the peer
    // may be blocked pushing to us, and two shards waiting on each other's
    // full rings would otherwise both stall until the patience runs out.
    host_->runtime().DrainRemote(ctx.index);
    std::this_thread::yield();
    if (push()) {
      return true;
    }
  } while (NowNs() < give_up);
  ++ctx.pushes_lost;
  return false;
}

void Stack::OnHop(uint32_t packet) {
  ShardCtx& ctx = *t_ctx;
  Span span(kXcoreHop, packet);
  uint64_t drained = sched_.packets[packet].arrival_ns + drain_delta_[packet];
  uint64_t now = NowNs();
  ctx.xcore_wait_ns.Record(now > drained ? now - drained : 0);
  Handle(ctx, packet, /*forwarded=*/true);
}

void Stack::Handle(ShardCtx& ctx, uint32_t packet, bool forwarded) {
  const Packet& pk = sched_.packets[packet];
  switch (pk.kind()) {
    case kRequest: {
      ConnState& cs = conns_[pk.conn];
      if (cs.sent != pk.payload() * p_.rpc.segments) {
        // The previous response is still being paced out (its shard ran
        // late); this one queues behind it on the same flow.
        ++ctx.overlaps;
      }
      cs.request[pk.payload() & 1] = packet;
      if (p_.rpc.paced) {
        Span span(kPacingBudget, packet);
        PacedFlowId id{cs.flow_id};
        bool ok = cs.started
                      ? pacing_->AddBudgetOnShard(id, p_.rpc.segments)
                      : pacing_->ActivateOnShard(id, 0);
        cs.started = true;
        if (!ok) {
          ++ctx.op_failures;
        }
      } else {
        for (uint32_t j = 0; j < p_.rpc.segments; ++j) {
          SendSegment(ctx, pk.conn);
        }
      }
      break;
    }
    case kAck: {
      ConnState& cs = conns_[pk.conn];
      uint32_t ack = pk.payload();
      if (ack > cs.sent) {
        // The ACK overtook a segment the pacer has not sent yet (pacing ran
        // later than one RTT): apply it once that segment goes out.
        cs.pending_ack = std::max(cs.pending_ack, ack);
        ++ctx.acks_early;
        ack = cs.sent;
      }
      Span span(kTcpAck, packet);
      ctx.engine->OnCumulativeAck(cs.rto_id, ack);
      break;
    }
    case kControl: {
      if (!forwarded) {
        Span span(kPacingRerate, packet);
        uint64_t interval = pk.payload() * ticks_per_us_;
        if (!pacing_->ReRateOnShard(PacedFlowId{flow_ids_[pk.conn]}, interval,
                                    interval)) {
          ++ctx.op_failures;
        }
      }
      flow_pending_[pk.conn] = packet + 1;
      break;
    }
  }
  MarkDone(packet);
}

void Stack::SendSegment(ShardCtx& ctx, uint32_t conn) {
  ConnState& cs = conns_[conn];
  uint32_t seq = ++cs.sent;
  // Segment seq belongs to response (seq - 1) / segments.
  uint32_t request = cs.request[((seq - 1) / p_.rpc.segments) & 1];
  bool ok;
  {
    Span span(kTcpSent, request);
    ok = ctx.engine->OnSegmentSent(cs.rto_id, seq);
  }
  if (!ok) {
    ++ctx.send_rejects;
  }
  ++ctx.tx;
  ++ctx.first_tx;
  if (seq % p_.rpc.segments == 0) {
    RecordResponse(request);
  }
  if (cs.pending_ack != 0 && seq >= cs.pending_ack) {
    Span span(kTcpAck, request);
    ctx.engine->OnCumulativeAck(cs.rto_id, cs.pending_ack);
    cs.pending_ack = 0;
  }
}

void Stack::OnPacedBatch(ShardCtx& ctx, const PacedEmit* batch, size_t count) {
  Span span(kPacingSink, 0);
  for (size_t e = 0; e < count; ++e) {
    const PacedEmit& emit = batch[e];
    auto target = static_cast<uint32_t>(emit.user_data);
    ctx.sink_packets += emit.packets;
    if (p_.fanout) {
      ctx.tx += emit.packets;
      ctx.first_tx += emit.packets;
      if (flow_pending_[target] != 0) {
        RecordResponse(flow_pending_[target] - 1);
        flow_pending_[target] = 0;
      }
    } else {
      for (uint32_t k = 0; k < emit.packets; ++k) {
        SendSegment(ctx, target);
      }
    }
  }
}

void Stack::OnRtoFire(ShardCtx& ctx, const SoftTimerFacility::FireInfo& info) {
  if (info.fired_tick < info.scheduled_tick + info.delta_ticks) {
    ++ctx.early_fires;
  }
  ctx.rto_lateness.Record(info.lateness_ticks());
  if (ctx.tracer.enabled()) {
    // The span runs from the fire probe to the retransmit hook (both inside
    // the engine's dispatch); a give-up closes it from the abort hook.
    if (ctx.tracer.TopIs(kTcpRtoFire)) {
      ctx.tracer.Pop();
    }
    ctx.tracer.Push(kTcpRtoFire, 0);
  }
}

void Stack::OnRetransmit(ShardCtx& ctx) {
  ++ctx.tx;
  if (ctx.tracer.TopIs(kTcpRtoFire)) {
    ctx.tracer.Pop();
  }
}

void Stack::OnGiveUp(ShardCtx& ctx) {
  if (ctx.tracer.TopIs(kTcpRtoFire)) {
    ctx.tracer.Pop();
  }
}

void Stack::MarkDone(uint32_t packet) {
  done_delta_[packet] = Saturate(NowNs() - sched_.packets[packet].arrival_ns);
  ++handled_[packet];
}

void Stack::RecordResponse(uint32_t request_packet) {
  response_delta_[request_packet] =
      Saturate(NowNs() - sched_.packets[request_packet].arrival_ns);
}

uint64_t Stack::live_rto_timers() const {
  uint64_t live = 0;
  for (size_t c = 0; c < conns_.size(); ++c) {
    live += shards_[c % p_.shards]->engine->in_flight(conns_[c].rto_id);
  }
  return live;
}

}  // namespace perfbench
