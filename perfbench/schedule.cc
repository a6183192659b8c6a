#include "perfbench/schedule.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>

namespace perfbench {
namespace {

// A connection that received a request is left alone for this long after
// its exchange is expected to finish, so a new request finds the previous
// response still being paced only when its shard ran that much behind.
constexpr double kBusyGuardNs = 100e6;
// Successive ACKs of one response arrive at least this far apart.
constexpr double kMinAckGapNs = 20e3;
// A flow gets at most one rate-feedback packet per this span, so the
// response to one re-rate is never overtaken by the next.
constexpr double kFeedbackGuardNs = 50e6;
// Redraws before a request or feedback packet is skipped because every
// drawn target was busy.
constexpr int kMaxDraws = 64;

void Push(Schedule* s, double t_ns, uint64_t end_ns, uint32_t conn,
          PacketKind kind, uint64_t payload) {
  if (t_ns < 0 || t_ns > static_cast<double>(end_ns)) {
    return;
  }
  s->packets.push_back(Packet{static_cast<uint64_t>(t_ns), conn,
                              (static_cast<uint32_t>(kind) << kPayloadBits) |
                                  static_cast<uint32_t>(payload & kPayloadMask)});
}

// Reserves room for about `expected` packets, so the schedule is written
// once instead of being copied on every doubling.
void Reserve(Schedule* s, double expected) {
  s->packets.reserve(static_cast<size_t>(expected * 1.02) + 1024);
}

// Steers the packets, generated in arrival order, onto the rx queues.
void Finish(Schedule* s, uint32_t queues, uint64_t seed) {
  assert(std::is_sorted(s->packets.begin(), s->packets.end(),
                        [](const Packet& a, const Packet& b) {
                          return a.arrival_ns < b.arrival_ns;
                        }));
  s->queues.assign(queues, {});
  for (auto& q : s->queues) {
    q.reserve(s->packets.size() / queues * 21 / 20 + 64);
  }
  for (uint32_t i = 0; i < s->packets.size(); ++i) {
    uint64_t q = Mix64(seed ^ 0x5255535348ull ^ s->packets[i].conn) % queues;
    s->queues[q].push_back(i);
  }
}

// An ACK generated ahead of the request clock, held until every earlier
// arrival has been written; `seq` keeps ties in generation order.
struct LaterAck {
  double t_ns;
  uint64_t seq;
  uint32_t conn;
  uint64_t payload;
  bool operator>(const LaterAck& o) const {
    return t_ns != o.t_ns ? t_ns > o.t_ns : seq > o.seq;
  }
};

struct ConnModel {
  double busy_until = -1;
  uint32_t responses = 0;
  bool have_sample = false;
  double srtt = 0;
  double rttvar = 0;
};

// RFC 6298 estimator, mirroring the server's, so the successor of a lost
// ACK lands one modelled RTO after the loss.
double ModelRto(const RpcShape& shape, const ConnModel& m) {
  if (!m.have_sample) {
    return shape.rto_initial_us;
  }
  double rto = m.srtt + std::max(1.0, 4 * m.rttvar);
  return std::clamp(rto, shape.rto_min_us, shape.rto_max_us);
}

void TakeSample(ConnModel* m, double sample_us) {
  if (!m->have_sample) {
    m->srtt = sample_us;
    m->rttvar = sample_us / 2;
    m->have_sample = true;
    return;
  }
  m->rttvar = (3 * m->rttvar + std::abs(m->srtt - sample_us)) / 4;
  m->srtt = (7 * m->srtt + sample_us) / 8;
}

}  // namespace

Schedule BuildRpcSchedule(const RpcShape& shape, uint32_t queues, uint64_t seed,
                          uint64_t end_ns) {
  Schedule s;
  Rng rng(Mix64(seed ^ 0x727063ull));
  s.pace_us.resize(shape.conns, 0);
  if (shape.paced) {
    for (auto& p : s.pace_us) {
      p = static_cast<uint32_t>(
          shape.pace_min_us + rng.Uniform() * (shape.pace_max_us - shape.pace_min_us));
    }
  }
  std::vector<ConnModel> model(shape.conns);
  std::vector<double> seg_ns(shape.segments);
  double mean_gap_ns = 1e9 / shape.requests_per_s;
  Reserve(&s, static_cast<double>(end_ns) / mean_gap_ns * (1 + shape.acks));
  // Requests are drawn in time order; their ACKs wait here until the
  // request clock passes them, so packets are written in arrival order.
  std::priority_queue<LaterAck, std::vector<LaterAck>, std::greater<LaterAck>> acks;
  uint64_t seq = 0;
  auto release_until = [&](double t) {
    while (!acks.empty() && acks.top().t_ns <= t) {
      const LaterAck& a = acks.top();
      Push(&s, a.t_ns, end_ns, a.conn, kAck, a.payload);
      acks.pop();
    }
  };
  for (double t = rng.Exp(mean_gap_ns); t <= static_cast<double>(end_ns);
       t += rng.Exp(mean_gap_ns)) {
    release_until(t);
    uint32_t c = 0;
    bool found = false;
    for (int draw = 0; draw < kMaxDraws && !found; ++draw) {
      c = static_cast<uint32_t>(rng.Below(shape.conns));
      found = model[c].busy_until < t;
    }
    if (!found) {
      ++s.requests_skipped;
      continue;
    }
    ConnModel& m = model[c];
    uint32_t r = m.responses++;
    uint64_t base = static_cast<uint64_t>(r) * shape.segments;
    Push(&s, t, end_ns, c, kRequest, r);
    ++s.requests;
    for (uint32_t j = 0; j < shape.segments; ++j) {
      seg_ns[j] = t + j * s.pace_us[c] * 1e3;
    }
    double last_ack = t;
    for (uint32_t a = 1; a <= shape.acks; ++a) {
      uint32_t k = shape.segments * a / shape.acks;
      double rtt_us = shape.rtt_us * (1 + shape.rtt_jitter * (2 * rng.Uniform() - 1));
      double at = std::max(seg_ns[k - 1] + rtt_us * 1e3, last_ack + kMinAckGapNs);
      last_ack = at;
      bool dropped = rng.Uniform() < shape.loss;
      if (!dropped) {
        acks.push(LaterAck{at, seq++, c, base + k});
        TakeSample(&m, rtt_us);
        continue;
      }
      ++s.acks_dropped;
      if (a == shape.acks) {
        // The final ACK was lost: the server's RTO fires and the client's
        // cumulative successor arrives one RTO + RTT after the loss.
        double succ = at + (ModelRto(shape, m) + shape.rtt_us) * 1e3;
        acks.push(LaterAck{succ, seq++, c, base + shape.segments});
        last_ack = succ;
      }
    }
    m.busy_until = last_ack + kBusyGuardNs;
  }
  release_until(static_cast<double>(end_ns));
  Finish(&s, queues, seed);
  return s;
}

Schedule BuildFanoutSchedule(const FanoutShape& shape, uint32_t queues,
                             uint64_t seed, uint64_t end_ns) {
  Schedule s;
  Rng rng(Mix64(seed ^ 0x66616e6f7574ull));
  s.interval_us.resize(shape.flows);
  s.phase_us.resize(shape.flows);
  for (uint32_t f = 0; f < shape.flows; ++f) {
    double iv = rng.LogUniform(shape.interval_min_us, shape.interval_max_us);
    s.interval_us[f] = static_cast<uint32_t>(iv);
    s.phase_us[f] = static_cast<uint32_t>(rng.Uniform() * iv);
  }
  std::vector<double> last_feedback(shape.flows, -kFeedbackGuardNs);
  double mean_gap_ns = 1e9 / shape.feedback_per_s;
  Reserve(&s, static_cast<double>(end_ns) / mean_gap_ns);
  for (double t = rng.Exp(mean_gap_ns); t <= static_cast<double>(end_ns);
       t += rng.Exp(mean_gap_ns)) {
    uint32_t f = 0;
    bool found = false;
    for (int draw = 0; draw < kMaxDraws && !found; ++draw) {
      f = static_cast<uint32_t>(rng.Below(shape.flows));
      found = last_feedback[f] + kFeedbackGuardNs <= t;
    }
    if (!found) {
      ++s.requests_skipped;
      continue;
    }
    last_feedback[f] = t;
    double iv = rng.LogUniform(shape.interval_min_us, shape.interval_max_us);
    Push(&s, t, end_ns, f, kControl, static_cast<uint64_t>(iv));
    ++s.requests;
  }
  Finish(&s, queues, seed);
  return s;
}

uint64_t Schedule::Digest() const {
  // FNV-1a over every field the run consumes.
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Packet& p : packets) {
    mix(p.arrival_ns);
    mix((static_cast<uint64_t>(p.conn) << 32) | p.word);
  }
  for (const auto& q : queues) {
    mix(q.size());
    for (uint32_t i : q) {
      mix(i);
    }
  }
  for (uint32_t v : pace_us) mix(v);
  for (uint32_t v : interval_us) mix(v);
  for (uint32_t v : phase_us) mix(v);
  return h;
}

}  // namespace perfbench
