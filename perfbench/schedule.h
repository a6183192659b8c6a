// Seeded open-loop arrival schedule for the end-to-end benchmark.
//
// The whole rx packet stream of a run is generated up front from the
// workload shape and the seed alone: request arrivals are a Poisson process,
// ACK and rate-feedback arrivals are placed by the generator's own model of
// the client (RTT, loss, retransmission timeout), and nothing here reads the
// state of the program under test. Arrivals therefore never wait on a
// generator thread and never adapt to how fast the stack drains them.
//
// The generator uses its own integer RNG and no <random> distributions, so
// the same seed yields the same schedule (and digest) on every libstdc++.

#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// splitmix64: a full-period 64-bit generator whose output depends only on
// the seed and the draw count.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Exp(double mean) { return -std::log1p(-Uniform()) * mean; }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double LogUniform(double lo, double hi) {
    return lo * std::exp(Uniform() * std::log(hi / lo));
  }

 private:
  uint64_t state_;
};

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

enum PacketKind : uint32_t {
  kRequest = 0,  // payload: the connection's response index r
  kAck = 1,      // payload: cumulative ACK, in segments
  kControl = 2,  // payload: the flow's new pacing interval, microseconds
};

constexpr uint32_t kPayloadBits = 30;
constexpr uint32_t kPayloadMask = (1u << kPayloadBits) - 1;

struct Packet {
  uint64_t arrival_ns;  // scheduled arrival, relative to the run's epoch
  uint32_t conn;        // connection (rpc) or flow (fanout) index
  uint32_t word;        // kind << 30 | payload
  PacketKind kind() const { return static_cast<PacketKind>(word >> kPayloadBits); }
  uint32_t payload() const { return word & kPayloadMask; }
};

// Request/response traffic: each request is answered by `segments` segments
// (paced at a per-connection interval, or sent at once) and acknowledged by
// `acks` cumulative ACKs, the first ones partial.
struct RpcShape {
  uint32_t conns = 0;
  double requests_per_s = 0;
  uint32_t segments = 4;
  uint32_t acks = 2;
  bool paced = false;
  double pace_min_us = 0;  // per-connection interval, uniform in [min, max]
  double pace_max_us = 0;
  double rtt_us = 0;
  double rtt_jitter = 0.1;  // RTT drawn uniform in rtt * (1 +- jitter)
  double loss = 0;          // probability that one ACK is dropped
  // Client model of the server's retransmission timeout, in microseconds:
  // the successor of a dropped final ACK arrives one RTO + RTT later.
  double rto_initial_us = 0;
  double rto_min_us = 0;
  double rto_max_us = 0;
};

// Rate-feedback traffic for `flows` paced flows: each control packet names
// one flow and carries its new interval.
struct FanoutShape {
  uint32_t flows = 0;
  double feedback_per_s = 0;
  double interval_min_us = 0;  // log-uniform in [min, max]
  double interval_max_us = 0;
};

struct Schedule {
  std::vector<Packet> packets;  // sorted by arrival
  // Per rx queue, indices into `packets` in arrival order (RSS-style: the
  // queue is a seeded hash of the connection or flow).
  std::vector<std::vector<uint32_t>> queues;
  // rpc: per-connection pacing interval (us; 0 when unpaced).
  std::vector<uint32_t> pace_us;
  // fanout: per-flow initial interval and first-emission offset (us).
  std::vector<uint32_t> interval_us;
  std::vector<uint32_t> phase_us;
  uint64_t requests = 0;
  uint64_t acks_dropped = 0;
  uint64_t requests_skipped = 0;  // every drawn connection was still busy

  uint64_t Digest() const;
};

// Builds the packets that arrive in [0, end_ns].
Schedule BuildRpcSchedule(const RpcShape& shape, uint32_t queues, uint64_t seed,
                          uint64_t end_ns);
Schedule BuildFanoutSchedule(const FanoutShape& shape, uint32_t queues,
                             uint64_t seed, uint64_t end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
