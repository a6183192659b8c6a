// Pacing-wheel scale benchmark: per-packet pacing cost stays flat from 1k
// to 1M concurrent paced flows. The
// per-flow soft-event design of Section 4.1 pays one ScheduleSoftEvent and
// one timer dispatch per packet, so its cost per packet grows with the
// timer population; the wheel's drain is a dense slot sweep whose cost per
// packet is a slot-vector append plus a batch append regardless of how
// many other flows are queued.
//
// Methodology (same discipline as bench_shard_scaling): virtual pacing
// time is a manual tick counter advanced one quantum (plus a little
// deterministic jitter, so drains land late the way real trigger states
// do) per drain round -- the wheel never sees wall time. Cost is real CPU
// time of the driving thread (CLOCK_THREAD_CPUTIME_ID) divided by packets
// granted. The alloc probe counts operator-new calls across the measured
// phase: steady state must stay at zero.
//
// Two flow shapes:
//   mix     the flatness points: an interval mix of 64..8192 ticks, so
//           every drain grants tens to tens of thousands of packets.
//   sparse  1M flows at log-uniform 0.5-32 s intervals (the end-to-end
//           benchmark's pacing_fanout shape at a 1 MHz clock): every
//           deadline parks in the overflow ring, and a drain every quantum
//           grants only a handful of packets, each one a cold slab node.
//           Memory stalls here are spread over many small slots, and
//           overflow cascades are a real share of the total.
//
// Flags:
//   --json=PATH   write the JSON report (schema softtimer-pacing-v1)
//   --smoke       run the 1k/10k mix points and a 100k sparse point only
//   --flows=N     run a single extra flow-count point
//
// Full run writes BENCH_pacing.json for the repo root (see EXPERIMENTS.md).

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/alloc_probe.h"
#include "src/pacing/pacing_wheel.h"
#include "src/sim/random.h"

namespace softtimer {
namespace {

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Counts grants; deliberately does no per-packet work, so the number is the
// wheel's own cost, not the sink's.
class CountingSink : public PacingWheel::BatchSink {
 public:
  void OnPacedBatch(const PacedEmit* batch, size_t count, uint64_t) override {
    for (size_t i = 0; i < count; ++i) {
      packets += batch[i].packets;
    }
    ++flushes;
  }
  uint64_t packets = 0;
  uint64_t flushes = 0;
};

// Heterogeneous interval mix cycling eight octaves, 64..8192 ticks
// (64 us .. ~8 ms at a 1 MHz measurement clock): fast flows dominate the
// packet count, slow flows dominate the resident wheel population.
constexpr uint64_t kIntervals[] = {64, 128, 256, 512, 1024, 2048, 4096, 8192};
constexpr size_t kIntervalCount = sizeof(kIntervals) / sizeof(kIntervals[0]);

// Sparse shape: intervals log-uniform over [kSparseMinInterval,
// kSparseMinInterval * kSparseSpan) ticks.
constexpr uint64_t kSparseMinInterval = 500'000;
constexpr double kSparseSpan = 64.0;

enum class Shape { kMix, kSparse };

const char* ShapeName(Shape shape) {
  return shape == Shape::kMix ? "mix" : "sparse";
}

struct PointResult {
  size_t flows = 0;
  Shape shape = Shape::kMix;
  uint64_t packets = 0;
  uint64_t drains = 0;
  uint64_t cpu_ns = 0;
  uint64_t allocs = 0;
  uint64_t virtual_ticks = 0;
  double expected_packets = 0;
  double ns_per_packet() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(cpu_ns) / static_cast<double>(packets);
  }
  double packets_per_drain() const {
    return drains == 0 ? 0.0
                       : static_cast<double>(packets) / static_cast<double>(drains);
  }
  double allocs_per_packet() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(allocs) / static_cast<double>(packets);
  }
  double rate_accuracy() const {
    return expected_packets == 0
               ? 1.0
               : static_cast<double>(packets) / expected_packets;
  }
};

PointResult RunPoint(size_t flows, Shape shape, uint64_t measure_ticks) {
  PacingWheel::Config wc;
  wc.quantum_ticks = 8;
  wc.num_slots = 4096;  // horizon 32768 ticks: covers the 8192 mix
  PacingWheel wheel(wc);
  CountingSink sink;
  Rng rng(0x9e3779b9u ^ static_cast<uint64_t>(flows));

  std::vector<PacedFlowId> ids;
  ids.reserve(flows);
  double packets_per_tick = 0;  // the ideal aggregate rate
  for (size_t i = 0; i < flows; ++i) {
    uint64_t interval =
        shape == Shape::kMix
            ? kIntervals[i % kIntervalCount]
            : static_cast<uint64_t>(static_cast<double>(kSparseMinInterval) *
                                    std::pow(kSparseSpan, rng.NextDouble()));
    packets_per_tick += 1.0 / static_cast<double>(interval);
    PacedFlowConfig fc;
    fc.target_interval_ticks = interval;
    // Sparse flows pace like pacing_fanout's: no catch-up branch. With a
    // handful of packets per flow per run, the one catch-up packet a
    // first-emission lateness of a few ticks buys would inflate the rate.
    fc.min_burst_interval_ticks =
        shape == Shape::kMix ? interval / 2 : interval;
    fc.max_coalesced_burst_packets = 4;
    PacedFlowId id = wheel.AddFlow(fc);
    ids.push_back(id);
    // Stagger starts across one interval so a class does not arrive as a
    // single thundering slot.
    wheel.Activate(id, /*now_tick=*/0,
                   /*initial_delay_ticks=*/rng.UniformU64(interval));
  }

  uint64_t now = 0;
  auto spin = [&](uint64_t ticks) {
    uint64_t end = now + ticks;
    while (now < end) {
      // Drains land one quantum apart give or take the jitter of a real
      // trigger-state arrival; the wheel reads this "clock" exactly once
      // per drain.
      now += wc.quantum_ticks + rng.UniformU64(wc.quantum_ticks / 2);
      wheel.Drain(now, &sink);
    }
  };

  // Warmup: two full laps of the wheel the shape lives in (the inner wheel
  // for mix, the overflow ring for sparse), so every slot has been touched
  // and the slot vectors, drain scratch, and emit batch are at their
  // high-water marks. Allocations after this are amortized-zero: jittered
  // drains occasionally sweep two quantum slots at once, merging
  // same-interval flows into a shared future slot, so per-slot occupancy
  // records still break (and double a vector) at a slowly decaying rate.
  uint64_t lap = wc.quantum_ticks * wc.num_slots;
  if (shape == Shape::kSparse) {
    lap *= wc.overflow_slots;
  }
  spin(2 * lap);

  // Best-of-N timing: the per-point CPU window is short enough (tens of ms
  // at the small points) that scheduler preemption or a frequency dip can
  // inflate a single shot by 1.5x. Each rep measures an identical
  // steady-state window; take the minimum time (the least-perturbed run)
  // and the MAXIMUM allocation count (the alloc gate must hold for every
  // rep, not just the lucky one).
  constexpr int kMeasureReps = 3;
  PointResult best;
  uint64_t worst_allocs = 0;
  for (int rep = 0; rep < kMeasureReps; ++rep) {
    PointResult r;
    r.flows = flows;
    r.shape = shape;
    uint64_t packets0 = sink.packets;
    uint64_t drains0 = wheel.stats().drains;
    uint64_t allocs0 = AllocProbeAllocCount();
    uint64_t t0 = ThreadCpuNs();
    uint64_t now0 = now;
    spin(measure_ticks);
    r.cpu_ns = ThreadCpuNs() - t0;
    r.allocs = AllocProbeAllocCount() - allocs0;
    r.packets = sink.packets - packets0;
    r.drains = wheel.stats().drains - drains0;
    r.virtual_ticks = now - now0;
    r.expected_packets = static_cast<double>(r.virtual_ticks) * packets_per_tick;
    worst_allocs = r.allocs > worst_allocs ? r.allocs : worst_allocs;
    if (rep == 0 || r.ns_per_packet() < best.ns_per_packet()) {
      best = r;
    }
  }
  best.allocs = worst_allocs;
  return best;
}

int Run(const std::string& json_path, bool smoke, size_t extra_flows) {
  struct PointSpec {
    size_t flows;
    Shape shape;
  };
  std::vector<PointSpec> points;
  if (smoke) {
    points = {{1'000, Shape::kMix}, {10'000, Shape::kMix},
              {100'000, Shape::kSparse}};
  } else {
    points = {{1'000, Shape::kMix}, {10'000, Shape::kMix},
              {100'000, Shape::kMix}, {1'000'000, Shape::kMix},
              {1'000'000, Shape::kSparse}};
  }
  if (extra_flows > 0) {
    points.push_back({extra_flows, Shape::kMix});
  }

  std::vector<PointResult> results;
  for (const PointSpec& spec : points) {
    // Mix points: measure at least one full wheel lap, and extend the
    // virtual span at the small points so every point measures a
    // comparable PACKET count: per-packet cost at 1k flows over a single
    // lap is a ~5 ms CPU window, which scheduler noise can swing by 1.5x,
    // and the flatness ratio divides by it. Rate accuracy normalizes by
    // each point's own virtual span, so unequal spans stay comparable.
    // Sparse points measure one full overflow-ring lap (64 outer windows of
    // one 32768-tick horizon), so every outer slot cascades once per window.
    uint64_t measure_ticks = 32'768;
    if (spec.shape == Shape::kSparse) {
      measure_ticks *= 64;
    } else if (spec.flows < 100'000) {
      measure_ticks *= 100'000 / spec.flows;
    }
    PointResult r = RunPoint(spec.flows, spec.shape, measure_ticks);
    results.push_back(r);
    std::printf(
        "%-6s flows %8zu  packets %10" PRIu64 "  %6.1f ns/packet  "
        "allocs/packet %.6f  rate accuracy %.4f  (%" PRIu64
        " drains, %.1f packets/drain)\n",
        ShapeName(r.shape), r.flows, r.packets, r.ns_per_packet(),
        r.allocs_per_packet(), r.rate_accuracy(), r.drains,
        r.packets_per_drain());
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"softtimer-pacing-v1\",\n");
    std::fprintf(f,
                 "  \"note\": \"PacingWheel drain cost vs concurrent flow "
                 "count; quantum 8 ticks, 4096 slots, 64 overflow slots; "
                 "shape mix = interval mix 64..8192 ticks, sparse = "
                 "log-uniform 500000..32000000 ticks (drained every quantum, "
                 "a few packets per drain); min_burst=interval/2 (mix) or "
                 "interval (sparse), coalesce cap 4; ns/packet is thread CPU "
                 "time "
                 "(CLOCK_THREAD_CPUTIME_ID) over packets granted (best of 3 "
                 "identical windows), allocs from the operator-new probe "
                 "(worst of 3), rate_accuracy is packets granted over the "
                 "shape's ideal packet count for the measured virtual "
                 "span; flatness is over the mix points\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const PointResult& r = results[i];
      std::fprintf(f,
                   "    {\"shape\": \"%s\", \"flows\": %zu, \"packets\": %" PRIu64
                   ", \"drains\": %" PRIu64 ", \"packets_per_drain\": %.1f"
                   ", \"virtual_ticks\": %" PRIu64 ", \"cpu_ns\": %" PRIu64
                   ", \"ns_per_packet\": %.2f, \"allocs_per_packet\": %.6f, "
                   "\"rate_accuracy\": %.4f}%s\n",
                   ShapeName(r.shape), r.flows, r.packets, r.drains,
                   r.packets_per_drain(), r.virtual_ticks, r.cpu_ns,
                   r.ns_per_packet(), r.allocs_per_packet(), r.rate_accuracy(),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    double first = 0;
    double last = 0;
    for (const PointResult& r : results) {
      if (r.shape == Shape::kMix) {
        first = first == 0 ? r.ns_per_packet() : first;
        last = r.ns_per_packet();
      }
    }
    std::fprintf(f, "  \"flatness_ratio_last_over_first\": %.3f\n",
                 first > 0 ? last / first : 0.0);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Self-check the acceptance gates so the smoke entry fails loudly in CI
  // instead of silently writing a regressed artifact.
  int rc = 0;
  for (const PointResult& r : results) {
    if (r.rate_accuracy() < 0.95 || r.rate_accuracy() > 1.05) {
      std::fprintf(stderr,
                   "FAIL: %s flows %zu achieved/expected packets %.4f "
                   "outside [0.95, 1.05]\n",
                   ShapeName(r.shape), r.flows, r.rate_accuracy());
      rc = 1;
    }
    if (r.allocs_per_packet() > 0.001) {
      // Steady state must amortize to zero; a fraction above this gate
      // means a per-packet allocation crept into the drain path.
      std::fprintf(stderr, "FAIL: %s flows %zu allocs/packet %.6f > 0.001\n",
                   ShapeName(r.shape), r.flows, r.allocs_per_packet());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace softtimer

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  size_t extra_flows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      extra_flows = static_cast<size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return softtimer::Run(json_path, smoke, extra_flows);
}
