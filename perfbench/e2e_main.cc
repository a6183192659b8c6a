// perfbench_e2e: one end-to-end run of the soft-timer network stack.
//
//   perfbench_e2e --workload NAME --model rpc|fanout --seed N --seconds S
//                 --trace 0|1 --shards N --queues Q [shape flags...]
//   perfbench_e2e ... --digest-only 1    print the schedule digest and exit
//   perfbench_e2e ... --kernel-arm 1     timerfd/epoll reference (rpc only)
//   perfbench_e2e ... --inject KIND      seeded violation; the run must fail
//
// A run sets the stack up half of kSetups times, warms up, then measures
// kSubwindows equal windows over `--seconds` (the run shape is fixed in
// stack.h), and sets up the other half after the measured span (setup_s is
// the median of all of them); every other end-to-end metric is the median of
// its values over the windows the host left alone (see QuietWindows). With
// --trace 1 a second, traced span of half that length follows on the same
// stack: its span sums give the per-layer metrics, and the difference of the
// two cpu_ns_per_pkt figures is the tracing overhead. After the last window
// the arrivals stop, a drain grace passes, the host stops and the verdicts
// run. Human-readable lines go to stdout; the last line is one JSON report.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_probe.h"
#include "perfbench/kernel_arm.h"
#include "perfbench/report.h"
#include "perfbench/stack.h"

namespace perfbench {
namespace {

using softtimer::LatencyHistogram;

uint64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// CPU time the hypervisor gave to other guests while this VM's vCPUs were
// runnable (the steal column of /proc/stat), summed over all CPUs.
uint64_t StealTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                      &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void SleepUntil(const Stack& stack, uint64_t target_ns) {
  for (;;) {
    uint64_t now = stack.NowNs();
    if (now >= target_ns) {
      return;
    }
    uint64_t left = std::min<uint64_t>(target_ns - now, 50'000'000);
    std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  }
}

// Window w covers [b[w], b[w+1]); returns -1 outside every window.
int WindowOf(const std::vector<uint64_t>& b, uint64_t t) {
  auto it = std::upper_bound(b.begin(), b.end(), t);
  if (it == b.begin() || it == b.end()) {
    return -1;
  }
  return static_cast<int>(it - b.begin()) - 1;
}

struct Run {
  std::vector<double> setup_s;
  std::vector<MainSnap> main;
  std::vector<uint64_t> bounds;  // main boundary times (ns since epoch)
  bool snap_timeout = false;
};

// Per-window end-to-end values.
struct WindowVals {
  std::vector<double> rx_pps, tx_pps, cpu_ns_per_pkt, allocs_per_kpkt;
  std::vector<double> rx_p50, rx_p99, resp_p50, resp_p99, lat_p50, lat_p99;
  std::vector<double> accuracy;
  std::vector<uint64_t> pkts;
};

// Counts per sub-window, shared by the e2e and per-layer reports.
WindowVals ComputeWindows(const Stack& st, const Run& run) {
  const Params& p = st.params();
  const Schedule& sched = st.schedule();
  const auto& shards = st.shards();
  size_t nw = run.bounds.size() - 1;
  WindowVals v;
  std::vector<uint64_t> rx(nw, 0);
  std::vector<std::vector<double>> rx_lat(nw), resp(nw);
  std::vector<double> implied(nw, 0);
  const auto& done = st.done_delta();
  const auto& response = st.response_delta();
  for (size_t i = 0; i < sched.packets.size(); ++i) {
    const Packet& pk = sched.packets[i];
    if (done[i] != kNoDelta) {
      int w = WindowOf(run.bounds, pk.arrival_ns + done[i]);
      if (w >= 0) {
        ++rx[w];
      }
      int wa = WindowOf(run.bounds, pk.arrival_ns);
      if (wa >= 0) {
        rx_lat[wa].push_back(done[i] / 1e3);
        if (response[i] != kNoDelta) {
          resp[wa].push_back(response[i] / 1e3);
        }
      }
    }
    if (!p.fanout && pk.kind() == kRequest) {
      for (uint32_t j = 0; j < p.rpc.segments; ++j) {
        int w = WindowOf(run.bounds,
                         pk.arrival_ns + uint64_t{j} * sched.pace_us[pk.conn] * 1000);
        if (w >= 0) {
          implied[w] += 1;
        }
      }
    }
  }
  if (p.fanout) {
    // Packets the configured rates imply: a flow's initial train is
    // stationary (random phase), so it contributes overlap / interval; a
    // re-rate restarts the train at the feedback arrival, so each later
    // train contributes its exact emission count inside the window.
    std::vector<uint64_t> first(p.fan.flows, UINT64_MAX);
    std::vector<uint64_t> next(sched.packets.size(), UINT64_MAX);
    std::vector<uint64_t> last_seen(p.fan.flows, UINT64_MAX);
    for (size_t i = sched.packets.size(); i-- > 0;) {
      const Packet& pk = sched.packets[i];
      next[i] = last_seen[pk.conn];
      last_seen[pk.conn] = pk.arrival_ns;
    }
    for (uint32_t f = 0; f < p.fan.flows; ++f) {
      first[f] = last_seen[f];
      double iv = sched.interval_us[f] * 1e3;
      for (size_t w = 0; w < nw; ++w) {
        uint64_t lo = run.bounds[w];
        uint64_t hi = std::min(run.bounds[w + 1], first[f]);
        if (hi > lo) {
          implied[w] += static_cast<double>(hi - lo) / iv;
        }
      }
    }
    for (size_t i = 0; i < sched.packets.size(); ++i) {
      const Packet& pk = sched.packets[i];
      double iv = pk.payload() * 1e3;
      double t = static_cast<double>(pk.arrival_ns);
      for (size_t w = 0; w < nw; ++w) {
        double lo = std::max<double>(static_cast<double>(run.bounds[w]), t);
        double hi = std::min<double>(static_cast<double>(run.bounds[w + 1]),
                                     static_cast<double>(next[i]));
        if (hi > lo) {
          implied[w] += std::ceil((hi - t) / iv) - std::ceil((lo - t) / iv);
        }
      }
    }
  }
  for (size_t w = 0; w < nw; ++w) {
    double secs = static_cast<double>(run.bounds[w + 1] - run.bounds[w]) / 1e9;
    uint64_t tx = 0, first_tx = 0;
    for (const auto& ctx : shards) {
      tx += ctx->snaps[w + 1].tx - ctx->snaps[w].tx;
      first_tx += ctx->snaps[w + 1].first_tx - ctx->snaps[w].first_tx;
    }
    BucketCounts lateness = HistDiff(shards, w, w + 1,
                                     [](const ShardSnap& s) -> const LatencyHistogram& {
                                       return s.host_lateness;
                                     });
    uint64_t pkts = rx[w] + tx;
    double cpu = static_cast<double>(run.main[w + 1].process_cpu_ns -
                                     run.main[w].process_cpu_ns);
    double allocs = static_cast<double>(run.main[w + 1].allocs - run.main[w].allocs);
    double tpu = static_cast<double>(st.ticks_per_us());
    v.pkts.push_back(pkts);
    v.rx_pps.push_back(rx[w] / secs);
    v.tx_pps.push_back(tx / secs);
    v.cpu_ns_per_pkt.push_back(pkts ? cpu / pkts : 0);
    v.allocs_per_kpkt.push_back(pkts ? allocs * 1000 / pkts : 0);
    v.rx_p50.push_back(Quantile(&rx_lat[w], 50));
    v.rx_p99.push_back(Quantile(&rx_lat[w], 99));
    v.resp_p50.push_back(Quantile(&resp[w], 50));
    v.resp_p99.push_back(Quantile(&resp[w], 99));
    v.lat_p50.push_back(BucketPercentile(lateness, 50) / tpu);
    v.lat_p99.push_back(BucketPercentile(lateness, 99) / tpu);
    v.accuracy.push_back(implied[w] > 0 ? first_tx / implied[w] : 0);
  }
  return v;
}

double MedianOf(const std::vector<double>& all, const std::vector<size_t>& windows) {
  std::vector<double> part;
  for (size_t w : windows) {
    part.push_back(all[w]);
  }
  return Quantile(&part, 50);
}

// The windows of [0, count) the host left alone: those whose host-wide
// steal (the steal column of /proc/stat) is at most the median window's.
// On a shared VM a burst of hypervisor steal stalls a shard for milliseconds
// and sets the p99 of every window it lands in, so each end-to-end figure is
// the median over the other windows (the same raw/clean split the isolated
// shard's histograms make). Steal is counted in 10 ms ticks, so windows
// often tie; every tied window is kept, and with no steal spread at all
// every window is, so no part of the run is left out by position.
std::vector<size_t> QuietWindows(const std::vector<MainSnap>& main, size_t count) {
  auto steal = [&main](size_t w) { return main[w + 1].steal_ticks - main[w].steal_ticks; };
  std::vector<uint64_t> sorted;
  for (size_t w = 0; w < count; ++w) {
    sorted.push_back(steal(w));
  }
  std::sort(sorted.begin(), sorted.end());
  uint64_t limit = sorted[(count - 1) / 2];
  std::vector<size_t> quiet;
  for (size_t w = 0; w < count; ++w) {
    if (steal(w) <= limit) {
      quiet.push_back(w);
    }
  }
  return quiet;
}

// Pooled latency detail over the untraced windows (informational): sample
// count and the highest percentile with at least 10 samples beyond it.
void PrintLatencyDetail(Report* r, const char* name, std::vector<double> samples) {
  size_t n = samples.size();
  double top_p = n > 10 ? 100.0 * (1.0 - 10.0 / static_cast<double>(n)) : 0;
  double top = n > 10 ? Quantile(&samples, top_p) : 0;
  r->Info(std::string(name) + ".samples", static_cast<double>(n), "count");
  r->Info(std::string(name) + ".top_percentile", top_p, "pct");
  r->Info(std::string(name) + ".top_value_us", top, "us");
}

// Replaces *st with `count` fresh stacks in turn, timing each setup.
void TimedSetups(const Params& p, size_t boundaries, int count,
                 std::unique_ptr<Stack>* st, std::vector<double>* setup_s) {
  for (int i = 0; i < count; ++i) {
    st->reset();
    auto t0 = std::chrono::steady_clock::now();
    *st = std::make_unique<Stack>(p, boundaries);
    auto t1 = std::chrono::steady_clock::now();
    setup_s->push_back(std::chrono::duration<double>(t1 - t0).count());
  }
}

int RunBench(const Params& p) {
  const int k = kSubwindows;
  const int windows = p.trace ? 2 : 1;
  const size_t nb = static_cast<size_t>(k * windows + 1);
  Run run;
  std::unique_ptr<Stack> st;
  // Half the setups come before the measured span and half after it: this
  // host's speed drifts over seconds, and setups taken at both ends of the
  // run sample more of it than back-to-back ones.
  TimedSetups(p, nb, (kSetups + 1) / 2, &st, &run.setup_s);
  uint64_t digest = st->schedule().Digest();

  st->StartArrivals();
  // Untraced windows span --seconds; the traced ones (if any) half of it.
  double sub_s = p.seconds / k;
  for (size_t b = 0; b < nb; ++b) {
    double at = b <= static_cast<size_t>(k)
                    ? kWarmupS + b * sub_s
                    : kWarmupS + p.seconds + (b - k) * sub_s / 2;
    SleepUntil(*st, static_cast<uint64_t>(at * 1e9));
    MainSnap m;
    m.ns = st->NowNs();
    m.process_cpu_ns = ProcessCpuNs();
    m.allocs = softtimer::AllocProbeAllocCount();
    m.steal_ticks = StealTicks();
    run.main.push_back(m);
    run.bounds.push_back(m.ns);
    st->PublishBoundary(b + 1);
  }
  uint64_t wait_start = st->NowNs();
  while (!st->AllShardsSnapped(nb)) {
    if (st->NowNs() - wait_start > 2'000'000'000ull) {
      run.snap_timeout = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SleepUntil(*st, ScheduleEndNs(p) + static_cast<uint64_t>(kGraceS * 1e9));
  st->Stop();

  Report r(p, digest);
  WindowVals v = ComputeWindows(*st, run);
  const size_t ku = static_cast<size_t>(k);
  const std::vector<size_t> quiet = QuietWindows(run.main, ku);
  for (size_t w = 0; w < v.pkts.size(); ++w) {
    bool kept = std::find(quiet.begin(), quiet.end(), w) != quiet.end();
    std::printf("window %2zu%s cpu_ns_per_pkt %.1f rx_p99_us %.1f resp_p99_us %.1f "
                "lateness_p99_us %.1f host_steal_ticks %llu\n",
                w, w >= ku ? " (traced)" : kept ? "" : " (steal, dropped)", v.cpu_ns_per_pkt[w], v.rx_p99[w],
                v.resp_p99[w], v.lat_p99[w],
                static_cast<unsigned long long>(run.main[w + 1].steal_ticks -
                                                run.main[w].steal_ticks));
  }

  // --- end-to-end (untraced windows) ---
  r.Metric("rx_pps", MedianOf(v.rx_pps, quiet));
  r.Metric("tx_pps", MedianOf(v.tx_pps, quiet));
  r.Metric("cpu_ns_per_pkt", MedianOf(v.cpu_ns_per_pkt, quiet));
  r.Metric("rx_latency_p50_us", MedianOf(v.rx_p50, quiet));
  r.Metric("rx_latency_p99_us", MedianOf(v.rx_p99, quiet));
  r.Metric("response_time_p50_us", MedianOf(v.resp_p50, quiet));
  r.Metric("response_time_p99_us", MedianOf(v.resp_p99, quiet));
  r.Metric("timer_lateness_p50_us", MedianOf(v.lat_p50, quiet));
  r.Metric("timer_lateness_p99_us", MedianOf(v.lat_p99, quiet));
  r.Metric("tx_rate_accuracy", MedianOf(v.accuracy, quiet));
  r.Metric("rss_mb", PeakRssMb());
  r.Info("allocs_per_kpkt", MedianOf(v.allocs_per_kpkt, quiet), "allocs/kpkt");
  r.Info("windows.measured", static_cast<double>(ku), "count");
  r.Info("windows.dropped_for_steal", static_cast<double>(ku - quiet.size()), "count");
  uint64_t overlaps = 0, send_rejects = 0, acks_early = 0;
  for (const auto& ctx : st->shards()) {
    r.Info("rt.max_tick_gap_us.shard" + std::to_string(ctx->index),
           ctx->max_tick_gap_ns / 1e3, "us");
    overlaps += ctx->overlaps;
    send_rejects += ctx->send_rejects;
    acks_early += ctx->acks_early;
  }
  r.Info("requests_behind_open_response", static_cast<double>(overlaps), "count");
  r.Info("segments_over_window", static_cast<double>(send_rejects), "count");
  r.Info("acks_before_send", static_cast<double>(acks_early), "count");
  const Schedule& sched = st->schedule();
  r.Info("schedule.packets", static_cast<double>(sched.packets.size()), "count");
  r.Info("schedule.requests", static_cast<double>(sched.requests), "count");
  r.Info("schedule.acks_dropped", static_cast<double>(sched.acks_dropped), "count");
  r.Info("schedule.requests_skipped", static_cast<double>(sched.requests_skipped),
         "count");
  {
    std::vector<double> rx_all, resp_all;
    for (size_t i = 0; i < sched.packets.size(); ++i) {
      int w = WindowOf(run.bounds, sched.packets[i].arrival_ns);
      if (w < 0 || w >= k) {
        continue;
      }
      if (st->done_delta()[i] != kNoDelta) {
        rx_all.push_back(st->done_delta()[i] / 1e3);
      }
      if (st->response_delta()[i] != kNoDelta) {
        resp_all.push_back(st->response_delta()[i] / 1e3);
      }
    }
    BucketCounts lateness = HistDiff(st->shards(), 0, ku,
                                     [](const ShardSnap& s) -> const LatencyHistogram& {
                                       return s.host_lateness;
                                     });
    uint64_t n = 0;
    for (uint64_t c : lateness) {
      n += c;
    }
    double top_p = n > 10 ? 100.0 * (1.0 - 10.0 / static_cast<double>(n)) : 0;
    r.Info("timer_lateness.samples", static_cast<double>(n), "count");
    r.Info("timer_lateness.top_percentile", top_p, "pct");
    r.Info("timer_lateness.top_value_us",
           n > 10 ? BucketPercentile(lateness, top_p) / static_cast<double>(st->ticks_per_us())
                  : 0,
           "us");
    PrintLatencyDetail(&r, "rx_latency", std::move(rx_all));
    PrintLatencyDetail(&r, "response_time", std::move(resp_all));
  }

  // --- verdicts ---
  Verdicts verdicts = CheckVerdicts(*st, p.inject);
  // Over the whole run, every window and the warmup included.
  r.Info("run.core_retry_exhausted", static_cast<double>(verdicts.helper_give_ups), "count");
  r.Info("run.core_ring_full_rejects", static_cast<double>(verdicts.ring_full_rejects),
         "count");
  if (run.snap_timeout) {
    verdicts.Count("snapshot_timeout", 1);
  }
  if (p.trace) {
    double untraced = MedianOf(v.cpu_ns_per_pkt, quiet);
    uint64_t pkts = 0;
    for (size_t w = ku; w < 2 * ku; ++w) {
      pkts += v.pkts[w];
    }
    AddPerLayer(&r, &verdicts, *st, run.main, ku, 2 * ku, pkts, untraced);
    // The tails of the untraced span ride along with the per-layer figures:
    // they are printed on every run but follow host steal too closely to
    // gate a change on (see BENCHMARK.json).
    r.Layer("rx_latency_p99_us", MedianOf(v.rx_p99, quiet), "us");
    r.Layer("response_time_p99_us", MedianOf(v.resp_p99, quiet), "us");
    r.Layer("timer_lateness_p99_us", MedianOf(v.lat_p99, quiet), "us");
  }
  if (!p.trace_out.empty()) {
    WriteSpans(*st, p.trace_out);
  }
  double rss_mb = PeakRssMb();

  TimedSetups(p, nb, kSetups / 2, &st, &run.setup_s);
  st.reset();
  std::vector<double> setups = run.setup_s;
  r.Metric("setup_s", Quantile(&setups, 50));
  for (size_t i = 0; i < run.setup_s.size(); ++i) {
    r.Info("setup_s." + std::to_string(i), run.setup_s[i], "s");
  }
  r.Finish(verdicts, rss_mb);
  return verdicts.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Params p;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
    return 2;
  }
  std::string error;
  if (!ParseParams(flags, &p, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  TscClock::Calibrate();
  if (flags.count("digest-only") && flags["digest-only"] == "1") {
    PrintDigestOnly(p);
    return 0;
  }
  if (flags.count("kernel-arm") && flags["kernel-arm"] == "1") {
    return RunKernelArm(p);
  }
  return RunBench(p);
}
