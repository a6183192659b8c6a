#include "perfbench/report.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/rt/sharded_rt_host.h"
#include "src/tcp/rto_engine.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using softtimer::LatencyHistogram;

void TscClock::Calibrate() {
  auto t0 = std::chrono::steady_clock::now();
  uint64_t r0 = Raw();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto t1 = std::chrono::steady_clock::now();
  uint64_t r1 = Raw();
  ns_per_tick_ = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(r1 - r0);
}

double Quantile(std::vector<double>* s, double p) {
  if (s->empty()) {
    return 0;
  }
  double pos = p / 100.0 * static_cast<double>(s->size() - 1);
  auto lo = static_cast<size_t>(pos);
  std::nth_element(s->begin(), s->begin() + lo, s->end());
  double a = (*s)[lo];
  if (lo + 1 >= s->size()) {
    return a;
  }
  double b = *std::min_element(s->begin() + lo + 1, s->end());
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

BucketCounts HistCounts(const LatencyHistogram& h) {
  BucketCounts c{};
  h.ForEachNonZero([&c](uint64_t lower, uint64_t, uint64_t count) {
    c[LatencyHistogram::BucketIndex(lower)] = count;
  });
  return c;
}

double BucketPercentile(const BucketCounts& counts, double p) {
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0;
  }
  double rank = p / 100.0 * static_cast<double>(total);
  double cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    double c = static_cast<double>(counts[i]);
    if (cum + c >= rank) {
      double lo = static_cast<double>(LatencyHistogram::BucketLower(i));
      double hi = static_cast<double>(LatencyHistogram::BucketUpper(i)) + 1;
      return lo + (rank - cum) / c * (hi - lo);
    }
    cum += c;
  }
  return 0;
}

Verdicts CheckVerdicts(const Stack& st, const std::string& inject) {
  Verdicts v;
  uint64_t early = 0, op_failures = 0;
  uint64_t pushes_lost = 0, helper_give_ups = 0, ring_full_rejects = 0, tx = 0;
  uint64_t scheduled = 0, cancelled = 0, fired = 0, stale = 0, give_ups = 0;
  for (const auto& ctx : st.shards()) {
    early += ctx->early_fires;
    op_failures += ctx->op_failures;
    pushes_lost += ctx->pushes_lost;
    helper_give_ups += ctx->token.retry_exhausted();
    ring_full_rejects += ctx->token.ring_full_rejects();
    tx += ctx->tx;
    if (ctx->engine) {
      const auto& s = ctx->engine->stats();
      scheduled += s.timers_scheduled;
      cancelled += s.timers_cancelled;
      fired += s.timers_fired;
      stale += s.stale_fires;
      give_ups += s.give_ups;
    }
  }
  uint64_t live = st.live_rto_timers();
  // The other seeded violations are made on the shard threads (see
  // Stack::InjectOnShard). A stale fire cannot be made through the public
  // calls: closing a connection cancels its timers, even ones already in an
  // expiry batch, so this seed enters at the engine-stats sum.
  if (inject == "stale_fire") {
    stale += 1;
  }
  uint64_t accounted = cancelled + fired + live;
  uint64_t unhandled = 0;
  for (uint8_t h : st.handled()) {
    unhandled += h != 1;
  }
  v.Count("early_fire", early);
  v.Count("unconserved_timers",
          scheduled > accounted ? scheduled - accounted : accounted - scheduled);
  v.Count("unhandled_packets", unhandled);
  // Every retry exhausted: the runtime helper's and then the patient one,
  // so the push was lost. The helper's own give-ups are reported beside it.
  v.Count("retry_exhausted", pushes_lost);
  v.helper_give_ups = helper_give_ups;
  v.ring_full_rejects = ring_full_rejects;
  v.Count("stale_fires", stale);
  v.Count("give_ups", give_ups);
  v.Count("refused_ops", op_failures);
  v.attempted = st.schedule().packets.size() + tx;
  return v;
}

namespace {

const char* E2eUnit(const std::string& name) {
  static const std::map<std::string, const char*> kUnits = {
      {"setup_s", "s"},
      {"rx_pps", "1/s"},
      {"tx_pps", "1/s"},
      {"cpu_ns_per_pkt", "ns"},
      {"rx_latency_p50_us", "us"},
      {"rx_latency_p99_us", "us"},
      {"response_time_p50_us", "us"},
      {"response_time_p99_us", "us"},
      {"timer_lateness_p50_us", "us"},
      {"timer_lateness_p99_us", "us"},
      {"tx_rate_accuracy", "ratio"},
      {"rss_mb", "MB"},
  };
  auto it = kUnits.find(name);
  return it == kUnits.end() ? "" : it->second;
}

void JsonMap(const char* key, const std::vector<std::pair<std::string, double>>& kv,
             bool last) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < kv.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "", kv[i].first.c_str(),
                std::isfinite(kv[i].second) ? kv[i].second : 0.0);
  }
  std::printf("}%s", last ? "" : ", ");
}

}  // namespace

void Report::Print(const char* kind, const Entry& e) {
  std::printf("%-6s %-34s %16.6f %s\n", kind, e.name.c_str(), e.value,
              e.unit.c_str());
}

void Report::Metric(const std::string& name, double value) {
  metrics_.push_back({name, value, E2eUnit(name)});
  Print("e2e", metrics_.back());
}

void Report::Layer(const std::string& name, double value, const std::string& unit) {
  layers_.push_back({name, value, unit});
  Print("layer", layers_.back());
}

void Report::Info(const std::string& name, double value, const std::string& unit) {
  info_.push_back({name, value, unit});
  Print("info", info_.back());
}

void Report::Finish(const Verdicts& verdicts, double rss_mb) {
  for (const auto& [name, count] : verdicts.failures()) {
    std::printf("verdict %-32s %s (%" PRIu64 ")\n", name.c_str(),
                count == 0 ? "pass" : "FAIL", count);
  }
  double failed_ratio = verdicts.attempted
                            ? static_cast<double>(verdicts.failed()) /
                                  static_cast<double>(verdicts.attempted)
                            : 0;
  std::printf("info   %-34s %16.9f ratio\n", "failed_ratio", failed_ratio);
  std::printf("schedule_digest %016" PRIx64 "\n", digest_);
  auto pairs = [](const std::vector<Entry>& es) {
    std::vector<std::pair<std::string, double>> kv;
    for (const auto& e : es) {
      kv.emplace_back(e.name, e.value);
    }
    return kv;
  };
  std::vector<std::pair<std::string, double>> fails;
  for (const auto& [name, count] : verdicts.failures()) {
    fails.emplace_back(name, static_cast<double>(count));
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"digest\": \"%016" PRIx64 "\", \"correct\": %s, "
              "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"failed_ratio\": %.17g, \"rss_mb\": %.6f, "
              "\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\"}, ",
              p_.workload.c_str(), p_.seed, digest_,
              verdicts.ok() ? "true" : "false", verdicts.attempted,
              verdicts.failed(), failed_ratio, rss_mb, __VERSION__,
              PERFBENCH_BUILD_TYPE);
  JsonMap("verdicts", fails, false);
  JsonMap("metrics", pairs(metrics_), false);
  JsonMap("per_layer", pairs(layers_), false);
  JsonMap("info", pairs(info_), true);
  std::printf("}\n");
  std::fflush(stdout);
}

void AddPerLayer(Report* r, Verdicts* v, const Stack& st,
                 const std::vector<MainSnap>& main, size_t from, size_t to,
                 uint64_t pkts, double untraced_cpu_ns_per_pkt) {
  const auto& shards = st.shards();
  const double ns_per_tick = TscClock::ns_per_tick();
  const double tpu = static_cast<double>(st.ticks_per_us());
  const double per_pkt = pkts ? 1.0 / static_cast<double>(pkts) : 0;
  auto d = [&](auto get) {
    double sum = 0;
    for (const auto& ctx : shards) {
      sum += static_cast<double>(get(ctx->snaps[to]) - get(ctx->snaps[from]));
    }
    return sum;
  };
  auto span_self = [&](SpanName n) {
    return d([n](const ShardSnap& s) { return s.spans.by_name[n].self_ticks; }) *
           ns_per_tick;
  };
  auto span_total = [&](SpanName n) {
    return d([n](const ShardSnap& s) { return s.spans.by_name[n].total_ticks; }) *
           ns_per_tick;
  };
  auto span_count = [&](SpanName n) {
    return d([n](const ShardSnap& s) { return s.spans.by_name[n].count; });
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  auto per_call = [&](SpanName n) { return ratio(span_total(n), span_count(n)); };
  auto hist = [&](auto get, double p, double div) {
    return BucketPercentile(HistDiff(shards, from, to, get), p) / div;
  };

  // net
  double net_self = span_self(kNetPoll) + span_self(kNetDrain);
  r->Layer("net.poll_self_ns", ratio(span_self(kNetPoll), span_count(kNetPoll)), "ns");
  double useful = d([](const ShardSnap& s) { return s.useful_polls; });
  r->Layer("net.pkts_per_poll",
           ratio(d([](const ShardSnap& s) { return s.poll_packets; }), useful),
           "pkts");
  r->Layer("net.useful_poll_ratio",
           ratio(useful, d([](const ShardSnap& s) { return s.polls; })), "ratio");
  r->Layer("net.claim_conflicts",
           d([](const ShardSnap& s) { return s.core.claim_conflicts; }), "count");
  auto queue_wait = [](const ShardSnap& s) -> const LatencyHistogram& {
    return s.queue_wait_ns;
  };
  r->Layer("net.queue_wait_p50_us", hist(queue_wait, 50, 1e3), "us");
  r->Layer("net.queue_wait_p99_us", hist(queue_wait, 99, 1e3), "us");
  r->Layer("net.self_ns_per_pkt", net_self * per_pkt, "ns");

  // core
  double core_self = span_self(kXcorePush) + span_self(kXcoreHop);
  auto xcore_wait = [](const ShardSnap& s) -> const LatencyHistogram& {
    return s.xcore_wait_ns;
  };
  double dispatches = d([](const ShardSnap& s) { return s.dispatches; });
  r->Layer("core.xcore_push_ns", per_call(kXcorePush), "ns");
  r->Layer("core.xcore_wait_p50_us", hist(xcore_wait, 50, 1e3), "us");
  r->Layer("core.xcore_wait_p99_us", hist(xcore_wait, 99, 1e3), "us");
  r->Layer("core.ring_full_rejects",
           d([](const ShardSnap& s) { return s.ring_full_rejects; }), "count");
  r->Layer("core.retry_exhausted",
           d([](const ShardSnap& s) { return s.retry_exhausted; }), "count");
  r->Layer("core.dispatches", dispatches, "count");
  r->Layer("core.dispatch_per_check",
           ratio(dispatches, d([](const ShardSnap& s) { return s.checks; })),
           "ratio");
  r->Layer("core.backup_dispatch_share",
           ratio(d([](const ShardSnap& s) { return s.backup_dispatches; }),
                 dispatches),
           "ratio");
  r->Layer("core.self_ns_per_pkt", core_self * per_pkt, "ns");

  // timer
  double pending_peak = 0, slab_capacity = 0;
  for (const auto& ctx : shards) {
    uint64_t peak = 0;
    for (size_t w = from + 1; w <= to; ++w) {
      peak = std::max(peak, ctx->snaps[w].pending_peak);
    }
    pending_peak += static_cast<double>(peak);
    slab_capacity += static_cast<double>(ctx->snaps[to].slab_capacity);
  }
  r->Layer("timer.pending_peak", pending_peak, "count");
  r->Layer("timer.slab_capacity", slab_capacity, "count");

  // tcp
  double tcp_self = span_self(kTcpAck) + span_self(kTcpSent) + span_self(kTcpRtoFire);
  double scheduled = d([](const ShardSnap& s) { return s.engine.timers_scheduled; });
  double cancelled = d([](const ShardSnap& s) { return s.engine.timers_cancelled; });
  auto rto_lateness = [](const ShardSnap& s) -> const LatencyHistogram& {
    return s.rto_lateness;
  };
  r->Layer("tcp.ack_ns", per_call(kTcpAck), "ns");
  r->Layer("tcp.sent_ns", per_call(kTcpSent), "ns");
  r->Layer("tcp.timers_scheduled", scheduled, "count");
  r->Layer("tcp.timers_cancelled", cancelled, "count");
  r->Layer("tcp.timers_fired",
           d([](const ShardSnap& s) { return s.engine.timers_fired; }), "count");
  r->Layer("tcp.timers_rescheduled",
           d([](const ShardSnap& s) { return s.engine.timers_rescheduled; }),
           "count");
  r->Layer("tcp.cancel_ratio", ratio(cancelled, scheduled), "ratio");
  r->Layer("tcp.retransmits",
           d([](const ShardSnap& s) { return s.engine.retransmits; }), "count");
  r->Layer("tcp.window_full_rejects",
           d([](const ShardSnap& s) { return s.engine.window_full_rejects; }),
           "count");
  r->Layer("tcp.give_ups", d([](const ShardSnap& s) { return s.engine.give_ups; }),
           "count");
  r->Layer("tcp.rto_lateness_p50_us", hist(rto_lateness, 50, tpu), "us");
  r->Layer("tcp.rto_lateness_p99_us", hist(rto_lateness, 99, tpu), "us");
  r->Layer("tcp.self_ns_per_pkt", tcp_self * per_pkt, "ns");

  // pacing
  double pacing_self = span_self(kPacingPoll) + span_self(kPacingSink) +
                       span_self(kPacingRerate) + span_self(kPacingBudget);
  double emits = d([](const ShardSnap& s) { return s.wheel.emits; });
  double keeps = d([](const ShardSnap& s) { return s.wheel.keep_requeues; });
  double max_batch = 0;
  for (const auto& ctx : shards) {
    max_batch = std::max(max_batch, static_cast<double>(ctx->snaps[to].max_batch));
  }
  r->Layer("pacing.poll_ns", per_call(kPacingPoll), "ns");
  r->Layer("pacing.useful_poll_ratio",
           ratio(d([](const ShardSnap& s) { return s.phost.poll_drains; }),
                 d([](const ShardSnap& s) { return s.phost.polls; })),
           "ratio");
  r->Layer("pacing.sink_self_ns_per_pkt",
           ratio(span_self(kPacingSink),
                 d([](const ShardSnap& s) { return s.sink_packets; })),
           "ns");
  r->Layer("pacing.pkts_per_drain",
           ratio(d([](const ShardSnap& s) { return s.wheel.packets_granted; }),
                 d([](const ShardSnap& s) { return s.wheel.drains; })),
           "pkts");
  r->Layer("pacing.max_batch", max_batch, "pkts");
  r->Layer("pacing.rerate_ns", per_call(kPacingRerate), "ns");
  r->Layer("pacing.overflow_parks",
           d([](const ShardSnap& s) { return s.wheel.overflow_parks; }), "count");
  r->Layer("pacing.keep_requeue_ratio", ratio(keeps, emits + keeps), "ratio");
  r->Layer("pacing.self_ns_per_pkt", pacing_self * per_pkt, "ns");

  // rt: everything the shard threads burned outside the top-level spans.
  double thread_cpu = d([](const ShardSnap& s) { return s.thread_cpu_ns; });
  double top_level =
      d([](const ShardSnap& s) { return s.spans.top_level_ticks; }) * ns_per_tick;
  double rt_self = (thread_cpu - top_level) * per_pkt;
  double iterations = d([](const ShardSnap& s) { return s.loop.polls; });
  double sleeps = d([](const ShardSnap& s) { return s.loop.sleeps; });
  r->Layer("rt.loop_self_ns_per_pkt", rt_self, "ns");
  r->Layer("rt.iterations", iterations, "count");
  r->Layer("rt.sleeps", sleeps, "count");
  r->Layer("rt.wakeups", d([](const ShardSnap& s) { return s.loop.wakeups; }),
           "count");
  r->Layer("rt.backup_checks",
           d([](const ShardSnap& s) { return s.loop.backup_checks; }), "count");
  r->Layer("rt.sleep_ratio", ratio(sleeps, iterations), "ratio");

  // Longest single span of each name in the traced span (diagnostic: a
  // stall shows here as one span far above its mean).
  for (int n = 0; n < kNumSpanNames; ++n) {
    uint64_t longest = 0;
    for (const auto& ctx : shards) {
      longest = std::max(longest, ctx->snaps[to].spans.by_name[n].max_ticks);
    }
    r->Info(std::string(SpanLabel(n)) + ".max_us",
            static_cast<double>(longest) * ns_per_tick / 1e3, "us");
  }

  // Attribution: per-layer self time per packet must add up to the traced
  // run's process CPU per packet.
  double sum = (net_self + core_self + tcp_self + pacing_self) * per_pkt + rt_self;
  double cpu = static_cast<double>(main[to].process_cpu_ns -
                                   main[from].process_cpu_ns) *
               per_pkt;
  double error = cpu > 0 ? sum / cpu - 1 : 0;
  r->Layer("attribution.sum_ns_per_pkt", sum, "ns");
  r->Layer("attribution.cpu_ns_per_pkt", cpu, "ns");
  r->Layer("attribution.error_ratio", error, "ratio");
  r->Layer("trace.untraced_cpu_ns_per_pkt", untraced_cpu_ns_per_pkt, "ns");
  r->Layer("trace.overhead_ns_per_pkt", cpu - untraced_cpu_ns_per_pkt, "ns");
  r->Layer("allocs_per_kpkt",
           static_cast<double>(main[to].allocs - main[from].allocs) * 1000 * per_pkt,
           "allocs/kpkt");
  v->Count("attribution_gap", std::abs(error) > 0.10 ? 1 : 0);
}

void WriteSpans(const Stack& st, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "thread\tspan\tstart_ns\tend_ns\tparent\ttrace_id\n");
  for (const auto& ctx : st.shards()) {
    const auto& recs = ctx->tracer.records();
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& rec = recs[i];
      if (rec.end == 0) {
        continue;
      }
      std::fprintf(f, "%u\t%s\t%" PRIu64 "\t%" PRIu64 "\t%d\t%u\n", rec.thread,
                   SpanLabel(rec.name), TscClock::ToNs(rec.start),
                   TscClock::ToNs(rec.end), rec.parent, rec.trace_id);
    }
  }
  std::fclose(f);
}

void PrintDigestOnly(const Params& p) {
  Schedule s = BuildSchedule(p);
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"digest\": \"%016" PRIx64 "\", \"packets\": %zu}\n",
              p.workload.c_str(), p.seed, s.Digest(), s.packets.size());
}

bool ParseParams(const std::map<std::string, std::string>& flags, Params* p,
                 std::string* error) {
  // Library defaults the client model must agree with: the RTO clamp and
  // the host's measurement clock.
  softtimer::RtoEngine::Config rto;
  softtimer::ShardedRtHost::Config host;
  double us_per_tick = 1e6 / static_cast<double>(host.measure_hz);
  p->rpc.rto_initial_us = static_cast<double>(rto.rto_initial_ticks) * us_per_tick;
  p->rpc.rto_min_us = static_cast<double>(rto.rto_min_ticks) * us_per_tick;
  p->rpc.rto_max_us = static_cast<double>(rto.rto_max_ticks) * us_per_tick;
  static const char* kHandledElsewhere[] = {"digest-only", "kernel-arm"};
  for (const auto& [key, value] : flags) {
    char* end = nullptr;
    double num = std::strtod(value.c_str(), &end);
    bool numeric = end != value.c_str() && *end == '\0';
    auto need = [&](double lo, double hi) {
      if (!numeric || num < lo || num > hi) {
        *error = "--" + key + " must be a number in [" + std::to_string(lo) +
                 ", " + std::to_string(hi) + "], got '" + value + "'";
        return false;
      }
      return true;
    };
    if (key == "workload") {
      p->workload = value;
    } else if (key == "model") {
      if (value != "rpc" && value != "fanout") {
        *error = "--model must be rpc or fanout";
        return false;
      }
      p->fanout = value == "fanout";
    } else if (key == "inject") {
      static const char* kKinds[] = {"early_fire", "unconserved", "unhandled",
                                     "retry_exhausted", "stale_fire"};
      if (std::find(std::begin(kKinds), std::end(kKinds), value) == std::end(kKinds)) {
        *error = "--inject: unknown violation '" + value + "'";
        return false;
      }
      p->inject = value;
    } else if (key == "trace-out") {
      p->trace_out = value;
    } else if (std::find(std::begin(kHandledElsewhere), std::end(kHandledElsewhere),
                         key) != std::end(kHandledElsewhere)) {
      if (!need(0, 1)) return false;
    } else if (key == "seed") {
      if (!need(0, 1e18)) return false;
      p->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      if (!need(0.05, 600)) return false;
      p->seconds = num;
    } else if (key == "trace") {
      if (!need(0, 1)) return false;
      p->trace = num != 0;
    } else if (key == "shards") {
      if (!need(1, 64)) return false;
      p->shards = static_cast<uint32_t>(num);
    } else if (key == "queues") {
      if (!need(1, 64)) return false;
      p->queues = static_cast<uint32_t>(num);
    } else if (key == "conns") {
      if (!need(1, 1 << 26)) return false;
      p->rpc.conns = static_cast<uint32_t>(num);
    } else if (key == "rate") {
      if (!need(1, 1e8)) return false;
      p->rpc.requests_per_s = num;
      p->fan.feedback_per_s = num;
    } else if (key == "segments") {
      if (!need(1, softtimer::kRtoWindowSegments)) return false;
      p->rpc.segments = static_cast<uint32_t>(num);
    } else if (key == "acks") {
      if (!need(1, 4)) return false;
      p->rpc.acks = static_cast<uint32_t>(num);
    } else if (key == "paced") {
      if (!need(0, 1)) return false;
      p->rpc.paced = num != 0;
    } else if (key == "pace-min-us") {
      if (!need(1, 1e6)) return false;
      p->rpc.pace_min_us = num;
    } else if (key == "pace-max-us") {
      if (!need(1, 1e6)) return false;
      p->rpc.pace_max_us = num;
    } else if (key == "rtt-us") {
      if (!need(1, 1e7)) return false;
      p->rpc.rtt_us = num;
    } else if (key == "loss") {
      if (!need(0, 0.5)) return false;
      p->rpc.loss = num;
    } else if (key == "flows") {
      if (!need(1, 1 << 26)) return false;
      p->fan.flows = static_cast<uint32_t>(num);
    } else if (key == "interval-min-us") {
      if (!need(1, 1e9)) return false;
      p->fan.interval_min_us = num;
    } else if (key == "interval-max-us") {
      if (!need(1, 1e9)) return false;
      p->fan.interval_max_us = num;
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
  }
  if (p->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  bool ok = p->fanout ? (p->fan.flows > 0 && p->fan.feedback_per_s > 0 &&
                         p->fan.interval_min_us > 0 &&
                         p->fan.interval_max_us >= p->fan.interval_min_us)
                      : (p->rpc.conns > 0 && p->rpc.requests_per_s > 0 &&
                         p->rpc.rtt_us > 0 && p->rpc.acks <= p->rpc.segments &&
                         (!p->rpc.paced || (p->rpc.pace_min_us > 0 &&
                                            p->rpc.pace_max_us >= p->rpc.pace_min_us)));
  if (!ok) {
    *error = "incomplete workload shape for --model " +
             std::string(p->fanout ? "fanout" : "rpc");
    return false;
  }
  if ((p->inject == "retry_exhausted" && p->shards < 2) ||
      (p->inject == "unconserved" && p->fanout)) {
    *error = "--inject " + p->inject + " does not apply to this workload shape";
    return false;
  }
  return true;
}

}  // namespace perfbench
