// Metrics, verdicts and output for perfbench_e2e.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/stack.h"
#include "src/stats/latency_histogram.h"

namespace perfbench {

using BucketCounts =
    std::array<uint64_t, softtimer::LatencyHistogram::kNumBuckets>;

// Linear-interpolated quantile (p in [0, 100]) of the samples; reorders
// them. 0 when empty.
double Quantile(std::vector<double>* samples, double p);

// Bucket counts of one histogram, and the merge over every shard of the
// difference between two of its window snapshots.
BucketCounts HistCounts(const softtimer::LatencyHistogram& h);
template <typename Get>
BucketCounts HistDiff(const std::vector<std::unique_ptr<ShardCtx>>& shards,
                      size_t from, size_t to, Get get) {
  BucketCounts out{};
  for (const auto& ctx : shards) {
    BucketCounts a = HistCounts(get(ctx->snaps[from]));
    BucketCounts b = HistCounts(get(ctx->snaps[to]));
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += b[i] - a[i];
    }
  }
  return out;
}

// Percentile of bucketed integer samples, interpolated inside the bucket
// that holds the rank: a bucket [lower, upper] of tick values is read as the
// continuous span [lower, upper + 1), since a tick count truncates the real
// duration. 0 when empty.
double BucketPercentile(const BucketCounts& counts, double p);

class Verdicts {
 public:
  void Count(const std::string& name, uint64_t failures) {
    failures_[name] += failures;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& [name, count] : failures_) {
      n += count;
    }
    return n;
  }
  bool ok() const { return failed() == 0; }
  const std::map<std::string, uint64_t>& failures() const { return failures_; }
  uint64_t attempted = 0;
  // Informational: the runtime's cross-core retry helper gave up (the push
  // was then retried patiently), and pushes that found the ring full.
  uint64_t helper_give_ups = 0;
  uint64_t ring_full_rejects = 0;

 private:
  std::map<std::string, uint64_t> failures_;
};

// Runs every correctness check on a stopped stack. `inject` names one
// seeded violation to feed into the checks (self-test), or is empty.
Verdicts CheckVerdicts(const Stack& st, const std::string& inject);

class Report {
 public:
  Report(const Params& params, uint64_t digest) : p_(params), digest_(digest) {}
  void Metric(const std::string& name, double value);
  void Layer(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, double value, const std::string& unit);
  // Prints the verdicts and the final JSON report line.
  void Finish(const Verdicts& verdicts, double rss_mb);

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void Print(const char* kind, const Entry& e);

  const Params& p_;
  uint64_t digest_;
  std::vector<Entry> metrics_, layers_, info_;
};

// Per-layer metrics and the attribution check over snapshots [from, to) of
// the traced span. `pkts` counts rx handled + tx emitted in it.
void AddPerLayer(Report* r, Verdicts* v, const Stack& st,
                 const std::vector<MainSnap>& main, size_t from, size_t to,
                 uint64_t pkts, double untraced_cpu_ns_per_pkt);

void WriteSpans(const Stack& st, const std::string& path);

bool ParseParams(const std::map<std::string, std::string>& flags, Params* p,
                 std::string* error);
void PrintDigestOnly(const Params& p);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
