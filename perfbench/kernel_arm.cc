#include "perfbench/kernel_arm.h"

#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/report.h"

namespace perfbench {
namespace {

constexpr uint64_t kArrivalTag = UINT64_MAX;

uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Arms `fd` to expire at absolute CLOCK_MONOTONIC time `abs_ns`; 0 disarms.
void ArmAt(int fd, uint64_t abs_ns) {
  itimerspec its{};
  its.it_value.tv_sec = static_cast<time_t>(abs_ns / 1'000'000'000ull);
  its.it_value.tv_nsec = static_cast<long>(abs_ns % 1'000'000'000ull);
  timerfd_settime(fd, TFD_TIMER_ABSTIME, &its, nullptr);
}

// One RFC 6298 timer per connection, covering its oldest unacked segment.
struct KConn {
  int32_t slot = -1;  // timerfd pool slot while armed
  uint32_t sent = 0;
  uint32_t acked = 0;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  bool retransmitted = false;
  bool have_srtt = false;
  uint32_t backoff = 0;
  double srtt_us = 0;
  double rttvar_us = 0;
};

}  // namespace

int RunKernelArm(const Params& p) {
  if (p.fanout) {
    std::fprintf(stderr, "the kernel-timer arm serves the rpc model only\n");
    return 2;
  }
  Schedule sched = BuildSchedule(p);
  rlimit lim{};
  getrlimit(RLIMIT_NOFILE, &lim);
  lim.rlim_cur = lim.rlim_max;
  setrlimit(RLIMIT_NOFILE, &lim);
  size_t pool = std::min<size_t>(lim.rlim_cur > 128 ? lim.rlim_cur - 64 : 64,
                                 std::min<size_t>(p.rpc.conns, 1 << 17));

  int ep = epoll_create1(0);
  std::vector<int> fds(pool);
  std::vector<uint32_t> slot_conn(pool, 0);
  std::vector<int32_t> free_slots;
  for (size_t i = 0; i < pool; ++i) {
    fds[i] = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(ep, EPOLL_CTL_ADD, fds[i], &ev);
    free_slots.push_back(static_cast<int32_t>(pool - 1 - i));
  }
  int arrival_fd = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  epoll_event aev{};
  aev.events = EPOLLIN;
  aev.data.u64 = kArrivalTag;
  epoll_ctl(ep, EPOLL_CTL_ADD, arrival_fd, &aev);

  std::vector<KConn> conns(p.rpc.conns);
  auto rto_us = [&](const KConn& c) {
    double rto = p.rpc.rto_initial_us;
    if (c.have_srtt) {
      rto = std::clamp(c.srtt_us + std::max(1.0, 4 * c.rttvar_us), p.rpc.rto_min_us,
                       p.rpc.rto_max_us);
    }
    return std::min(rto * std::ldexp(1.0, static_cast<int>(c.backoff)),
                    p.rpc.rto_max_us);
  };
  uint64_t pool_exhausted = 0, early = 0, fires = 0, rx = 0, tx = 0;
  std::vector<double> lateness_us, rx_latency_us;
  auto arm = [&](uint32_t c, uint64_t now) {
    KConn& k = conns[c];
    if (k.slot < 0) {
      if (free_slots.empty()) {
        ++pool_exhausted;
        return;
      }
      k.slot = free_slots.back();
      free_slots.pop_back();
      slot_conn[k.slot] = c;
    }
    k.due_ns = now + static_cast<uint64_t>(rto_us(k) * 1e3);
    ArmAt(fds[k.slot], k.due_ns);
  };

  const uint64_t origin = MonoNs() + 20'000'000;
  const uint64_t w0 = origin + static_cast<uint64_t>(kWarmupS * 1e9);
  const uint64_t w1 = w0 + static_cast<uint64_t>(p.seconds * 1e9);
  const uint64_t end = origin + ScheduleEndNs(p) + static_cast<uint64_t>(kGraceS * 1e9);
  uint64_t cpu0 = 0, cpu1 = 0, pkts0 = 0, pkts1 = 0;
  bool in0 = false, in1 = false;
  size_t next = 0;
  if (!sched.packets.empty()) {
    ArmAt(arrival_fd, origin + sched.packets[0].arrival_ns);
  }
  std::vector<epoll_event> events(512);
  for (uint64_t now = MonoNs(); now < end; now = MonoNs()) {
    if (!in0 && now >= w0) {
      in0 = true;
      cpu0 = ProcessCpuNs();
      pkts0 = rx + tx;
    }
    if (!in1 && now >= w1) {
      in1 = true;
      cpu1 = ProcessCpuNs();
      pkts1 = rx + tx;
    }
    int n = epoll_wait(ep, events.data(), static_cast<int>(events.size()), 5);
    for (int e = 0; e < n; ++e) {
      uint64_t expirations = 0;
      uint64_t tag = events[e].data.u64;
      now = MonoNs();
      bool windowed = now >= w0 && now < w1;
      if (tag == kArrivalTag) {
        if (read(arrival_fd, &expirations, sizeof(expirations)) < 0) {
          continue;
        }
        while (next < sched.packets.size() &&
               origin + sched.packets[next].arrival_ns <= now) {
          const Packet& pk = sched.packets[next++];
          KConn& k = conns[pk.conn];
          if (pk.kind() == kRequest) {
            k.sent += p.rpc.segments;
            tx += p.rpc.segments;
            k.sent_ns = now;
            k.retransmitted = false;
            arm(pk.conn, now);
          } else if (pk.payload() > k.acked) {
            k.acked = std::min(pk.payload(), k.sent);
            if (!k.retransmitted) {
              double sample = static_cast<double>(now - k.sent_ns) / 1e3;
              if (!k.have_srtt) {
                k.srtt_us = sample;
                k.rttvar_us = sample / 2;
                k.have_srtt = true;
              } else {
                k.rttvar_us = (3 * k.rttvar_us + std::abs(k.srtt_us - sample)) / 4;
                k.srtt_us = (7 * k.srtt_us + sample) / 8;
              }
            }
            k.backoff = 0;
            if (k.acked >= k.sent && k.slot >= 0) {
              ArmAt(fds[k.slot], 0);
              free_slots.push_back(k.slot);
              k.slot = -1;
            } else {
              arm(pk.conn, now);
            }
          }
          ++rx;
          if (windowed) {
            rx_latency_us.push_back(
                static_cast<double>(MonoNs() - origin - pk.arrival_ns) / 1e3);
          }
        }
        if (next < sched.packets.size()) {
          ArmAt(arrival_fd, origin + sched.packets[next].arrival_ns);
        }
        continue;
      }
      if (read(fds[tag], &expirations, sizeof(expirations)) < 0) {
        continue;  // disarmed after the readiness was queued
      }
      KConn& k = conns[slot_conn[tag]];
      if (k.slot != static_cast<int32_t>(tag)) {
        continue;
      }
      ++fires;
      if (now < k.due_ns) {
        ++early;
      } else if (windowed) {
        lateness_us.push_back(static_cast<double>(now - k.due_ns) / 1e3);
      }
      ++tx;  // retransmission of the oldest unacked segment
      k.retransmitted = true;
      ++k.backoff;
      arm(slot_conn[tag], now);
    }
  }
  for (int fd : fds) {
    close(fd);
  }
  close(arrival_fd);
  close(ep);

  double secs = p.seconds;
  double pkts = static_cast<double>(pkts1 - pkts0);
  double cpu_ns_per_pkt = pkts > 0 ? static_cast<double>(cpu1 - cpu0) / pkts : 0;
  double lat50 = Quantile(&lateness_us, 50), lat99 = Quantile(&lateness_us, 99);
  double rx50 = Quantile(&rx_latency_us, 50), rx99 = Quantile(&rx_latency_us, 99);
  bool ok = pool_exhausted == 0 && early == 0;
  std::printf("kernel cpu_ns_per_pkt        %14.3f ns\n", cpu_ns_per_pkt);
  std::printf("kernel pkts_per_s            %14.1f 1/s\n", pkts / secs);
  std::printf("kernel timer_lateness_p50_us %14.3f us\n", lat50);
  std::printf("kernel timer_lateness_p99_us %14.3f us\n", lat99);
  std::printf("kernel rx_latency_p50_us     %14.3f us\n", rx50);
  std::printf("kernel rx_latency_p99_us     %14.3f us\n", rx99);
  std::printf("kernel fires %" PRIu64 " early %" PRIu64 " timerfds %zu pool_exhausted %" PRIu64
              "\n",
              fires, early, pool, pool_exhausted);
  std::printf("{\"arm\": \"kernel_timerfd_epoll\", \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"correct\": %s, \"metrics\": {\"cpu_ns_per_pkt\": %.17g, "
              "\"pkts_per_s\": %.17g, \"timer_lateness_p50_us\": %.17g, "
              "\"timer_lateness_p99_us\": %.17g, \"rx_latency_p50_us\": %.17g, "
              "\"rx_latency_p99_us\": %.17g}, \"fires\": %" PRIu64
              ", \"early_fires\": %" PRIu64 ", \"timerfds\": %zu, \"pool_exhausted\": %" PRIu64
              "}\n",
              p.workload.c_str(), p.seed, ok ? "true" : "false", cpu_ns_per_pkt,
              pkts / secs, lat50, lat99, rx50, rx99, fires, early, pool, pool_exhausted);
  return ok ? 0 : 1;
}

}  // namespace perfbench
