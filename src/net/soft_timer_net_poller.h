// Soft-timer-based network polling (Section 4.2 / Section 5.9).
//
// A soft-timer event polls every attached NIC; the poll interval is steered
// by a PollGovernor toward the configured aggregation quota (average packets
// found per poll). Following Section 5.9:
//
//   "soft-timer based network polling is turned off (and interrupts are
//    enabled instead) whenever a CPU enters the idle loop. This ensures that
//    packet processing is never delayed unnecessarily."
//
// so the poller flips NICs between kPolled (CPU busy) and kInterrupt (any
// CPU idle).

#ifndef SOFTTIMER_SRC_NET_SOFT_TIMER_NET_POLLER_H_
#define SOFTTIMER_SRC_NET_SOFT_TIMER_NET_POLLER_H_

#include <cstdint>
#include <vector>

#include "src/core/poll_governor.h"
#include "src/machine/kernel.h"
#include "src/net/nic.h"

namespace softtimer {

class SoftTimerNetPoller {
 public:
  struct Config {
    PollGovernor::Config governor;
    // Max packets drained per NIC per poll.
    size_t max_per_poll = 64;
  };

  SoftTimerNetPoller(Kernel* kernel, std::vector<Nic*> nics, Config config);

  // Begins polling (call once, after the NICs are wired up).
  void Start();

  struct Stats {
    uint64_t polls = 0;
    uint64_t packets = 0;
    uint64_t idle_switches = 0;
    uint64_t engages = 0;
    // Governor resets taken because a trigger drought ended.
    uint64_t drought_resets = 0;
  };
  const Stats& stats() const { return stats_; }
  const PollGovernor& governor() const { return governor_; }

 private:
  void SetPolled(bool polled);
  void ScheduleNext(uint64_t interval_ticks);
  void OnPollEvent();

  Kernel* kernel_;
  std::vector<Nic*> nics_;
  Config config_;
  PollGovernor governor_;
  bool active_ = false;    // polling mode engaged (CPU busy)
  bool started_ = false;
  bool in_set_polled_ = false;
  bool desired_polled_ = false;
  bool applied_polled_ = false;
  bool applied_once_ = false;
  uint64_t last_poll_tick_ = 0;
  bool have_last_poll_tick_ = false;
  SoftEventId pending_event_;
  Stats stats_;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_NET_SOFT_TIMER_NET_POLLER_H_
