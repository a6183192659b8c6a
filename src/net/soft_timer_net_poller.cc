#include "src/net/soft_timer_net_poller.h"

#include <algorithm>
#include <utility>

namespace softtimer {

SoftTimerNetPoller::SoftTimerNetPoller(Kernel* kernel, std::vector<Nic*> nics, Config config)
    : kernel_(kernel), nics_(std::move(nics)), config_(config), governor_(config.governor) {}

void SoftTimerNetPoller::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Degradation recovery: a trigger drought starves the poll stream, so the
  // first post-drought poll would see a huge elapsed gap and read as a
  // collapsed arrival rate. Reset the governor instead of letting the drought
  // poison its rate estimate.
  kernel_->soft_timers().AddDroughtListener([this](bool entering) {
    if (!entering && active_) {
      ++stats_.drought_resets;
      // ReEngage, not just ResetRate: the pending poll event was scheduled
      // at the pre-drought interval, and traffic after a drought is
      // unknown - left alone, the stream would re-engage one full stale
      // interval late. Re-clamp to min(current, initial) within the Config
      // bounds and reschedule at the re-clamped interval.
      governor_.ReEngage();
      have_last_poll_tick_ = false;
      if (pending_event_.valid()) {
        kernel_->soft_timers().CancelSoftEvent(pending_event_);
      }
      ScheduleNext(governor_.current_interval_ticks());
    }
  });
  // Flip to interrupt mode whenever a CPU idles (Section 5.9).
  kernel_->AddCpuIdleListener([this](int cpu, bool idle) {
    (void)cpu;
    if (idle) {
      if (active_) {
        ++stats_.idle_switches;
        SetPolled(false);
      }
    } else {
      if (!active_) {
        SetPolled(true);
      }
    }
  });
  // Engage according to the current CPU state.
  SetPolled(kernel_->cpu(0).busy());
}

void SoftTimerNetPoller::SetPolled(bool polled) {
  // Re-entrancy guard: switching a NIC to interrupt mode can immediately
  // raise an interrupt whose handler makes the CPU busy, which calls back
  // into SetPolled(true) from inside our own loop. Record the latest desired
  // state and let the outermost invocation settle it.
  desired_polled_ = polled;
  if (in_set_polled_) {
    return;
  }
  in_set_polled_ = true;
  while (desired_polled_ != applied_polled_ || !applied_once_) {
    applied_once_ = true;
    bool p = desired_polled_;
    applied_polled_ = p;
    active_ = p;
    for (Nic* nic : nics_) {
      nic->SetMode(p ? Nic::Mode::kPolled : Nic::Mode::kInterrupt);
    }
    if (p) {
      ++stats_.engages;
      // The pause must not read as a low arrival rate, and whatever sat in
      // the rings during the flip gets drained promptly.
      governor_.ReEngage();
      have_last_poll_tick_ = false;
      if (pending_event_.valid()) {
        kernel_->soft_timers().CancelSoftEvent(pending_event_);
      }
      ScheduleNext(governor_.current_interval_ticks());
    } else if (pending_event_.valid()) {
      kernel_->soft_timers().CancelSoftEvent(pending_event_);
      pending_event_ = SoftEventId{};
    }
  }
  in_set_polled_ = false;
}

void SoftTimerNetPoller::ScheduleNext(uint64_t interval_ticks) {
  pending_event_ = kernel_->soft_timers().ScheduleSoftEvent(
      interval_ticks, [this](const SoftTimerFacility::FireInfo&) { OnPollEvent(); });
}

void SoftTimerNetPoller::OnPollEvent() {
  pending_event_ = SoftEventId{};
  if (!active_) {
    return;
  }
  size_t found = 0;
  for (Nic* nic : nics_) {
    found += nic->Poll(config_.max_per_poll);
  }
  ++stats_.polls;
  stats_.packets += found;
  uint64_t now_ticks = kernel_->soft_timers().MeasureTime();
  uint64_t elapsed = have_last_poll_tick_ ? now_ticks - last_poll_tick_ : 0;
  last_poll_tick_ = now_ticks;
  have_last_poll_tick_ = true;
  uint64_t next = governor_.OnPoll(found, elapsed);
  ScheduleNext(next);
}

}  // namespace softtimer
