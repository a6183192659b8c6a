// FaultInjector - interprets a FaultPlan deterministically.
//
// One injector owns one seeded Rng and answers the per-event questions the
// instrumented components ask ("is this trigger swallowed?", "does this
// backup tick survive?", ...). Windows are evaluated against the *true*
// measurement clock handed to the constructor, so injected clock anomalies
// do not shift the other faults' windows.
//
// Typical wiring:
//
//   SimClockSource true_clock(&sim, measure_hz);
//   fault::FaultInjector inj(&true_clock, plan, seed);
//   Kernel kernel(&sim, Kernel::Config{});
//   inj.InstallOn(&kernel);
//   inj.InstallOn(&link);
//   // Clock faults: drive a facility on the perturbed clock directly.
//   SoftTimerFacility fac(inj.faulty_clock(), SoftTimerFacility::Config{});
//
// Every probabilistic decision draws from the injector's Rng in simulation
// event order, so a fixed (plan, seed) perturbs a deterministic simulation
// identically across runs - which is what lets tests assert exact Stats.

#ifndef SOFTTIMER_SRC_FAULT_FAULT_INJECTOR_H_
#define SOFTTIMER_SRC_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/clock_source.h"
#include "src/core/trigger.h"
#include "src/fault/fault_plan.h"
#include "src/fault/faulty_clock_source.h"
#include "src/machine/kernel.h"
#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace softtimer::fault {

class FaultInjector {
 public:
  // `true_clock` must outlive the injector.
  FaultInjector(const ClockSource* true_clock, FaultPlan plan, uint64_t seed);

  // --- per-event queries (also usable directly, without InstallOn) --------
  bool SuppressTrigger(TriggerSource source);
  bool DropBackupInterrupt();
  uint64_t BackupJitterTicks();
  SimDuration HandlerOverrunExtra(uint32_t handler_tag);
  // Evaluates burst_loss (deterministic), then packet_loss (kind-aware
  // probabilistic), then the kind-blind link_faults - first verdict wins.
  Link::FaultAction LinkAction(const Packet& p);

  // Convenience queries for harnesses that drive loss without a Link in the
  // path (e.g. the RTO bench, which models the wire as pure timer traffic).
  // Equivalent to LinkAction on a minimal packet of that kind.
  bool DropDataSegment(uint64_t flow_id = 0);
  bool DropAck(uint64_t flow_id = 0);

  // The measurement clock as perturbed by the plan's stalls/jumps, for a
  // SoftTimerFacility under test (valid for the injector's lifetime;
  // identical to the true clock when the plan has no clock faults).
  const FaultyClockSource* faulty_clock() const { return &faulty_clock_; }

  // Installs the kernel-side fault hooks on `kernel`.
  void InstallOn(Kernel* kernel);
  // Installs the packet-fault hook on `link`.
  void InstallOn(Link* link);

  struct Stats {
    uint64_t triggers_suppressed = 0;
    uint64_t backups_dropped = 0;
    uint64_t backups_jittered = 0;
    uint64_t overruns_injected = 0;
    uint64_t packets_dropped = 0;
    uint64_t packets_duplicated = 0;
    uint64_t data_dropped = 0;   // PacketLoss verdicts on kData
    uint64_t acks_dropped = 0;   // PacketLoss verdicts on kAck
    uint64_t burst_dropped = 0;  // BurstLoss verdicts (any kind)
  };
  const Stats& stats() const { return stats_; }

 private:
  uint64_t TrueNow() const { return true_clock_->NowTicks(); }

  const ClockSource* true_clock_;
  FaultPlan plan_;
  Rng rng_;
  FaultyClockSource faulty_clock_;
  Stats stats_;
  // Per-BurstLoss packets still to drop (parallel to plan_.burst_loss).
  std::vector<uint32_t> burst_remaining_;
};

}  // namespace softtimer::fault

#endif  // SOFTTIMER_SRC_FAULT_FAULT_INJECTOR_H_
