#include "src/pacing/pacing_wheel.h"

#include <algorithm>
#include <cassert>

namespace softtimer {

namespace {

// Drain and cascade sweeps keep this many node prefetches in flight ahead
// of the node being processed; the slot vectors are dense index arrays
// precisely so the sweep's memory traffic is a predictable stream instead
// of a pointer chase. 16 nodes at the ~20 ns/node sweep rate covers a full
// DRAM miss when the slab outgrows the LLC (the 1M-flow point), and the
// prefetch is for WRITE: every swept node is mutated (train state,
// deadline, linkage), so read-intent would eat a second ownership miss on
// the store.
constexpr size_t kPrefetchLookahead = 16;

constexpr uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

PacingWheel::PacingWheel(Config config) : config_(config) {
  assert(config_.quantum_ticks > 0);
  // The occupancy scan walks whole 64-bit words; a minimum of 64 slots keeps
  // it trivially correct, and nobody wants a smaller wheel anyway.
  num_slots_ = RoundUpPow2(std::max<uint32_t>(config_.num_slots, 64));
  slot_mask_ = num_slots_ - 1;
  assert(config_.quantum_ticks * num_slots_ <= UINT32_MAX &&
         "wheel horizon must stay addressable by 32-bit delays");
  outer_slots_count_ = RoundUpPow2(std::max<uint32_t>(config_.overflow_slots, 2));
  outer_mask_ = outer_slots_count_ - 1;
  if (config_.max_batch == 0) {
    config_.max_batch = 1;
  }
  slots_.resize(num_slots_);
  outer_slots_.resize(outer_slots_count_);
  occupancy_.assign(num_slots_ / 64, 0);
  if (config_.reserve_slot_capacity > 0) {
    for (Slot& slot : slots_) {
      slot.entries.reserve(config_.reserve_slot_capacity);
    }
    scratch_.reserve(config_.reserve_slot_capacity);
    batch_.reserve(config_.max_batch);
    slot_capacity_high_water_ = config_.reserve_slot_capacity;
  }
}

void PacingWheel::set_max_batch(size_t max_batch) {
  assert(!draining_ && "retune batches from control paths, not mid-drain");
  config_.max_batch = std::max<size_t>(max_batch, 1);
  if (batch_.capacity() < config_.max_batch) {
    batch_.reserve(config_.max_batch);
  }
}

PacedFlowId PacingWheel::AddFlow(const PacedFlowConfig& config) {
  assert(config.target_interval_ticks > 0);
  uint32_t index = slab_.Allocate();
  PacedFlowNode& node = slab_.at(index);
  node.flags = 0;
  node.slot = kNilPacingSlot;
  node.next = kNilTimerIndex;
  node.deadline = 0;
  node.train = PacedTrain{};
  uint64_t target = std::min<uint64_t>(config.target_interval_ticks, UINT32_MAX);
  node.target_interval_ticks = static_cast<uint32_t>(target);
  node.min_burst_interval_ticks = static_cast<uint32_t>(std::clamp<uint64_t>(
      config.min_burst_interval_ticks, 1, target));
  node.max_coalesced_burst_packets = config.max_coalesced_burst_packets;
  // UINT32_MAX is the internal "unlimited" sentinel (config 0).
  node.packets_remaining =
      config.packet_budget == 0 ? UINT32_MAX
                                : std::min(config.packet_budget, UINT32_MAX - 1);
  node.user_data = config.user_data;
  return PacedFlowId{PackTimerIdValue(index, node.generation)};
}

// SOFTTIMER_COLD: amortized slot-vector growth - entered only when a slot
// sits exactly at capacity, and capacity jumps straight to the global
// high-water mark, so steady state re-enters only when the process-wide
// occupancy record is broken (see slot_capacity_high_water_).
void PacingWheel::GrowSlotEntries(Slot& slot) {
  size_t doubled = slot.entries.capacity() == 0 ? 8 : slot.entries.capacity() * 2;
  slot.entries.reserve(std::max<size_t>(doubled, slot_capacity_high_water_));
}

void PacingWheel::ParkNode(uint32_t index, PacedFlowNode& node) {
  uint32_t oi = OuterSlotIndexFor(node.deadline);
  Slot& slot = outer_slots_[oi];
  node.slot = kOuterPacingSlotBase + oi;
  node.next = static_cast<uint32_t>(slot.entries.size());
  if (slot.entries.size() == slot.entries.capacity()) {
    GrowSlotEntries(slot);
  }
  slot.entries.push_back(index);  // lint:allow-alloc
  if (node.deadline < slot.min_deadline) {
    slot.min_deadline = node.deadline;
  }
  if (node.deadline < next_due_tick_) {
    next_due_tick_ = node.deadline;
  }
  ++parked_;
}

void PacingWheel::UnlinkParked(uint32_t index, PacedFlowNode& node) {
  Slot& slot = outer_slots_[node.slot - kOuterPacingSlotBase];
  uint32_t pos = node.next;
  uint32_t moved = slot.entries.back();
  slot.entries[pos] = moved;
  slab_.at(moved).next = pos;
  slot.entries.pop_back();
  if (slot.entries.empty()) {
    slot.min_deadline = UINT64_MAX;
  }
  node.slot = kNilPacingSlot;
  node.next = kNilTimerIndex;
  (void)index;
  --parked_;
  if (queued_ == 0 && parked_ == 0) {
    next_due_tick_ = UINT64_MAX;
  }
}

void PacingWheel::AttachNode(uint32_t index, PacedFlowNode& node,
                             uint64_t now_tick) {
  // Mirrors the pre-overflow-ring clamp bound: a deadline the inner wheel
  // can represent without aliasing the current quantum links directly;
  // anything farther parks (exact, never clamped).
  if (node.deadline - now_tick <= horizon_ticks() - config_.quantum_ticks) {
    LinkNode(index, node);
  } else {
    ParkNode(index, node);
    ++stats_.overflow_parks;
  }
}

bool PacingWheel::IsLinked(uint32_t index, const PacedFlowNode& node) const {
  return node.slot < num_slots_ &&
         node.next < slots_[node.slot].entries.size() &&
         slots_[node.slot].entries[node.next] == index;
}

void PacingWheel::LinkNode(uint32_t index, PacedFlowNode& node) {
  uint32_t s = SlotIndexFor(node.deadline);
  Slot& slot = slots_[s];
  node.slot = s;
  node.next = static_cast<uint32_t>(slot.entries.size());
  if (slot.entries.size() == slot.entries.capacity()) {
    GrowSlotEntries(slot);
  }
  slot.entries.push_back(index);  // lint:allow-alloc
  if (slot.entries.capacity() > slot_capacity_high_water_) {
    slot_capacity_high_water_ = static_cast<uint32_t>(slot.entries.capacity());
  }
  if (node.next == 0) {
    MarkOccupied(s);
  }
  if (node.deadline < slot.min_deadline) {
    slot.min_deadline = node.deadline;
  }
  if (node.deadline < next_due_tick_) {
    next_due_tick_ = node.deadline;
  }
  ++queued_;
}

void PacingWheel::UnlinkNode(uint32_t index, PacedFlowNode& node) {
  Slot& slot = slots_[node.slot];
  uint32_t pos = node.next;
  uint32_t moved = slot.entries.back();
  slot.entries[pos] = moved;
  slab_.at(moved).next = pos;
  slot.entries.pop_back();
  if (slot.entries.empty()) {
    ClearOccupied(node.slot);
    slot.min_deadline = UINT64_MAX;
  }
  // A non-empty slot keeps a possibly stale-low min_deadline; that costs at
  // most one early wheel wake, never a late one. Same for next_due_tick_,
  // except when the wheel just went empty: then the gate resets exactly, so
  // an idle wheel never takes a spurious wake.
  node.slot = kNilPacingSlot;
  node.next = kNilTimerIndex;
  (void)index;
  --queued_;
  if (queued_ == 0 && parked_ == 0) {
    next_due_tick_ = UINT64_MAX;
  }
}

// SOFTTIMER_HOT
bool PacingWheel::Activate(PacedFlowId id, uint64_t now_tick,
                           uint64_t initial_delay_ticks) {
  if (!slab_.IsCurrent(id.value)) {
    return false;
  }
  uint32_t index = TimerIdIndex(id.value);
  PacedFlowNode& node = slab_.at(index);
  if (node.state == TimerNodeState::kCancelledDue &&
      (node.flags & kPacedFlowFlagIdleOnDue) == 0) {
    return false;  // RemoveFlow already claimed it mid-drain
  }
  bool detached = false;
  if (IsParked(node)) {
    UnlinkParked(index, node);
  } else if (IsLinked(index, node)) {
    UnlinkNode(index, node);
  } else if (node.slot != kNilPacingSlot) {
    // Sitting in the drain scratch of the slot being swept: update in place
    // and let the sweep's keep path relink it (linking here would leave two
    // live references to the node).
    detached = true;
  }
  node.state = TimerNodeState::kPending;
  node.flags = 0;
  node.deadline = now_tick + 1 + initial_delay_ticks;
  // Anchor the train at the scheduled first-emission tick, so only genuine
  // dispatch lateness (not the activation stagger) trips the first-packet
  // catch-up clamp.
  node.train.Start(node.deadline);
  if (!detached) {
    AttachNode(index, node, now_tick);
  }
  ++stats_.activations;
  return true;
}

// SOFTTIMER_HOT
bool PacingWheel::Deactivate(PacedFlowId id) {
  if (!slab_.IsCurrent(id.value)) {
    return false;
  }
  uint32_t index = TimerIdIndex(id.value);
  PacedFlowNode& node = slab_.at(index);
  if (node.state == TimerNodeState::kCancelledDue) {
    return true;  // removal or deactivation already pending
  }
  if (IsParked(node)) {
    UnlinkParked(index, node);
    ++stats_.deactivations;
    return true;
  }
  if (IsLinked(index, node)) {
    UnlinkNode(index, node);
    ++stats_.deactivations;
    return true;
  }
  if (node.slot != kNilPacingSlot) {
    // Mid-drain, detached into the sweep scratch: defer — the sweep frees
    // no storage and emits nothing for kCancelledDue nodes, and the idle
    // flag tells it to park the flow instead of freeing it.
    node.state = TimerNodeState::kCancelledDue;
    node.flags |= kPacedFlowFlagIdleOnDue;
    ++stats_.deferred_cancels;
    ++stats_.deactivations;
  }
  return true;  // already idle: idempotent success
}

bool PacingWheel::RemoveFlow(PacedFlowId id) {
  if (!slab_.IsCurrent(id.value)) {
    return false;
  }
  uint32_t index = TimerIdIndex(id.value);
  PacedFlowNode& node = slab_.at(index);
  if (node.state == TimerNodeState::kCancelledDue) {
    node.flags &= ~kPacedFlowFlagIdleOnDue;  // upgrade deactivate to removal
    return true;
  }
  if (IsParked(node)) {
    UnlinkParked(index, node);
  } else if (IsLinked(index, node)) {
    UnlinkNode(index, node);
  } else if (node.slot != kNilPacingSlot) {
    node.state = TimerNodeState::kCancelledDue;
    node.flags &= ~kPacedFlowFlagIdleOnDue;
    ++stats_.deferred_cancels;
    return true;  // the sweep frees the node when it reaches it
  }
  slab_.Free(index);
  return true;
}

// SOFTTIMER_HOT
bool PacingWheel::ReRate(PacedFlowId id, uint64_t now_tick,
                         uint64_t target_interval_ticks,
                         uint64_t min_burst_interval_ticks) {
  if (!slab_.IsCurrent(id.value) || target_interval_ticks == 0) {
    return false;
  }
  uint32_t index = TimerIdIndex(id.value);
  PacedFlowNode& node = slab_.at(index);
  if (node.state == TimerNodeState::kCancelledDue &&
      (node.flags & kPacedFlowFlagIdleOnDue) == 0) {
    return false;
  }
  uint64_t target = std::min<uint64_t>(target_interval_ticks, UINT32_MAX);
  node.target_interval_ticks = static_cast<uint32_t>(target);
  node.min_burst_interval_ticks = static_cast<uint32_t>(
      std::clamp<uint64_t>(min_burst_interval_ticks, 1, target));
  ++stats_.re_rates;
  bool parked = IsParked(node);
  bool linked = !parked && IsLinked(index, node);
  bool detached = !parked && !linked && node.slot != kNilPacingSlot;
  if (!parked && !linked && !detached) {
    return true;  // idle: the new rate applies on the next Activate
  }
  // The rate change applies immediately: the pending emission moves to the
  // next tick and a fresh train starts there (so the new schedule line is
  // anchored at the re-rate, not at history under the old rate). A parked
  // flow re-rated to a representable interval leaves the overflow ring now,
  // not at its old far-future cascade.
  if (parked) {
    UnlinkParked(index, node);
  } else if (linked) {
    UnlinkNode(index, node);
  }
  node.state = TimerNodeState::kPending;
  node.flags = 0;
  node.deadline = now_tick + 1;
  node.train.Start(node.deadline);
  if (parked || linked) {
    LinkNode(index, node);
  }
  return true;
}

// SOFTTIMER_HOT
bool PacingWheel::AddBudget(PacedFlowId id, uint64_t now_tick,
                            uint32_t packets) {
  if (!slab_.IsCurrent(id.value)) {
    return false;
  }
  uint32_t index = TimerIdIndex(id.value);
  PacedFlowNode& node = slab_.at(index);
  if (node.state == TimerNodeState::kCancelledDue &&
      (node.flags & kPacedFlowFlagIdleOnDue) == 0) {
    return false;
  }
  if (node.packets_remaining == UINT32_MAX) {
    return true;  // unlimited
  }
  bool was_exhausted = node.packets_remaining == 0;
  uint64_t next = static_cast<uint64_t>(node.packets_remaining) + packets;
  node.packets_remaining =
      static_cast<uint32_t>(std::min<uint64_t>(next, UINT32_MAX - 1));
  if (was_exhausted && node.state == TimerNodeState::kPending &&
      node.slot == kNilPacingSlot) {
    // Auto-idled on exhaustion: resume at the next tick, train continued
    // (the backlog is bounded by the coalesced-burst cap, not replayed).
    node.deadline = now_tick + 1;
    LinkNode(index, node);
  }
  return true;
}

bool PacingWheel::active(PacedFlowId id) const {
  if (!slab_.IsCurrent(id.value)) {
    return false;
  }
  uint32_t index = TimerIdIndex(id.value);
  const PacedFlowNode& node = slab_.at(index);
  if (node.state == TimerNodeState::kCancelledDue) {
    return false;
  }
  return node.slot != kNilPacingSlot;
}

void PacingWheel::FlushBatch(BatchSink* sink, uint64_t now_tick) {
  if (batch_.empty()) {
    return;
  }
  ++stats_.batch_flushes;
  sink->OnPacedBatch(batch_.data(), batch_.size(), now_tick);
  batch_.clear();
}

void PacingWheel::PrefetchNextDue(PrefetchCursor& pf, uint64_t last,
                                  uint64_t now_tick, uint64_t detached_tick) {
  // Every read is bounds-checked against the vector's current size: sink
  // callbacks may swap-remove entries, and keep/re-bucket appends may grow
  // (and reallocate) a vector the cursor points into. A position that has
  // shifted under the cursor only costs a wasted hint.
  while (pf.tick <= last) {
    const std::vector<uint32_t>* entries = &scratch_;
    if (pf.tick != detached_tick) {
      const Slot& slot = slots_[SlotIndexFor(pf.tick)];
      entries = slot.min_deadline <= now_tick ? &slot.entries : nullptr;
    }
    if (entries != nullptr && pf.pos < entries->size()) {
      __builtin_prefetch(&slab_.at((*entries)[pf.pos++]), 1);
      return;
    }
    pf.tick += config_.quantum_ticks;
    pf.pos = 0;
  }
}

// SOFTTIMER_HOT
size_t PacingWheel::Drain(uint64_t now_tick, BatchSink* sink) {
  assert(!draining_ && "PacingWheel::Drain is not reentrant");
  if (now_tick < next_due_tick_) {
    ++stats_.spurious_drains;
    return 0;
  }
  ++stats_.drains;
  draining_ = true;
  // Move every due outer window into the inner wheel first, so the sweep
  // below sees cascaded entries as ordinary slot members. Runs before any
  // sink callback: mutators never observe a node detached from the outer
  // ring.
  CascadeOverflow(now_tick);
  const uint64_t q = config_.quantum_ticks;
  const uint64_t horizon = horizon_ticks();
  uint64_t last = now_tick - (now_tick % q);  // current quantum's slot tick
  uint64_t cursor = cursor_tick_;
  if (last >= cursor + horizon) {
    // The wheel stalled for more than a lap: one pass over every slot
    // covers all of it, so fast-forward instead of sweeping laps.
    cursor = last - horizon + q;
  }
  size_t granted = 0;
  // One rolling prefetch window for the whole drain: prime it with the
  // first kPrefetchLookahead due nodes (across slot boundaries, so a drain
  // of a handful of small slots still overlaps all of their misses), then
  // issue one more prefetch per node swept.
  PrefetchCursor pf{cursor, 0};
  for (size_t k = 0; k < kPrefetchLookahead; ++k) {
    PrefetchNextDue(pf, last, now_tick, UINT64_MAX);
  }
  for (;; cursor += q) {
    uint32_t s = SlotIndexFor(cursor);
    Slot& slot = slots_[s];
    // min_deadline is a conservative lower bound, so this early-out never
    // skips a due node; it makes re-sweeps of the current quantum's slot
    // (which is never marked fully swept) O(1).
    if (!slot.entries.empty() && slot.min_deadline <= now_tick) {
      // Detach the whole slot in O(1). Mutators called from the sink
      // detect "in scratch, not linked" and defer; swapping also recycles
      // vector capacity between the slot and the scratch.
      scratch_.swap(slot.entries);
      slot.min_deadline = UINT64_MAX;
      ClearOccupied(s);
      queued_ -= scratch_.size();
      for (size_t i = 0; i < scratch_.size(); ++i) {
        if (pf.tick == cursor && pf.pos < scratch_.size()) {
          // Fast path: the window is still inside the slot being swept.
          __builtin_prefetch(&slab_.at(scratch_[pf.pos++]), 1);
        } else {
          PrefetchNextDue(pf, last, now_tick, cursor);
        }
        uint32_t index = scratch_[i];
        PacedFlowNode& node = slab_.at(index);
        if (node.state == TimerNodeState::kCancelledDue) {
          // Deferred mid-drain mutation: park or free, emit nothing.
          if ((node.flags & kPacedFlowFlagIdleOnDue) != 0) {
            node.state = TimerNodeState::kPending;
            node.flags = 0;
            node.slot = kNilPacingSlot;
            node.next = kNilTimerIndex;
          } else {
            slab_.Free(index);
          }
          continue;
        }
        if (node.deadline > now_tick) {
          // Quantization never fires early: re-keep until the exact tick.
          // AttachNode: a sink callback may have re-aimed a detached node
          // past the horizon (it parks), and a freshly cascaded entry can
          // still be up to one horizon out when its aliased slot is swept.
          ++stats_.keep_requeues;
          AttachNode(index, node, now_tick);
          continue;
        }
        uint64_t grant = node.train.BurstBudget(now_tick,
                                                node.target_interval_ticks,
                                                node.max_coalesced_burst_packets);
        bool exhausted = false;
        if (node.packets_remaining != UINT32_MAX) {
          grant = std::min<uint64_t>(grant, node.packets_remaining);
          node.packets_remaining -= static_cast<uint32_t>(grant);
          exhausted = node.packets_remaining == 0;
        }
        PacedTrain::SendDecision d = node.train.OnBurstSent(
            now_tick, grant, node.target_interval_ticks,
            node.min_burst_interval_ticks);
        if (d.catch_up) {
          ++stats_.catchup_decisions;
        }
        if (grant > 1) {
          ++stats_.coalesced_bursts;
        }
        granted += grant;
        ++stats_.emits;
        stats_.packets_granted += grant;
        if (exhausted) {
          ++stats_.budget_exhausted;
          node.slot = kNilPacingSlot;
          node.next = kNilTimerIndex;
        } else {
          node.deadline = now_tick + d.next_delay_ticks;
          AttachNode(index, node, now_tick);
        }
        // Relink-then-emit: by the time the sink sees the record the flow
        // is in a normal linked/idle state, so sink callbacks mutate it
        // through the ordinary O(1) paths.
        // Amortized: batch_ capacity is bounded by max_batch (reserved in
        // the constructor) and FlushBatch clears without shrinking.
        batch_.push_back(  // lint:allow-alloc
            PacedEmit{PacedFlowId{PackTimerIdValue(index, node.generation)},
                      node.user_data, static_cast<uint32_t>(grant), exhausted});
        if (batch_.size() >= config_.max_batch) {
          FlushBatch(sink, now_tick);
        }
      }
      scratch_.clear();
    }
    if (cursor == last) {
      break;
    }
  }
  // The current quantum's slot is never marked fully swept: a node due
  // later in this same quantum (deadline > now, same slot) must be swept
  // again by the next drain.
  cursor_tick_ = last;
  FlushBatch(sink, now_tick);
  draining_ = false;
  RecomputeNextDue(now_tick + 1);
  return granted;
}

void PacingWheel::CascadeOuterSlot(uint32_t outer_index, uint64_t now_tick) {
  Slot& slot = outer_slots_[outer_index];
  if (slot.entries.empty()) {
    return;
  }
  const uint64_t horizon = horizon_ticks();
  // Detach the whole outer slot (recycling vector capacity through the
  // scratch, like the inner sweep), then re-home every entry: current-lap
  // deadlines are now within one horizon and link inner; later laps
  // re-park into the same outer slot for a future pass of the cursor.
  outer_scratch_.swap(slot.entries);
  slot.min_deadline = UINT64_MAX;
  parked_ -= outer_scratch_.size();
  // An outer window holds thousands of cold nodes at scale: keep the same
  // lookahead in flight as the drain sweep instead of missing on each one.
  const size_t n = outer_scratch_.size();
  for (size_t i = 0; i < std::min(n, kPrefetchLookahead); ++i) {
    __builtin_prefetch(&slab_.at(outer_scratch_[i]), 1);
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchLookahead < n) {
      __builtin_prefetch(&slab_.at(outer_scratch_[i + kPrefetchLookahead]), 1);
    }
    uint32_t index = outer_scratch_[i];
    PacedFlowNode& node = slab_.at(index);
    if (node.deadline < now_tick + horizon) {
      LinkNode(index, node);
      ++stats_.overflow_cascades;
    } else {
      ParkNode(index, node);
      ++stats_.overflow_reparks;
    }
  }
  outer_scratch_.clear();
}

void PacingWheel::CascadeOverflow(uint64_t now_tick) {
  if (parked_ == 0 || outer_cursor_tick_ > now_tick) {
    return;
  }
  const uint64_t horizon = horizon_ticks();
  const uint64_t outer_span = horizon * outer_slots_count_;
  if (now_tick - outer_cursor_tick_ >= outer_span) {
    // The cursor lags by a full outer lap (a long stall, or the first park
    // after an idle stretch left it far behind): one pass over every outer
    // slot covers the whole ring, so fast-forward instead of walking
    // windows one horizon at a time.
    for (uint32_t oi = 0; oi < outer_slots_count_; ++oi) {
      CascadeOuterSlot(oi, now_tick);
    }
    outer_cursor_tick_ = now_tick - (now_tick % horizon) + horizon;
    return;
  }
  while (outer_cursor_tick_ <= now_tick) {
    CascadeOuterSlot(OuterSlotIndexFor(outer_cursor_tick_), now_tick);
    outer_cursor_tick_ += horizon;
  }
}

void PacingWheel::RecomputeNextDue(uint64_t from_tick) {
  uint64_t due = UINT64_MAX;
  if (queued_ > 0) {
    // All inner deadlines lie within one horizon of from_tick (enqueues
    // past the horizon park in the overflow ring and drains fire everything
    // overdue), so the first occupied slot in circular order from
    // from_tick's slot holds the inner-wheel earliest deadline, and its
    // per-slot min is (a conservative bound on) it.
    uint32_t start = SlotIndexFor(from_tick);
    uint32_t scanned = 0;
    while (scanned < num_slots_) {
      uint32_t s = (start + scanned) & slot_mask_;
      uint64_t word = occupancy_[s >> 6] >> (s & 63);
      if (word == 0) {
        scanned += 64 - (s & 63);  // to the next word boundary
        continue;
      }
      uint32_t adv = static_cast<uint32_t>(__builtin_ctzll(word));
      scanned += adv;
      if (scanned >= num_slots_) {
        break;
      }
      const Slot& next = slots_[(s + adv) & slot_mask_];
      due = next.min_deadline;
      // The next drain starts with this slot's index buffer; fetch it while
      // the shard sleeps or runs other work.
      __builtin_prefetch(next.entries.data());
      break;
    }
  }
  if (parked_ > 0) {
    // The outer ring is small (a few dozen slots): a linear min over the
    // per-slot bounds folds parked deadlines into the wake-up gate, so the
    // wheel event fires in time to cascade them.
    for (const Slot& slot : outer_slots_) {
      if (slot.min_deadline < due) {
        due = slot.min_deadline;
      }
    }
  }
  next_due_tick_ = due;
}

size_t PacingWheel::TrimStorage() {
  assert(!draining_);
  for (Slot& slot : slots_) {
    if (slot.entries.empty() && slot.entries.capacity() != 0) {
      std::vector<uint32_t>().swap(slot.entries);
    }
  }
  for (Slot& slot : outer_slots_) {
    if (slot.entries.empty() && slot.entries.capacity() != 0) {
      std::vector<uint32_t>().swap(slot.entries);
    }
  }
  std::vector<uint32_t>().swap(scratch_);
  std::vector<uint32_t>().swap(outer_scratch_);
  std::vector<PacedEmit>().swap(batch_);
  // The global record resets with the storage: after a trim the workload is
  // presumed to have changed shape, so re-grown slots should not jump back
  // to the old peak.
  slot_capacity_high_water_ = config_.reserve_slot_capacity;
  return slab_.Trim();
}

}  // namespace softtimer
