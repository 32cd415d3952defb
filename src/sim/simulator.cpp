#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace esh::sim {

void EventHandle::cancel() {
  if (simulator_ != nullptr) simulator_->cancel(slot_, seq_);
}

bool EventHandle::pending() const {
  return simulator_ != nullptr && simulator_->live(slot_, seq_);
}

Simulator::~Simulator() {
  // A callback may own an object whose destructor cancels a handle into
  // this simulator: empty the table first, so such a cancel finds no slot.
  SlotPool<Slot> slots = std::move(slots_);
  slots_.clear();
  heap_.clear();
}

EventHandle Simulator::schedule(SimDuration delay, Callback fn) {
  if (delay < SimDuration::zero()) {
    throw std::invalid_argument{"Simulator::schedule: negative delay"};
  }
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime when, Callback fn) {
  if (when < now_) {
    throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
  }
  const std::uint32_t slot = slots_.acquire();
  const std::uint64_t seq = next_seq_++;
  Slot& entry = slots_[slot];
  entry.seq = seq;
  entry.fn = std::move(fn);
  heap_.push_back(Entry{when, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_events_;
  return EventHandle{this, slot, seq};
}

void Simulator::cancel(std::uint32_t slot, std::uint64_t seq) {
  if (!live(slot, seq)) return;  // fired, cancelled, or slot reused
  // The heap entry stays queued and is skipped when it surfaces. The
  // callback dies after the bookkeeping, in case its captures cancel more.
  Callback dead = std::move(slots_[slot].fn);
  slots_[slot].seq = kFreeSlot;
  slots_.release(slot);
  --live_events_;
}

bool Simulator::pop_next(Callback& fn) {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  if (!live(entry.slot, entry.seq)) return false;  // cancelled
  Slot& slot = slots_[entry.slot];
  check_dispatch_order(entry);
  record_dispatch(entry);
  now_ = entry.when;
  // Released before the callback runs: its own handle reads as fired, and
  // an event it schedules (a timer's re-arm) can take the slot straight
  // back.
  fn = std::move(slot.fn);
  slot.seq = kFreeSlot;
  slots_.release(entry.slot);
  --live_events_;
  return true;
}

std::uint64_t Simulator::run() { return run_until(kSimTimeMax); }

std::uint64_t Simulator::run_until(SimTime until) {
  std::uint64_t ran = 0;
  Callback fn;
  while (!heap_.empty() && heap_.front().when <= until) {
    if (!pop_next(fn)) continue;
    fn();
    fn.reset();
    ++ran;
  }
  if (until != kSimTimeMax && now_ < until) now_ = until;
  return ran;
}

bool Simulator::step() {
  Callback fn;
  while (!heap_.empty()) {
    if (!pop_next(fn)) continue;
    fn();
    return true;
  }
  return false;
}

PeriodicTimer::PeriodicTimer(Simulator& simulator, SimDuration period,
                             Callback fn)
    : PeriodicTimer(simulator, period, period, std::move(fn)) {}

PeriodicTimer::PeriodicTimer(Simulator& simulator, SimDuration initial_delay,
                             SimDuration period, Callback fn)
    : simulator_(simulator), period_(period), fn_(std::move(fn)) {
  if (period <= SimDuration::zero()) {
    throw std::invalid_argument{"PeriodicTimer: period must be > 0"};
  }
  arm(initial_delay);
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::stop() {
  running_ = false;
  pending_.cancel();
}

void PeriodicTimer::arm(SimDuration delay) {
  pending_ = simulator_.schedule(delay, [this] { tick(); });
}

void PeriodicTimer::tick() {
  if (!running_) return;
  // Re-arm before running, as the next tick's seq must precede anything
  // `fn_` schedules for the same instant; `fn_` may also stop() the timer.
  // The re-arm reuses a released slot: nothing is allocated per tick.
  arm(period_);
  fn_();
}

}  // namespace esh::sim
