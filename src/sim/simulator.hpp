// Discrete-event simulation kernel. A single Simulator instance drives the
// entire emulated cluster: the network, host CPU scheduling, the
// coordination service, and the pub/sub engine all schedule callbacks on
// its virtual clock. Execution is deterministic: events at equal times fire
// in scheduling order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/callback.hpp"
#include "sim/slot_pool.hpp"

namespace esh::sim {

class Simulator;

// Handle to a scheduled event; allows cancellation. Handles are cheap to
// copy and remain valid (as no-ops) after the event fired or was cancelled,
// for as long as the simulator lives. A handle names its event by the
// event's slot and scheduling sequence number, so a handle to an event
// whose slot was since reused by another event never touches the newcomer.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class Simulator;
  EventHandle(Simulator* simulator, std::uint32_t slot, std::uint64_t seq)
      : simulator_(simulator), slot_(slot), seq_(seq) {}
  Simulator* simulator_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Negative delays are an error.
  EventHandle schedule(SimDuration delay, Callback fn);

  // Schedules at an absolute time >= now.
  EventHandle schedule_at(SimTime when, Callback fn);

  // Runs events until the queue is empty. Returns the number of events run
  // (cancelled events never run and are not counted).
  std::uint64_t run();

  // Runs events with time <= until; the clock ends at `until` even if the
  // queue empties earlier. Returns number of events run.
  std::uint64_t run_until(SimTime until);

  // Runs a single event if one is pending. Returns true if one ran.
  bool step();

  // Both exclude cancelled events.
  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }

#if ESH_INVARIANTS_ENABLED
  // Seeded-fault seam for tests/test_contracts.cpp: warps the virtual clock
  // past queued events so the monotonicity invariant trips on the next run.
  // Compiled only in checked builds; never called by production code.
  void testing_warp_clock(SimTime t) { now_ = t; }
#endif

 private:
  friend class EventHandle;

  // Event core: a slot table holds each scheduled event's callback, and a
  // binary min-heap orders small {when, seq, slot} entries. A slot is
  // released (and its callback destroyed) when its event fires or is
  // cancelled; a cancelled event's heap entry stays queued until it
  // surfaces and is skipped because its slot no longer carries its seq.
  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t seq = kFreeSlot;  // occupant's seq, kFreeSlot when free
    Callback fn;
  };
  struct Entry {
    SimTime when{};
    std::uint64_t seq = 0;  // tie-break: scheduling order
    std::uint32_t slot = 0;
  };
  // Heap order: std::push_heap keeps the "largest" on top, so the later
  // event compares smaller.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool live(std::uint32_t slot, std::uint64_t seq) const {
    return slots_.holds(slot) && slots_[slot].seq == seq;
  }
  void cancel(std::uint32_t slot, std::uint64_t seq);
  // Pops the earliest entry; returns false (and drops it) if it was
  // cancelled, else releases its slot into `fn` and advances the clock.
  bool pop_next(Callback& fn);

  // Dispatch-order invariants (checked builds): virtual time never moves
  // backwards, and events sharing a timestamp fire in scheduling order.
  void check_dispatch_order([[maybe_unused]] const Entry& entry) const {
    ESH_INVARIANT(
        "sim", "event-time-monotonic", entry.when >= now_,
        ::esh::contracts::Detail{}.expected(now_).actual(entry.when).note(
            "dispatch would move the virtual clock backwards"));
    ESH_INVARIANT(
        "sim", "fifo-tie-break",
        entry.when != last_fired_when_ || entry.seq > last_fired_seq_,
        ::esh::contracts::Detail{}
            .expected(std::string("seq > ") +
                      std::to_string(last_fired_seq_))
            .actual(entry.seq)
            .note("same-timestamp events must fire in scheduling order"));
  }
  void record_dispatch(const Entry& entry) {
    last_fired_when_ = entry.when;
    last_fired_seq_ = entry.seq;
  }

  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;  // excludes cancelled-but-queued entries
  SimTime last_fired_when_{SimTime::min()};
  std::uint64_t last_fired_seq_ = 0;
  std::vector<Entry> heap_;
  SlotPool<Slot> slots_;
};

// Repeating timer built on the simulator; used for heartbeats, probe
// windows, and rate-schedule driven sources. Cancellation-safe: destroying
// the timer stops future ticks.
class PeriodicTimer {
 public:
  // `fn` runs every `period`, first at now + period (or now + initial_delay
  // when provided).
  PeriodicTimer(Simulator& simulator, SimDuration period,
                Callback fn);
  PeriodicTimer(Simulator& simulator, SimDuration initial_delay,
                SimDuration period, Callback fn);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm(SimDuration delay);
  void tick();

  Simulator& simulator_;
  SimDuration period_;
  Callback fn_;
  EventHandle pending_;
  bool running_ = true;
};

}  // namespace esh::sim
