#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"

namespace esh::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), kSimTimeZero);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(millis(30), [&] { order.push_back(3); });
  sim.schedule(millis(10), [&] { order.push_back(1); });
  sim.schedule(millis(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), millis(30));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(millis(10), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesDuringCallbacks) {
  Simulator sim;
  SimTime seen{};
  sim.schedule(millis(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, millis(5));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(millis(1), [&] {
    sim.schedule(millis(1), [&] {
      ++fired;
      sim.schedule(millis(1), [&] { ++fired; });
    });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), millis(3));
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(millis(10), [&] { ++fired; });
  sim.schedule(millis(50), [&] { ++fired; });
  EXPECT_EQ(sim.run_until(millis(20)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), millis(20));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NegativeDelayAndPastScheduleThrow) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(millis(-1), [] {}), std::invalid_argument);
  sim.schedule(millis(5), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(millis(1), [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule(millis(5), [&] { ++fired; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, HandleReportsFired) {
  Simulator sim;
  auto handle = sim.schedule(millis(1), [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op after firing
}

TEST(Simulator, StepRunsOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(millis(1), [&] { ++fired; });
  sim.schedule(millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventsLeaveTheCounts) {
  Simulator sim;
  auto handle = sim.schedule(millis(5), [] {});
  handle.cancel();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
  handle.cancel();  // a second cancel is a no-op
  EXPECT_EQ(sim.pending_events(), 0u);

  int fired = 0;
  auto keep = sim.schedule(millis(1), [&] { ++fired; });
  auto drop = sim.schedule(millis(2), [&] { ++fired; });
  sim.schedule(millis(3), [&] { ++fired; });
  drop.cancel();
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(keep.pending());
  // run() counts the non-cancelled events that fired.
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, StaleHandleDoesNotTouchANewerEvent) {
  Simulator sim;
  int fired = 0;
  auto old_handle = sim.schedule(millis(1), [&] { fired += 100; });
  old_handle.cancel();
  // The newer event may take over whatever the cancelled one held.
  auto new_handle = sim.schedule(millis(1), [&] { ++fired; });
  old_handle.cancel();
  EXPECT_FALSE(old_handle.pending());
  EXPECT_TRUE(new_handle.pending());
  sim.run();
  EXPECT_EQ(fired, 1);

  // Same after the first event fired instead of being cancelled.
  auto fired_handle = sim.schedule(millis(1), [&] { ++fired; });
  sim.run();
  auto next_handle = sim.schedule(millis(1), [&] { ++fired; });
  fired_handle.cancel();
  EXPECT_TRUE(next_handle.pending());
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, CancelFromInsideACallback) {
  Simulator sim;
  std::vector<int> order;
  EventHandle later;
  EventHandle self;
  self = sim.schedule(millis(1), [&] {
    order.push_back(1);
    EXPECT_FALSE(self.pending());  // a running event is no longer pending
    self.cancel();                 // no-op on itself
    later.cancel();
    sim.schedule(millis(1), [&] { order.push_back(3); });
  });
  later = sim.schedule(millis(2), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// Differential check of the event core against a std::multimap keyed by
// (when, scheduling order): random schedules, cancels (of live, fired and
// cancelled events alike) and nested schedules from inside callbacks must
// fire in exactly the model's order, and every handle's pending() must
// agree with the model at every step.
TEST(Simulator, RandomInterleavingsMatchAnOrderedMultimap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Simulator sim;
    Rng rng{seed};
    std::multimap<std::pair<SimTime, std::uint64_t>, std::size_t> model;
    std::uint64_t next_order = 0;
    std::vector<EventHandle> handles;
    std::vector<std::size_t> fired;
    std::vector<std::size_t> expected;

    const auto in_model = [&](std::size_t id) {
      for (const auto& [key, value] : model) {
        if (value == id) return true;
      }
      return false;
    };
    const auto check_handles = [&] {
      for (std::size_t id = 0; id < handles.size(); ++id) {
        ASSERT_EQ(handles[id].pending(), in_model(id))
            << "seed " << seed << " event " << id;
      }
    };
    const auto cancel_one = [&] {
      if (handles.empty()) return;
      const auto id =
          static_cast<std::size_t>(rng.next_below(handles.size()));
      handles[id].cancel();
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->second == id) {
          model.erase(it);
          break;
        }
      }
    };
    std::function<void(int)> schedule_one = [&](int depth) {
      const std::size_t id = handles.size();
      const auto delay = micros(static_cast<std::int64_t>(rng.next_below(4)));
      model.emplace(std::make_pair(sim.now() + delay, next_order++), id);
      handles.push_back(sim.schedule(delay, [&, id, depth] {
        fired.push_back(id);
        ASSERT_FALSE(handles[id].pending());
        if (depth < 3) {
          const auto actions = rng.next_below(3);
          for (std::uint64_t a = 0; a < actions; ++a) {
            if (rng.next_below(3) == 0) {
              cancel_one();
            } else {
              schedule_one(depth + 1);
            }
          }
        }
        check_handles();
      }));
    };

    for (int round = 0; round < 60; ++round) {
      const auto op = rng.next_below(4);
      if (op == 0) {
        cancel_one();
      } else if (op == 3 && !model.empty()) {
        // Fire one event: the model says which.
        expected.push_back(model.begin()->second);
        model.erase(model.begin());
        ASSERT_TRUE(sim.step());
        ASSERT_EQ(fired.back(), expected.back()) << "seed " << seed;
        // Nested schedules and cancels happened inside; the model already
        // mirrors them.
      } else {
        schedule_one(0);
      }
      check_handles();
    }
    // Drain: each firing pops the model's head before the callback adds.
    while (!model.empty()) {
      expected.push_back(model.begin()->second);
      model.erase(model.begin());
      ASSERT_TRUE(sim.step());
      ASSERT_EQ(fired.back(), expected.back()) << "seed " << seed;
    }
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(fired, expected);
    check_handles();
  }
}

TEST(SimulatorCallback, SmallClosuresStayInlineAndLargeOnesStillRun) {
  int calls = 0;
  auto small = [&calls, payload = std::make_shared<int>(7)] {
    calls += *payload;
  };
  static_assert(Callback::stores_inline<decltype(small)>);
  Callback inline_fn = small;
  Callback moved = std::move(inline_fn);
  EXPECT_FALSE(inline_fn);
  moved();
  EXPECT_EQ(calls, 7);

  std::array<std::uint64_t, 16> big{};
  big[15] = 5;
  auto large = [&calls, big] { calls += static_cast<int>(big[15]); };
  static_assert(!Callback::stores_inline<decltype(large)>);
  Callback heap_fn = large;
  Callback heap_moved = std::move(heap_fn);
  heap_moved();
  EXPECT_EQ(calls, 12);

  EXPECT_FALSE(Callback{nullptr});
  EXPECT_FALSE(Callback{std::function<void()>{}});
}

TEST(SimulatorSlotPool, LowestFreeFirstAndBurstChunksAreReleased) {
  SlotPool<int> pool;
  constexpr std::uint32_t kChunk = SlotPool<int>::kChunkSlots;
  EXPECT_FALSE(pool.holds(0));
  std::vector<std::uint32_t> taken;
  for (std::uint32_t i = 0; i < 3 * kChunk; ++i) {
    taken.push_back(pool.acquire());
    ASSERT_EQ(taken.back(), i);
  }
  int* stable = &pool[5];
  pool.release(5);
  pool.release(2);
  EXPECT_EQ(pool.acquire(), 2u);  // lowest free index first
  EXPECT_EQ(pool.acquire(), 5u);
  EXPECT_EQ(&pool[5], stable);  // growth never moves an object

  // Drain the burst down to the first chunk: the trailing chunks go, one
  // spare kept.
  for (std::uint32_t i = kChunk; i < 3 * kChunk; ++i) pool.release(i);
  EXPECT_TRUE(pool.holds(2 * kChunk - 1));
  EXPECT_FALSE(pool.holds(2 * kChunk));
  EXPECT_EQ(pool.acquire(), kChunk);  // the spare chunk's first slot
  pool.release(kChunk);
  EXPECT_TRUE(pool.holds(kChunk));
}

TEST(PeriodicTimer, FiresAtPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer{sim, millis(10), [&] { ++ticks; }};
  sim.run_until(millis(35));
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTimer, InitialDelayDiffersFromPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTimer timer{sim, millis(3), millis(10),
                      [&] { fires.push_back(sim.now()); }};
  sim.run_until(millis(30));
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_EQ(fires[0], millis(3));
  EXPECT_EQ(fires[1], millis(13));
  EXPECT_EQ(fires[2], millis(23));
}

TEST(PeriodicTimer, StopWithinCallback) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer{sim, millis(5), [&] {
                        if (++ticks == 2) timer.stop();
                      }};
  sim.run_until(millis(100));
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, RearmKeepsFifoTieBreakAndStopsInsideItsTick) {
  Simulator sim;
  std::vector<std::pair<int, SimTime>> order;
  int ticks = 0;
  // Scheduled before the timer exists: it fires before the tick sharing
  // its timestamp.
  sim.schedule(millis(10), [&] { order.emplace_back(0, sim.now()); });
  PeriodicTimer timer{sim, millis(10), [&] {
                        order.emplace_back(1, sim.now());
                        // Scheduled during the tick, for the next tick's
                        // timestamp: the tick re-armed before running, so
                        // the next tick fires first.
                        sim.schedule(millis(10),
                                     [&] { order.emplace_back(2, sim.now()); });
                        if (++ticks == 3) timer.stop();
                      }};
  sim.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(timer.running());
  EXPECT_TRUE(sim.empty());
  const std::vector<std::pair<int, SimTime>> want{
      {0, millis(10)}, {1, millis(10)}, {1, millis(20)}, {2, millis(20)},
      {1, millis(30)}, {2, millis(30)}, {2, millis(40)}};
  EXPECT_EQ(order, want);
}

TEST(PeriodicTimer, DestructionCancels) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTimer timer{sim, millis(5), [&] { ++ticks; }};
    sim.run_until(millis(12));
  }
  sim.run_until(millis(100));
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTimer, RejectsNonPositivePeriod) {
  Simulator sim;
  EXPECT_THROW((PeriodicTimer{sim, millis(0), [] {}}), std::invalid_argument);
}

}  // namespace
}  // namespace esh::sim
