#include <gtest/gtest.h>

#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/host.hpp"
#include "cluster/iaas.hpp"
#include "sim/simulator.hpp"

namespace esh::cluster {
namespace {

class HostTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  HostSpec spec{2, 1e6};  // 2 cores, 1 unit = 1 us
  Host host{sim, HostId{1}, spec};
  SliceId s1{101}, s2{102};
};

TEST_F(HostTest, SingleJobRunsForItsCost) {
  bool done = false;
  host.submit(s1, LockMode::kNone, 1000.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), millis(1));
  EXPECT_DOUBLE_EQ(host.busy_core_us(), 1000.0);
}

TEST_F(HostTest, JobsOfDistinctSlicesUseBothCores) {
  int done = 0;
  host.submit(s1, LockMode::kWrite, 1000.0, [&] { ++done; });
  host.submit(s2, LockMode::kWrite, 1000.0, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(sim.now(), millis(1));  // parallel, not 2 ms
}

TEST_F(HostTest, WriteJobsOfSameSliceSerialize) {
  std::vector<int> order;
  host.submit(s1, LockMode::kWrite, 1000.0, [&] { order.push_back(1); });
  host.submit(s1, LockMode::kWrite, 1000.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), millis(2));  // serialized on the slice lock
}

TEST_F(HostTest, ReadJobsOfSameSliceRunConcurrently) {
  int done = 0;
  host.submit(s1, LockMode::kRead, 1000.0, [&] { ++done; });
  host.submit(s1, LockMode::kRead, 1000.0, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(sim.now(), millis(1));  // R jobs parallelize across cores
}

TEST_F(HostTest, WriteWaitsForRunningReads) {
  std::vector<int> order;
  host.submit(s1, LockMode::kRead, 1000.0, [&] { order.push_back(1); });
  host.submit(s1, LockMode::kWrite, 500.0, [&] { order.push_back(2); });
  host.submit(s1, LockMode::kRead, 100.0, [&] { order.push_back(3); });
  sim.run();
  // FIFO per slice: W waits for the first R; the second R waits behind W.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), micros(1'600));
}

TEST_F(HostTest, MoreJobsThanCoresQueue) {
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    host.submit(SliceId{200 + static_cast<std::uint64_t>(i)},
                LockMode::kNone, 1000.0, [&] { ++done; });
  }
  sim.run_until(millis(1));
  EXPECT_EQ(done, 2);  // only 2 cores
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(sim.now(), millis(2));
}

TEST_F(HostTest, UtilizationOverWindow) {
  const double start = host.busy_core_us_now();
  host.submit(s1, LockMode::kNone, 10'000.0, nullptr);
  sim.run_until(millis(10));
  // One core busy 10 of 10 ms over 2 cores -> 50 %.
  EXPECT_NEAR(host.utilization(start, millis(10)), 0.5, 0.01);
}

TEST_F(HostTest, RunningJobsCountTowardLiveUtilization) {
  const double start = host.busy_core_us_now();
  host.submit(s1, LockMode::kNone, 100'000.0, nullptr);  // 100 ms
  sim.run_until(millis(10));
  // Job still running: its elapsed 10 ms must count.
  EXPECT_NEAR(host.utilization(start, millis(10)), 0.5, 0.01);
}

TEST_F(HostTest, PerSliceAccounting) {
  host.submit(s1, LockMode::kNone, 2000.0, nullptr);
  host.submit(s2, LockMode::kNone, 1000.0, nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(host.slice_busy_core_us(s1), 2000.0);
  EXPECT_DOUBLE_EQ(host.slice_busy_core_us(s2), 1000.0);
}

TEST_F(HostTest, ForgetSliceRequiresIdle) {
  host.submit(s1, LockMode::kWrite, 1000.0, nullptr);
  EXPECT_TRUE(host.has_pending_work(s1));
  EXPECT_THROW(host.forget_slice(s1), std::logic_error);
  sim.run();
  EXPECT_FALSE(host.has_pending_work(s1));
  host.forget_slice(s1);
  EXPECT_DOUBLE_EQ(host.slice_busy_core_us(s1), 0.0);
}

TEST_F(HostTest, RejectsNegativeCost) {
  EXPECT_THROW(host.submit(s1, LockMode::kNone, -1.0, nullptr),
               std::invalid_argument);
}

TEST_F(HostTest, CompletionCallbackMaySubmitMoreWork) {
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 3) host.submit(s1, LockMode::kWrite, 100.0, next);
  };
  host.submit(s1, LockMode::kWrite, 100.0, next);
  sim.run();
  EXPECT_EQ(chain, 3);
}

TEST_F(HostTest, SaturatedSlicesShareCoresFairly) {
  // Regression: with more queued work than cores, co-located slices must
  // progress at (nearly) the same rate — the EP operator awaits the
  // slowest M slice, so unfairness directly caps system throughput.
  std::vector<int> done(4, 0);
  for (int round = 0; round < 200; ++round) {
    for (int s = 0; s < 4; ++s) {
      host.submit(SliceId{300 + static_cast<std::uint64_t>(s)},
                  LockMode::kRead, 1000.0, [&done, s] { ++done[s]; });
    }
  }
  // 2 cores, 1 ms jobs: ~100 jobs finish in 50 ms, ~25 per slice.
  sim.run_until(millis(50));
  for (int s = 0; s < 4; ++s) {
    EXPECT_GE(done[s], 20) << "slice " << s << " starved";
    EXPECT_LE(done[s], 30) << "slice " << s << " hogged";
  }
}

// Pins live accounting exactly: overlapping kRead, kWrite and kNone jobs of
// two slices and slice-less work on 2 cores. Schedule (us):
//   s1 R 1000 [0,1000]   s1 R 2000 [0,2000]   s2 W 1500 [1000,2500]
//   -- N 800 [2000,2800] s1 W 500 [2500,3000] s2 N 300 [2800,3100]
TEST_F(HostTest, LiveAccountingAcrossModesAndSlices) {
  const SliceId none = SliceId::invalid();
  host.submit(s1, LockMode::kRead, 1000.0, nullptr);
  host.submit(s1, LockMode::kRead, 2000.0, nullptr);
  host.submit(s2, LockMode::kWrite, 1500.0, nullptr);
  host.submit(none, LockMode::kNone, 800.0, nullptr);
  host.submit(s1, LockMode::kWrite, 500.0, nullptr);
  host.submit(s2, LockMode::kNone, 300.0, nullptr);
  EXPECT_EQ(host.running_jobs(), 2);
  EXPECT_EQ(host.queued_jobs(), 4u);

  struct Probe {
    std::int64_t at_us;
    double busy, s1_busy, s2_busy, none_busy;
    bool s1_pending, s2_pending, none_pending;
  };
  const std::vector<Probe> probes{
      {500, 1000, 1000, 0, 0, true, true, true},
      {1500, 3000, 2500, 500, 0, true, true, true},
      {2600, 5200, 3100, 1500, 600, true, true, true},
      // s2's only job is a running kNone one: it still counts as pending.
      {2900, 5800, 3400, 1600, 800, true, true, false},
      {3050, 6050, 3500, 1750, 800, false, true, false},
      {3100, 6100, 3500, 1800, 800, false, false, false},
  };
  for (const Probe& p : probes) {
    sim.run_until(micros(p.at_us));
    SCOPED_TRACE(p.at_us);
    EXPECT_EQ(host.busy_core_us_now(), p.busy);
    EXPECT_EQ(host.slice_busy_core_us_now(s1), p.s1_busy);
    EXPECT_EQ(host.slice_busy_core_us_now(s2), p.s2_busy);
    EXPECT_EQ(host.slice_busy_core_us_now(none), p.none_busy);
    EXPECT_EQ(host.has_pending_work(s1), p.s1_pending);
    EXPECT_EQ(host.has_pending_work(s2), p.s2_pending);
    EXPECT_EQ(host.has_pending_work(none), p.none_pending);
  }
  EXPECT_EQ(host.busy_core_us(), 6100.0);
  EXPECT_EQ(host.slice_busy_core_us(s1), 3500.0);
  EXPECT_EQ(host.slice_busy_core_us(s2), 1800.0);
  EXPECT_EQ(host.slice_busy_core_us(none), 800.0);
  EXPECT_EQ(host.running_jobs(), 0);
  EXPECT_EQ(host.queued_jobs(), 0u);

  // Forgetting a slice drops its counters but not the host's; the same id
  // then starts from zero.
  host.forget_slice(s1);
  EXPECT_EQ(host.slice_busy_core_us(s1), 0.0);
  EXPECT_EQ(host.busy_core_us(), 6100.0);
  EXPECT_FALSE(host.has_pending_work(s1));
  host.submit(s1, LockMode::kWrite, 400.0, nullptr);
  EXPECT_TRUE(host.has_pending_work(s1));
  sim.run_until(micros(3300));
  EXPECT_EQ(host.slice_busy_core_us_now(s1), 200.0);
  EXPECT_EQ(host.busy_core_us_now(), 6300.0);
  sim.run();
  EXPECT_EQ(sim.now(), micros(3500));
  EXPECT_EQ(host.slice_busy_core_us(s1), 400.0);
  EXPECT_EQ(host.slice_busy_core_us(s2), 1800.0);
  EXPECT_EQ(host.busy_core_us(), 6500.0);
  EXPECT_FALSE(host.has_pending_work(s1));
}

TEST(HostSpecTest, RejectsBadSpec) {
  sim::Simulator sim;
  EXPECT_THROW((Host{sim, HostId{1}, HostSpec{0, 1e6}}),
               std::invalid_argument);
  EXPECT_THROW((Host{sim, HostId{1}, HostSpec{2, 0.0}}),
               std::invalid_argument);
}

TEST(IaasPool, AllocateBootsAfterDelay) {
  sim::Simulator sim;
  IaasConfig config;
  config.boot_delay = seconds(2);
  IaasPool pool{sim, config};
  bool ready = false;
  const HostId id = pool.allocate([&](Host& h) {
    ready = true;
    EXPECT_EQ(h.id(), id);
  });
  EXPECT_TRUE(pool.active(id));
  EXPECT_FALSE(ready);
  sim.run_until(seconds(1));
  EXPECT_FALSE(ready);
  sim.run();
  EXPECT_TRUE(ready);
}

TEST(IaasPool, ExhaustionThrows) {
  sim::Simulator sim;
  IaasConfig config;
  config.max_hosts = 2;
  IaasPool pool{sim, config};
  pool.allocate(nullptr);
  pool.allocate(nullptr);
  EXPECT_THROW(pool.allocate(nullptr), std::runtime_error);
}

TEST(IaasPool, ReleaseReturnsCapacityAndRecordsHistory) {
  sim::Simulator sim;
  IaasPool pool{sim, IaasConfig{}};
  const HostId a = pool.allocate(nullptr);
  const HostId b = pool.allocate(nullptr);
  EXPECT_EQ(pool.active_count(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.active_count(), 1u);
  EXPECT_FALSE(pool.active(a));
  EXPECT_TRUE(pool.active(b));
  ASSERT_EQ(pool.count_history().size(), 3u);
  EXPECT_EQ(pool.count_history().back().count, 1u);
  EXPECT_THROW(pool.release(a), std::logic_error);
}

TEST(IaasPool, ReleaseBusyHostThrows) {
  sim::Simulator sim;
  IaasPool pool{sim, IaasConfig{}};
  const HostId id = pool.allocate(nullptr);
  sim.run();
  pool.host(id).submit(SliceId{1}, LockMode::kNone, 1e6, nullptr);
  EXPECT_THROW(pool.release(id), std::logic_error);
}

TEST(CostModel, AspeMatchIsQuadraticInD) {
  CostModel cost;
  EXPECT_DOUBLE_EQ(cost.aspe_match_units(4), cost.aspe_match_units_per_d2 * 16);
  EXPECT_DOUBLE_EQ(cost.aspe_match_units(8) / cost.aspe_match_units(4), 4.0);
}

TEST(CostModel, CalibrationAnchor) {
  // 12 hosts (6 for M) must sustain ~422 pub/s against 100 K encrypted
  // subscriptions. The bottleneck M host carries ceil(16/6) = 3 slices of
  // 6250 subscriptions each; every publication costs it 3 matches-of-6250
  // across its 8 cores (see DESIGN.md).
  CostModel cost;
  const double per_pub_core_us = 3.0 * 6250.0 * cost.aspe_match_units(4);
  const double max_rate = 8.0 * 1e6 / per_pub_core_us;
  EXPECT_NEAR(max_rate, 422.0, 25.0);
}

}  // namespace
}  // namespace esh::cluster
