// Full-system integration tests: the emulated cluster runs the complete
// e-STREAMHUB stack (engine + StreamHub + manager + coordination) under
// time-varying load, exercising automatic scale out/in end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "harness/testbed.hpp"

namespace esh::harness {
namespace {

// Scaled-down cluster: weak hosts so a small publication rate saturates
// them quickly, keeping simulated-event counts test-friendly.
TestbedConfig small_config(bool with_manager) {
  TestbedConfig config;
  config.worker_hosts = 1;
  config.io_hosts = 2;
  config.workload.total_subscriptions = 20'000;
  config.workload.matching_rate = 0.01;
  config.workload.m_slices = 8;
  config.ap_slices = 4;
  config.ep_slices = 4;
  config.source_slices = 2;
  config.sink_slices = 2;
  config.iaas.host_spec.units_per_second = 1e5;  // 10x weaker cores
  config.iaas.boot_delay = seconds(1);
  config.engine.probe_interval = seconds(2);
  config.engine.flush_interval = millis(50);
  config.manager.policy.grace = seconds(15);
  config.with_manager = with_manager;
  config.seed = 11;
  return config;
}

TEST(Integration, SubscriptionStorageReachesAllSlices) {
  Testbed bed{small_config(false)};
  bed.store_subscriptions(20'000);
  EXPECT_EQ(bed.hub().stored_subscriptions(), 20'000u);
}

TEST(Integration, SteadyFlowDeliversExpectedNotificationVolume) {
  Testbed bed{small_config(false)};
  bed.store_subscriptions(20'000);
  bed.delays().reset_counts();
  auto driver = bed.drive(
      std::make_shared<workload::ConstantRate>(5.0, seconds(30)));
  bed.run_for(seconds(35));
  const auto completed = bed.delays().publications_completed();
  EXPECT_NEAR(static_cast<double>(completed), 150.0, 40.0);
  // ~200 notifications per publication (20 K subs at 1 %).
  const double per_pub = static_cast<double>(bed.delays().notifications()) /
                         static_cast<double>(completed);
  EXPECT_NEAR(per_pub, 200.0, 10.0);
  // Delays bounded in steady state.
  EXPECT_LT(bed.delays().delays_ms().percentile(99), 2'000.0);
}

TEST(Integration, ManualMigrationUnderLoadKeepsDelaysBounded) {
  Testbed bed{small_config(false)};
  bed.store_subscriptions(20'000);
  auto driver = bed.drive(
      std::make_shared<workload::ConstantRate>(5.0, seconds(60)));
  bed.run_for(seconds(10));

  // Move an M slice to a second worker host.
  const HostId new_host = bed.pool().allocate(nullptr);
  bed.run_for(seconds(2));
  bed.engine().add_host(bed.pool().host(new_host));
  const SliceId m0 = bed.hub().slices_of("M")[0];
  std::optional<engine::ElasticReport> report;
  bed.engine().migrate(m0, new_host,
                       [&](const engine::ElasticReport& r) { report = r; });
  const bool done = bed.run_until([&] { return report.has_value(); },
                                  seconds(30));
  ASSERT_TRUE(done);
  EXPECT_EQ(bed.engine().slice_host(m0), new_host);
  // M slice of 2500 subs (~2.7 MB): interruption under a few seconds.
  EXPECT_LT(report->interruption(), seconds(5));
  EXPECT_GT(report->state_bytes, 2'000'000u);

  bed.run_for(seconds(20));
  // Flow continues correctly after the migration.
  const auto completed = bed.delays().publications_completed();
  EXPECT_GT(completed, 100u);
}

TEST(Integration, ElasticScaleOutAndInFollowsLoad) {
  auto config = small_config(true);
  Testbed bed{config};
  bed.store_subscriptions(20'000);
  bed.delays().reset_counts();

  // Trapezoid to 60 pub/s (~14 cores of matching work at peak): one weak
  // host saturates early, so the manager must scale out toward 4 hosts,
  // then back in as the load fades.
  auto driver = bed.drive(std::make_shared<workload::TrapezoidRate>(
      60.0, seconds(150), seconds(120), seconds(150)));
  std::size_t peak_hosts = 1;
  std::size_t samples = 0;
  while (bed.simulator().now() < seconds(600)) {
    bed.run_for(seconds(5));
    peak_hosts = std::max(peak_hosts, bed.manager()->managed_host_count());
    ++samples;
  }
  EXPECT_GE(peak_hosts, 3u);

  // Load is gone: the system scales back in.
  bed.run_for(seconds(200));
  EXPECT_LE(bed.manager()->managed_host_count(), 2u);

  // Migrations actually happened, in both directions.
  EXPECT_GE(bed.manager()->migrations().size(), 4u);
  EXPECT_GE(bed.manager()->plans_executed(), 2u);

  // The CPU envelope was respected most of the plateau (paper: 40-70 %).
  const auto& history = bed.manager()->load_history();
  ASSERT_FALSE(history.empty());
  std::size_t in_band = 0, plateau_samples = 0;
  for (const auto& s : history) {
    if (s.time > seconds(170) && s.time < seconds(250)) {
      ++plateau_samples;
      if (s.avg_cpu > 0.25 && s.avg_cpu < 0.85) ++in_band;
    }
  }
  ASSERT_GT(plateau_samples, 0u);
  EXPECT_GE(static_cast<double>(in_band) / plateau_samples, 0.6);

  // Delays stayed sane despite the migrations.
  EXPECT_LT(bed.delays().delays_ms().percentile(50), 3'000.0);

  // No events were lost: everything offered (minus in-flight tail) arrived.
  const auto offered = bed.hub().publications_sent();
  const auto completed = bed.delays().publications_completed();
  EXPECT_GE(completed + 50, offered);
}

TEST(Integration, ManagerPersistsPlacementInCoordination) {
  auto config = small_config(true);
  Testbed bed{config};
  bed.store_subscriptions(20'000);
  auto driver = bed.drive(std::make_shared<workload::TrapezoidRate>(
      50.0, seconds(100), seconds(100), seconds(10)));
  bed.run_for(seconds(180));

  // Placement written to the coordination service matches the engine's
  // live directory for every elastic slice.
  std::size_t checked = 0;
  for (const char* op : {"AP", "M", "EP"}) {
    for (SliceId slice : bed.hub().slices_of(op)) {
      const auto stored = bed.coord().read(
          "/estreamhub/config/slices/" + std::to_string(slice.value()));
      ASSERT_TRUE(stored.has_value()) << "slice " << slice;
      EXPECT_EQ(std::stoull(*stored),
                bed.engine().slice_host(slice).value());
      ++checked;
    }
  }
  EXPECT_EQ(checked, 16u);

  // The managed host set is persisted too.
  EXPECT_TRUE(bed.coord().read("/estreamhub/config/hosts").has_value());
}

TEST(Integration, CoordinatorFailoverOnlyDelaysPersistence) {
  auto config = small_config(true);
  Testbed bed{config};
  bed.store_subscriptions(20'000);
  auto driver = bed.drive(std::make_shared<workload::TrapezoidRate>(
      50.0, seconds(80), seconds(60), seconds(10)));
  bed.run_for(seconds(30));
  bed.coord().inject_leader_failover();
  bed.run_for(seconds(150));
  // The system still scaled out despite the coordination hiccup.
  EXPECT_GE(bed.manager()->managed_host_count(), 2u);
  EXPECT_GT(bed.delays().publications_completed(), 0u);
}

TEST(Integration, StandbyManagerTakesOverOnResign) {
  auto config = small_config(true);
  config.manager.use_leader_election = true;
  Testbed bed{config};
  bed.store_subscriptions(20'000);

  // Hot standby joins the election behind the active manager.
  elastic::Manager standby{bed.simulator(), bed.network(), bed.engine(),
                           bed.pool(),      bed.coord(),   bed.manager_host(),
                           config.manager};
  standby.enter_standby();
  bed.run_for(seconds(5));
  EXPECT_TRUE(bed.manager()->is_active());
  EXPECT_FALSE(standby.is_active());

  auto driver = bed.drive(std::make_shared<workload::TrapezoidRate>(
      60.0, seconds(120), seconds(300), seconds(120)));
  bed.run_for(seconds(160));
  const auto plans_before = bed.manager()->plans_executed();
  EXPECT_GT(plans_before, 0u);  // the leader scaled out
  EXPECT_EQ(standby.plans_executed(), 0u);

  // Leader steps down mid-plateau: the standby must take over and keep
  // governing the same fleet.
  bed.manager()->resign();
  bed.run_for(seconds(10));
  EXPECT_FALSE(bed.manager()->is_active());
  EXPECT_TRUE(standby.is_active());
  EXPECT_GE(standby.managed_host_count(), 2u);

  // Load fades: the standby (now leader) scales the system back in.
  bed.run_for(seconds(500));
  EXPECT_GT(standby.plans_executed(), 0u);
  EXPECT_LT(standby.managed_host_count(), 4u);
  // The deposed manager did not act again.
  EXPECT_EQ(bed.manager()->plans_executed(), plans_before);
}

TEST(Integration, ManagerRestartRecoversFromCoordination) {
  auto config = small_config(true);
  Testbed bed{config};
  bed.store_subscriptions(20'000);
  auto driver = bed.drive(std::make_shared<workload::TrapezoidRate>(
      60.0, seconds(120), seconds(240), seconds(120)));
  bed.run_for(seconds(200));
  const auto hosts_before = bed.manager()->managed_host_count();
  ASSERT_GE(hosts_before, 2u);

  // "Crash" the manager and start a fresh instance that recovers its
  // managed-host set from the coordination service (paper §IV-B).
  // (The Testbed owns the original; we build a replacement side by side.)
  bed.manager()->set_enforcement(false);
  elastic::Manager replacement{bed.simulator(), bed.network(), bed.engine(),
                               bed.pool(),      bed.coord(),   bed.manager_host(),
                               config.manager};
  bool recovered = false;
  replacement.start_from_coordination([&](bool ok) { recovered = ok; });
  bed.run_until([&] { return recovered; }, seconds(10));
  ASSERT_TRUE(recovered);
  EXPECT_EQ(replacement.managed_host_count(), hosts_before);

  // The replacement resumes enforcement: when the load fades it scales in.
  bed.run_for(seconds(500));
  EXPECT_LT(replacement.managed_host_count(), hosts_before);
}

TEST(Integration, PoolExhaustionDegradesGracefully) {
  auto config = small_config(true);
  config.iaas.max_hosts = 2;  // manager can grow to at most 2 workers
  Testbed bed{config};
  bed.store_subscriptions(20'000);
  auto driver = bed.drive(
      std::make_shared<workload::ConstantRate>(40.0, seconds(200)));
  bed.run_for(seconds(220));
  // The system saturates but keeps running at the pool cap.
  EXPECT_LE(bed.manager()->managed_host_count(), 2u);
  EXPECT_GT(bed.delays().publications_completed(), 0u);
}

TEST(Integration, EnforcementCanBeDisabled) {
  auto config = small_config(true);
  Testbed bed{config};
  bed.store_subscriptions(20'000);
  bed.manager()->set_enforcement(false);
  auto driver = bed.drive(
      std::make_shared<workload::ConstantRate>(50.0, seconds(120)));
  bed.run_for(seconds(150));
  EXPECT_EQ(bed.manager()->managed_host_count(), 1u);
  EXPECT_TRUE(bed.manager()->migrations().empty());
  // Probes still collected.
  EXPECT_FALSE(bed.manager()->load_history().empty());
}

}  // namespace
}  // namespace esh::harness
