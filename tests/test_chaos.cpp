// Chaos harness tests: seeded fault schedules injected into a live testbed
// under publication load. The cluster must heal itself — zero manual
// recover_slice calls — and the match oracle must confirm exactly-once
// delivery of every publication afterwards.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/det.hpp"
#include "engine/migration_strategy.hpp"
#include "harness/chaos.hpp"
#include "workload/schedule.hpp"

namespace esh::harness {
namespace {

TestbedConfig chaos_config() {
  TestbedConfig config;
  config.worker_hosts = 3;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 1000;
  config.workload.matching_rate = 0.02;
  config.workload.m_slices = 3;
  config.source_slices = 2;
  config.ap_slices = 3;
  config.ep_slices = 3;
  config.sink_slices = 2;
  config.engine.flush_interval = millis(10);
  config.engine.control_tick = millis(5);
  config.engine.probe_interval = millis(100);
  config.engine.checkpoints.enabled = true;
  config.engine.checkpoints.interval = millis(500);
  config.iaas.max_hosts = 6;  // 3 workers + 3 spares (manager/io on top)
  config.iaas.boot_delay = millis(500);
  config.with_manager = true;
  config.manager.recovery.enabled = true;
  config.manager.recovery.detector =
      elastic::FailureDetectorConfig{millis(100), 2, 4};
  config.manager.recovery.attempt_timeout = seconds(5);
  config.seed = 11;
  return config;
}

void await_heal(Testbed& bed, elastic::Manager& manager, std::size_t crashes) {
  ASSERT_TRUE(bed.run_until(
      [&] {
        return manager.recoveries().size() >= crashes &&
               !manager.recovery_in_progress();
      },
      seconds(60)))
      << "recovery did not complete (got " << manager.recoveries().size()
      << "/" << crashes << " reports)";
}

void await_drain(Testbed& bed) {
  ASSERT_TRUE(bed.run_until(
      [&] {
        return bed.delays().publications_completed() >=
               bed.hub().publications_sent();
      },
      seconds(120)))
      << "only " << bed.delays().publications_completed() << " of "
      << bed.hub().publications_sent() << " publications completed";
}

TEST(FaultScheduleTest, RandomIsSeededBoundedAndDistinct) {
  const SimTime start = seconds(2);
  const SimTime end = seconds(10);
  const auto a = FaultSchedule::random(7, start, end, 5, 3, true, true);
  const auto b = FaultSchedule::random(7, start, end, 5, 3, true, true);
  const auto c = FaultSchedule::random(8, start, end, 5, 3, true, true);

  ASSERT_EQ(a.crashes.size(), 3u);
  ASSERT_EQ(a.coord_failovers.size(), 1u);
  ASSERT_EQ(a.manager_failovers.size(), 1u);
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].at, b.crashes[i].at);
    EXPECT_EQ(a.crashes[i].worker_index, b.crashes[i].worker_index);
    EXPECT_GE(a.crashes[i].at, start);
    EXPECT_LT(a.crashes[i].at, end);
    EXPECT_LT(a.crashes[i].worker_index, 5u);
    // Distinct victims.
    for (std::size_t j = i + 1; j < a.crashes.size(); ++j) {
      EXPECT_NE(a.crashes[i].worker_index, a.crashes[j].worker_index);
    }
  }
  // A different seed perturbs the schedule.
  const bool differs =
      a.crashes[0].at != c.crashes[0].at ||
      a.crashes[0].worker_index != c.crashes[0].worker_index ||
      a.crashes[1].at != c.crashes[1].at;
  EXPECT_TRUE(differs);

  EXPECT_THROW(FaultSchedule::random(1, start, end, 2, 3),
               std::invalid_argument);
  EXPECT_THROW(FaultSchedule::random(1, end, end, 2, 1),
               std::invalid_argument);
}

// The acceptance scenario: a worker crashes under live publication load
// (with a lossy network in the run-up to the crash); the manager detects,
// quarantines and re-places the lost slices without any manual
// recover_slice call, and the oracle confirms exactly-once delivery.
TEST(ChaosTest, WorkerCrashUnderLoadHealsWithExactlyOnceDelivery) {
  Testbed bed{chaos_config()};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

  FaultSchedule schedule;
  schedule.crashes.push_back(
      {bed.simulator().now() + seconds(2), 1, 0.1, millis(300)});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(6) + millis(10));
  driver->stop();

  await_heal(bed, *bed.manager(), 1);
  await_drain(bed);

  const auto& recoveries = bed.manager()->recoveries();
  ASSERT_EQ(recoveries.size(), 1u);
  const auto& report = recoveries.front();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.host, chaos.crashed().front());
  EXPECT_FALSE(report.slices_lost.empty());
  EXPECT_EQ(report.slices_recovered, report.slices_lost.size());
  EXPECT_GE(report.quarantined, report.detected);
  EXPECT_GE(report.placed, report.quarantined);
  EXPECT_GE(report.recovered, report.placed);
  EXPECT_GT(report.mttr(), SimDuration::zero());

  // The crashed host left the managed set; the network saw real loss.
  const auto managed = bed.manager()->managed_hosts();
  EXPECT_EQ(std::count(managed.begin(), managed.end(), report.host), 0);
  EXPECT_GT(bed.network().stats().messages_lost, 0u);

  const auto audit = verify_exactly_once(bed);
  EXPECT_GT(audit.published, 1000u);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// Regression: PR 5 pinned its chaos leg to FaultSchedule::random seed 2
// because seeds 17 and 1 wedged the drain identically at every thread
// count. The wedge was a co-recovery renumbering bug, not schedule
// sensitivity: those seeds crash a host carrying both a multi-input slice
// and one of its consumers. The multi-input slice regenerates its
// post-checkpoint output with fresh sequence numbers, while the co-dead
// consumer restored channel watermarks counting the OLD numbering — so the
// regenerated suffix was silently deduplicated and its publications never
// completed. The engine now records per-consumer regenerated bases at
// fail_host time and rewinds co-recovering consumers' restored watermarks
// below them (Engine::register_recovery_rebases / clamp_to_rebases), which
// makes the wedge impossible. These seeds must drain exactly-once forever.
TEST(ChaosTest, FormerlyWedgingSeedsDrainExactlyOnce) {
  for (const std::uint64_t seed : {17u, 1u}) {
    auto config = chaos_config();
    config.workload.total_subscriptions = 1200;
    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1200);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));
    const FaultSchedule schedule = FaultSchedule::random(
        seed, bed.simulator().now() + seconds(1),
        bed.simulator().now() + seconds(4), bed.worker_hosts().size(), 1);
    ChaosRunner chaos{bed, schedule};
    chaos.arm();
    bed.run_for(seconds(6) + millis(10));
    driver->stop();

    await_heal(bed, *bed.manager(), 1);
    await_drain(bed);
    bed.run_for(seconds(2));

    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "seed " << seed << ": published=" << audit.published
        << " missing=" << audit.missing << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// When no survivor may absorb the lost slices (placement cap zero), the
// recovery must allocate replacement hosts from the IaaS pool and replay
// onto them once booted.
TEST(ChaosTest, AllocatesReplacementHostsWhenSurvivorsCannotAbsorb) {
  auto config = chaos_config();
  config.manager.policy.placement_cap = 0.0;
  Testbed bed{config};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(6)));

  FaultSchedule schedule;
  schedule.crashes.push_back({bed.simulator().now() + seconds(2), 0, 0.0, {}});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(6) + millis(10));
  driver->stop();

  await_heal(bed, *bed.manager(), 1);
  await_drain(bed);

  ASSERT_EQ(bed.manager()->recoveries().size(), 1u);
  const auto& report = bed.manager()->recoveries().front();
  EXPECT_TRUE(report.complete);
  ASSERT_FALSE(report.replacement_hosts.empty());
  // Boot time is part of the MTTR when replacements are needed.
  EXPECT_GE(report.mttr(), millis(500));
  const auto managed = bed.manager()->managed_hosts();
  for (HostId host : report.replacement_hosts) {
    EXPECT_EQ(std::count(managed.begin(), managed.end(), host), 1)
        << "replacement host " << host << " not managed";
    EXPECT_TRUE(bed.engine().has_host(host));
  }

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// A coordination leader failover right after the crash stalls the
// manager's persistence writes but must not block recovery; the dead
// verdict still lands in the tree once the new leader commits.
TEST(ChaosTest, CoordFailoverDuringRecoveryStillHeals) {
  Testbed bed{chaos_config()};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(5)));

  FaultSchedule schedule;
  const SimTime crash_at = bed.simulator().now() + seconds(2);
  schedule.crashes.push_back({crash_at, 2, 0.0, {}});
  schedule.coord_failovers.push_back({crash_at + millis(150)});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(5) + millis(10));
  driver->stop();

  await_heal(bed, *bed.manager(), 1);
  await_drain(bed);

  ASSERT_EQ(bed.manager()->recoveries().size(), 1u);
  const auto& report = bed.manager()->recoveries().front();
  EXPECT_TRUE(report.complete);

  // The verdict write survived the failover (committed by the new leader).
  const std::string health_path =
      "/estreamhub/health/" + std::to_string(report.host.value());
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.coord().node_exists(health_path); }, seconds(10)));
  EXPECT_EQ(bed.coord().read(health_path), "dead");

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// Manager failover followed by a worker crash: the promoted standby must
// inherit the fleet from the coordination tree and run the recovery itself.
TEST(ChaosTest, PromotedStandbyHealsCrashAfterManagerFailover) {
  auto config = chaos_config();
  config.manager.use_leader_election = true;
  Testbed bed{config};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();

  elastic::Manager standby{bed.simulator(), bed.network(), bed.engine(),
                           bed.pool(),      bed.coord(),   bed.manager_host(),
                           config.manager};
  standby.set_enforcement(false);
  standby.enter_standby();

  bed.store_subscriptions(1000);
  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(6)));

  FaultSchedule schedule;
  const SimTime t0 = bed.simulator().now();
  schedule.manager_failovers.push_back({t0 + seconds(1)});
  schedule.crashes.push_back({t0 + seconds(2), 0, 0.0, {}});
  ChaosRunner chaos{bed, schedule};
  chaos.arm();

  bed.run_for(seconds(6) + millis(10));
  driver->stop();

  await_heal(bed, standby, 1);
  await_drain(bed);

  EXPECT_FALSE(bed.manager()->is_active());
  EXPECT_TRUE(standby.is_active());
  EXPECT_TRUE(bed.manager()->recoveries().empty());
  ASSERT_EQ(standby.recoveries().size(), 1u);
  EXPECT_TRUE(standby.recoveries().front().complete);
  EXPECT_EQ(standby.recoveries().front().host, chaos.crashed().front());

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// ---- combined adversarial schedule -----------------------------------------

// Everything downstream consumers observe, plus the injection and reliable
// channel counters: two runs agreeing on this differ in wall-clock only.
struct ChaosFingerprint {
  std::uint64_t notifications = 0;
  std::uint64_t completed = 0;
  std::vector<double> percentiles;
  std::vector<std::tuple<std::uint64_t, std::uint32_t,
                         std::vector<std::uint64_t>>>
      audit;
  std::uint64_t net_sent = 0, net_lost = 0, net_duplicated = 0,
                net_reordered = 0, net_partitioned = 0, net_retransmitted = 0;
  std::uint64_t reliable_delivered = 0, reliable_retransmits = 0,
                reliable_dup_dropped = 0;
  std::size_t recoveries = 0, drains_completed = 0, drains_aborted = 0;
  std::uint64_t splits = 0, merges = 0;

  bool operator==(const ChaosFingerprint&) const = default;
};

ChaosFingerprint chaos_fingerprint(Testbed& bed) {
  ChaosFingerprint fp;
  fp.notifications = bed.delays().notifications();
  fp.completed = bed.delays().publications_completed();
  fp.percentiles = bed.delays().delays_ms().percentiles({0, 50, 90, 99, 100});
  for (const PublicationId pub : sorted_keys(bed.delays().audit())) {
    const auto& entry = bed.delays().audit().at(pub);
    std::vector<std::uint64_t> subscribers;
    subscribers.reserve(entry.subscribers.size());
    for (const SubscriberId s : entry.subscribers) {
      subscribers.push_back(s.value());
    }
    fp.audit.emplace_back(pub.value(), entry.deliveries,
                          std::move(subscribers));
  }
  const net::NetworkStats& net = bed.network().stats();
  fp.net_sent = net.messages_sent;
  fp.net_lost = net.messages_lost;
  fp.net_duplicated = net.messages_duplicated;
  fp.net_reordered = net.messages_reordered;
  fp.net_partitioned = net.messages_partitioned;
  fp.net_retransmitted = net.messages_retransmitted;
  const net::ReliableStats reliable = bed.engine().reliable_stats();
  fp.reliable_delivered = reliable.delivered;
  fp.reliable_retransmits = reliable.retransmits;
  fp.reliable_dup_dropped = reliable.duplicates_dropped;
  fp.recoveries = bed.manager()->recoveries().size();
  for (const elastic::DrainReport& drain : bed.manager()->drains()) {
    if (drain.complete) ++fp.drains_completed;
    if (drain.aborted) ++fp.drains_aborted;
  }
  fp.splits = bed.engine().splits_completed();
  fp.merges = bed.engine().merges_completed();
  return fp;
}

// The PR's acceptance scenario: a crash with a lossy run-up, a partition
// that outlasts the conviction window, a duplicate storm, a reorder storm
// and one gray host — all at once, against reliable control channels, a
// latency-aware detector and proactive draining. The oracle must confirm
// exactly-once delivery and the entire outcome must be byte-identical at
// every worker thread count.
TEST(ChaosTest, CombinedScheduleExactlyOnceAndByteIdenticalAcrossThreads) {
  auto run = [](std::size_t threads) {
    auto config = chaos_config();
    config.worker_hosts = 4;
    config.iaas.max_hosts = 8;
    config.engine.worker_threads = threads;
    config.engine.reliable_control = true;
    config.engine.reliable.initial_rto = millis(50);
    // Latency-aware suspicion: the gray host's x4 NIC slowdown must be
    // caught by the delay EWMA, never by silence.
    config.manager.recovery.detector.latency_suspect_factor = 2.0;
    config.manager.recovery.drain_suspects = true;
    config.manager.recovery.drain_after = millis(400);

    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(7)));

    const SimTime t0 = bed.simulator().now();
    FaultSchedule schedule;
    // Worker 0 goes gray at 1s and stays degraded to the end: drained.
    schedule.gray_degrades.push_back({t0 + seconds(1), {}, 0, 4.0});
    // Worker 1 crashes at 3s after a 1%-loss run-up: recovered.
    schedule.crashes.push_back({t0 + seconds(3), 1, 0.01, millis(500)});
    // Worker 2 is cut off for 1.5s from 4.5s — longer than the conviction
    // window, so it is declared dead and healing cannot resurrect it.
    schedule.partitions.push_back({t0 + millis(4500), millis(1500), {2}});
    // Global storms overlap the crash and the partition.
    schedule.duplicate_storms.push_back({t0 + millis(2500), seconds(2), 0.05});
    schedule.reorder_storms.push_back(
        {t0 + millis(4000), seconds(2), 0.05, millis(1)});
    ChaosRunner chaos{bed, schedule};
    chaos.arm();

    bed.run_for(seconds(7) + millis(10));
    driver->stop();

    // Two dead hosts (crash + partition) must be recovered, the gray host
    // drained; then the stream must fully drain.
    await_heal(bed, *bed.manager(), 2);
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_GE(bed.manager()->recoveries().size(), 2u) << threads << " threads";
    for (const auto& report : bed.manager()->recoveries()) {
      EXPECT_TRUE(report.complete) << threads << " threads";
    }
    // The gray host's drain must run to completion. The partitioned host
    // may also arm a drain (it looks gray while cut off) that the silence
    // conviction then aborts — recovery takes over; every drain therefore
    // either completes or is aborted by a recovery, never wedges.
    EXPECT_GE(bed.manager()->drains().size(), 1u) << threads << " threads";
    std::size_t completed_drains = 0;
    for (const elastic::DrainReport& drain : bed.manager()->drains()) {
      EXPECT_TRUE(drain.complete || drain.aborted) << threads << " threads";
      if (!drain.complete) continue;
      ++completed_drains;
      EXPECT_EQ(drain.host, bed.worker_hosts()[0]) << threads << " threads";
      EXPECT_GT(drain.slices_moved, 0u) << threads << " threads";
    }
    EXPECT_EQ(completed_drains, 1u) << threads << " threads";

    // Every injected fault actually fired on the wire.
    const net::NetworkStats& net = bed.network().stats();
    EXPECT_GT(net.messages_lost, 0u);
    EXPECT_GT(net.messages_duplicated, 0u);
    EXPECT_GT(net.messages_reordered, 0u);
    EXPECT_GT(net.messages_partitioned, 0u);
    // ...and the reliable control channel earned its keep.
    const net::ReliableStats reliable = bed.engine().reliable_stats();
    EXPECT_GT(reliable.delivered, 0u);
    EXPECT_GT(reliable.retransmits, 0u);

    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched << " at " << threads
        << " threads";
    return chaos_fingerprint(bed);
  };

  const ChaosFingerprint reference = run(1);
  EXPECT_GT(reference.notifications, 0u);
  EXPECT_EQ(reference.drains_completed, 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

// ---- split/merge torture ----------------------------------------------------

// Crash-torture deployment: M isolated on its own pair of hosts. A crash
// mid-transition must kill matcher state, not the co-located upstream AP —
// an AP crash concurrent with an in-flight split/merge invalidates the
// saved cut vector's channel numbering and is documented out-of-scope
// (PROTOCOL.md); the generic co-crash chaos tests cover AP deaths.
TestbedConfig torture_config() {
  auto config = chaos_config();
  config.worker_hosts = 4;
  config.iaas.max_hosts = 7;
  config.placement = [](const std::vector<HostId>& workers) {
    pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["EP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[2], workers[3]};
    return assignment;
  };
  return config;
}

// The M-side worker (torture_config placement) not hosting `slice`.
HostId other_m_worker(Testbed& bed, SliceId slice) {
  const HostId current = bed.engine().slice_host(slice);
  const auto& workers = bed.worker_hosts();
  return workers[2] == current ? workers[3] : workers[2];
}

// Baseline: a key-level split and the inverse merge under live publication
// load, no faults. Routing flips mid-stream twice; the oracle must still
// confirm exactly-once delivery and the coverage must return to depth 0.
TEST(SplitMergeTortureTest, SplitThenMergeUnderLoadIsExactlyOnce) {
  Testbed bed{torture_config()};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

  const SliceId parent = bed.engine().slice_id("M", 0);
  const HostId dst = other_m_worker(bed, parent);
  std::optional<engine::ElasticReport> split_report;
  std::optional<engine::ElasticReport> merge_report;
  bed.simulator().schedule(seconds(2), [&] {
    bed.engine().split_slice(
        parent, dst, [&](const engine::ElasticReport& r) {
          split_report = r;
          bed.simulator().schedule(seconds(1), [&] {
            bed.engine().merge_slices(
                parent, split_report->other,
                [&](const engine::ElasticReport& r2) { merge_report = r2; });
          });
        });
  });

  bed.run_for(seconds(6) + millis(10));
  driver->stop();
  ASSERT_TRUE(bed.run_until([&] { return merge_report.has_value(); },
                            seconds(30)));
  await_drain(bed);
  bed.run_for(seconds(1));

  ASSERT_TRUE(split_report.has_value());
  EXPECT_EQ(split_report->outcome, engine::MigrationOutcome::kCompleted);
  EXPECT_EQ(split_report->kind, engine::ElasticKind::kSplit);
  EXPECT_GT(split_report->moved, 0u);  // state actually changed hands
  EXPECT_GE(split_report->cutover, split_report->requested);
  EXPECT_GE(split_report->finished, split_report->cutover);
  EXPECT_EQ(merge_report->outcome, engine::MigrationOutcome::kCompleted);
  EXPECT_EQ(merge_report->kind, engine::ElasticKind::kMerge);
  EXPECT_EQ(bed.engine().splits_completed(), 1u);
  EXPECT_EQ(bed.engine().merges_completed(), 1u);
  EXPECT_EQ(bed.engine().slice_coverage(parent).depth, 0u);

  const auto audit = verify_exactly_once(bed);
  EXPECT_GT(audit.published, 500u);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

// Crash torture, split half: at every coordinator step of an in-flight
// split, kill the parent's host or the child's host (via the network, so
// detection, conviction and recovery all run the production path). The
// transition must finish (abort pre-cut-over, roll forward after), the
// cluster must heal, and delivery must stay exactly-once.
TEST(SplitMergeTortureTest, CrashAtEverySplitStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    bool kill_parent;
  };
  const Case cases[] = {
      {"create-child", true}, {"create-child", false}, {"drain", true},
      {"drain", false},       {"activate", true},      {"activate", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} +
                 (c.kill_parent ? " victim=parent" : " victim=child"));
    Testbed bed{torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

    const SliceId parent = bed.engine().slice_id("M", 0);
    const HostId parent_host = bed.engine().slice_host(parent);
    const HostId dst = other_m_worker(bed, parent);
    bool crashed = false;
    std::optional<engine::ElasticReport> report;
    bed.engine().on_elastic_step(
        [&](const engine::ElasticReport&, std::string_view step) {
          if (crashed || step != c.step) return;
          crashed = true;
          bed.network().set_host_down(c.kill_parent ? parent_host : dst, true);
        });
    bed.simulator().schedule(seconds(2), [&] {
      bed.engine().split_slice(
          parent, dst,
          [&](const engine::ElasticReport& r) { report = r; });
    });

    bed.run_for(seconds(6) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(
        bed.run_until([&] { return report.has_value(); }, seconds(60)));
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_ops(), 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Crash torture, merge half: same drill at every step of an in-flight
// merge — survivor's host and retiree's host each die at drain-retiree,
// absorb and teardown. Merges never abort; every case must roll forward to
// completion through recovery, and delivery must stay exactly-once.
TEST(SplitMergeTortureTest, CrashAtEveryMergeStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    bool kill_survivor;
  };
  const Case cases[] = {
      {"drain-retiree", true}, {"drain-retiree", false}, {"absorb", true},
      {"absorb", false},       {"teardown", true},       {"teardown", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} +
                 (c.kill_survivor ? " victim=survivor" : " victim=retiree"));
    Testbed bed{torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(7)));

    const SliceId parent = bed.engine().slice_id("M", 0);
    const HostId parent_host = bed.engine().slice_host(parent);
    const HostId dst = other_m_worker(bed, parent);
    bool crashed = false;
    std::optional<engine::ElasticReport> merge_report;
    bed.engine().on_elastic_step(
        [&](const engine::ElasticReport&, std::string_view step) {
          if (crashed || step != c.step) return;
          crashed = true;
          bed.network().set_host_down(c.kill_survivor ? parent_host : dst,
                                      true);
        });
    bed.simulator().schedule(seconds(1), [&] {
      bed.engine().split_slice(
          parent, dst, [&](const engine::ElasticReport& split_r) {
            ASSERT_EQ(split_r.outcome, engine::MigrationOutcome::kCompleted);
            const SliceId child = split_r.other;
            bed.simulator().schedule(millis(500), [&bed, parent, child,
                                                   &merge_report] {
              bed.engine().merge_slices(
                  parent, child,
                  [&merge_report](const engine::ElasticReport& r) {
                    merge_report = r;
                  });
            });
          });
    });

    bed.run_for(seconds(7) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(
        bed.run_until([&] { return merge_report.has_value(); }, seconds(60)));
    EXPECT_EQ(merge_report->outcome, engine::MigrationOutcome::kCompleted);
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_ops(), 0u);
    EXPECT_EQ(bed.engine().merges_completed(), 1u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Determinism: a split whose parent host dies mid-drain (forcing the
// checkpoint+replay roll-forward), followed by the merge back — the whole
// outcome must be byte-identical at every worker thread count.
TEST(SplitMergeTortureTest, SplitCrashMergeByteIdenticalAcrossThreads) {
  auto run = [](std::size_t threads) {
    auto config = torture_config();
    config.engine.worker_threads = threads;
    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(7)));

    const SliceId parent = bed.engine().slice_id("M", 1);
    const HostId parent_host = bed.engine().slice_host(parent);
    const HostId dst = other_m_worker(bed, parent);
    bool crashed = false;
    std::optional<engine::ElasticReport> merge_report;
    bed.engine().on_elastic_step(
        [&](const engine::ElasticReport&, std::string_view step) {
          if (crashed || step != "drain") return;
          crashed = true;
          bed.network().set_host_down(parent_host, true);
        });
    bed.simulator().schedule(millis(1500), [&] {
      bed.engine().split_slice(
          parent, dst, [&](const engine::ElasticReport& split_r) {
            EXPECT_EQ(split_r.outcome, engine::MigrationOutcome::kCompleted)
                << threads << " threads";
            const SliceId child = split_r.other;
            bed.simulator().schedule(seconds(1), [&bed, parent, child,
                                                  &merge_report] {
              bed.engine().merge_slices(
                  parent, child,
                  [&merge_report](const engine::ElasticReport& r) {
                    merge_report = r;
                  });
            });
          });
    });

    bed.run_for(seconds(7) + millis(10));
    driver->stop();
    await_heal(bed, *bed.manager(), 1);
    EXPECT_TRUE(bed.run_until([&] { return merge_report.has_value(); },
                              seconds(60)))
        << threads << " threads";
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().splits_completed(), 1u) << threads << " threads";
    EXPECT_EQ(bed.engine().merges_completed(), 1u) << threads << " threads";
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched << " at " << threads
        << " threads";
    return chaos_fingerprint(bed);
  };

  const ChaosFingerprint reference = run(1);
  EXPECT_GT(reference.notifications, 0u);
  EXPECT_EQ(reference.splits, 1u);
  EXPECT_EQ(reference.merges, 1u);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run(threads), reference) << threads << " threads";
  }
}

// ---- migration-strategy torture ---------------------------------------------

// EP isolated on its own worker pair, mirroring torture_config's M isolation.
// The pre-copy torture migrates an EP slice because EP state (pending merges
// and the completed set) mutates on every publication, so dirty-delta rounds
// ship real bytes under live load; M's matcher state is static once the
// storage phase ends and would drain the pre-copy loop after one round.
TestbedConfig ep_torture_config() {
  auto config = chaos_config();
  config.worker_hosts = 4;
  config.iaas.max_hosts = 7;
  config.placement = [](const std::vector<HostId>& workers) {
    pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[0], workers[1]};
    assignment["EP"] = {workers[2], workers[3]};
    return assignment;
  };
  return config;
}

// Crash torture, stop-and-restart: at every coordinator step of the
// redirect-park protocol, kill the source's host or the destination's host
// via the network, so detection, conviction and recovery all run the
// production path. The move must finish (abort or roll forward), the
// cluster must heal, and delivery must stay exactly-once.
TEST(MigrationStrategyTortureTest, StopRestartCrashAtEveryStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    bool kill_src;
  };
  const Case cases[] = {
      {"create-replica", true}, {"create-replica", false},
      {"park", true},           {"park", false},
      {"transfer", true},       {"transfer", false},
      {"directory-update", true}, {"directory-update", false},
      {"teardown", true},       {"teardown", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} +
                 (c.kill_src ? " victim=src" : " victim=dst"));
    Testbed bed{torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

    const SliceId slice = bed.engine().slice_id("M", 0);
    const HostId src = bed.engine().slice_host(slice);
    const HostId dst = other_m_worker(bed, slice);
    bool crashed = false;
    std::optional<engine::ElasticReport> report;
    bed.engine().on_elastic_step(
        [&](const engine::ElasticReport&, std::string_view step) {
          if (crashed || step != c.step) return;
          crashed = true;
          bed.network().set_host_down(c.kill_src ? src : dst, true);
        });
    bed.simulator().schedule(seconds(2), [&] {
      bed.engine().migrate(
          slice, dst, engine::MigrationStrategyKind::kStopAndRestart,
          [&](const engine::ElasticReport& r) { report = r; });
    });

    bed.run_for(seconds(6) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(bed.run_until([&] { return report.has_value(); }, seconds(60)));
    EXPECT_EQ(report->strategy, "stop-and-restart");
    if (c.kill_src) {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedSrcFailed);
    } else {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedDstFailed);
    }
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_ops(), 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Crash torture, incremental-precopy: same drill at every step of the
// dirty-delta protocol — including a crash in the SECOND pre-copy round,
// which only exists because live publications keep dirtying the EP state
// between rounds.
TEST(MigrationStrategyTortureTest, PrecopyCrashAtEveryStepHealsExactlyOnce) {
  struct Case {
    std::string_view step;
    int nth;  // crash at the nth entry of `step` (pre-copy fires per round)
    bool kill_src;
  };
  const Case cases[] = {
      {"create-replica", 1, true}, {"create-replica", 1, false},
      {"duplication", 1, true},    {"duplication", 1, false},
      {"precopy", 1, true},        {"precopy", 1, false},
      {"precopy", 2, true},        {"precopy", 2, false},
      {"transfer", 1, true},       {"transfer", 1, false},
      {"directory-update", 1, true}, {"directory-update", 1, false},
      {"teardown", 1, true},       {"teardown", 1, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{"step="} + std::string{c.step} + "#" +
                 std::to_string(c.nth) +
                 (c.kill_src ? " victim=src" : " victim=dst"));
    Testbed bed{ep_torture_config()};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));

    const SliceId slice = bed.engine().slice_id("EP", 0);
    const HostId src = bed.engine().slice_host(slice);
    const HostId dst = other_m_worker(bed, slice);
    bool crashed = false;
    int seen = 0;
    std::optional<engine::ElasticReport> report;
    bed.engine().on_elastic_step(
        [&](const engine::ElasticReport&, std::string_view step) {
          if (crashed || step != c.step) return;
          if (++seen < c.nth) return;
          crashed = true;
          bed.network().set_host_down(c.kill_src ? src : dst, true);
        });
    bed.simulator().schedule(seconds(2), [&] {
      bed.engine().migrate(
          slice, dst, engine::MigrationStrategyKind::kIncrementalPrecopy,
          [&](const engine::ElasticReport& r) { report = r; });
    });

    bed.run_for(seconds(6) + millis(10));
    driver->stop();
    EXPECT_TRUE(crashed);
    await_heal(bed, *bed.manager(), 1);
    ASSERT_TRUE(bed.run_until([&] { return report.has_value(); }, seconds(60)));
    EXPECT_EQ(report->strategy, "incremental-precopy");
    if (c.kill_src) {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedSrcFailed);
    } else {
      EXPECT_TRUE(report->outcome == engine::MigrationOutcome::kCompleted ||
                  report->outcome ==
                      engine::MigrationOutcome::kAbortedDstFailed);
    }
    await_drain(bed);
    bed.run_for(seconds(2));

    EXPECT_EQ(bed.engine().pending_ops(), 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// Manager torture: the migration coordinator lives on the manager host, so
// cutting that host off mid-protocol severs every in-flight control RPC.
// With reliable control channels the protocol must ride out a partition
// shorter than the retry budget at ANY step of either new strategy: no
// abort, no wedge — the move completes once the partition heals. Data-plane
// injection and worker-to-worker event flow do not touch the manager host,
// so delivery must stay exactly-once throughout.
TEST(MigrationStrategyTortureTest, ManagerPartitionAtEveryStepStillCompletes) {
  struct Case {
    engine::MigrationStrategyKind kind;
    std::string_view step;
  };
  using Kind = engine::MigrationStrategyKind;
  const Case cases[] = {
      {Kind::kStopAndRestart, "create-replica"},
      {Kind::kStopAndRestart, "park"},
      {Kind::kStopAndRestart, "transfer"},
      {Kind::kStopAndRestart, "directory-update"},
      {Kind::kStopAndRestart, "teardown"},
      {Kind::kIncrementalPrecopy, "create-replica"},
      {Kind::kIncrementalPrecopy, "duplication"},
      {Kind::kIncrementalPrecopy, "precopy"},
      {Kind::kIncrementalPrecopy, "transfer"},
      {Kind::kIncrementalPrecopy, "directory-update"},
      {Kind::kIncrementalPrecopy, "teardown"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string{engine::to_string(c.kind)} + " step=" +
                 std::string{c.step});
    auto config = torture_config();
    config.engine.reliable_control = true;
    config.engine.reliable.initial_rto = millis(50);
    // No host dies in this drill; nothing should need (or run) recovery.
    config.manager.recovery.enabled = false;
    Testbed bed{config};
    bed.manager()->set_enforcement(false);
    bed.delays().enable_audit();
    bed.store_subscriptions(1000);
    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(150.0, seconds(5)));

    const SliceId slice = bed.engine().slice_id("M", 0);
    const HostId dst = other_m_worker(bed, slice);
    std::vector<HostId> others = bed.worker_hosts();
    others.insert(others.end(), bed.io_hosts().begin(), bed.io_hosts().end());
    bool cut = false;
    std::optional<engine::ElasticReport> report;
    bed.engine().on_elastic_step(
        [&](const engine::ElasticReport&, std::string_view step) {
          if (cut || step != c.step) return;
          cut = true;
          bed.network().partition("mgr-cut", {bed.manager_host()}, others);
          bed.simulator().schedule(millis(700), [&] {
            bed.network().heal("mgr-cut");
          });
        });
    bed.simulator().schedule(millis(1500), [&] {
      bed.engine().migrate(slice, dst, c.kind,
                           [&](const engine::ElasticReport& r) {
                             report = r;
                           });
    });

    bed.run_for(seconds(5) + millis(10));
    driver->stop();
    EXPECT_TRUE(cut);
    ASSERT_TRUE(bed.run_until([&] { return report.has_value(); }, seconds(60)));
    EXPECT_EQ(report->outcome, engine::MigrationOutcome::kCompleted);
    EXPECT_EQ(report->strategy, engine::to_string(c.kind));
    EXPECT_EQ(bed.engine().slice_host(slice), dst);
    await_drain(bed);
    bed.run_for(seconds(1));

    EXPECT_EQ(bed.engine().pending_ops(), 0u);
    EXPECT_TRUE(bed.manager()->recoveries().empty());
    // The partition really severed control traffic, and the reliable
    // channel really carried the protocol across it.
    EXPECT_GT(bed.network().stats().messages_partitioned, 0u);
    EXPECT_GT(bed.engine().reliable_stats().retransmits, 0u);
    const auto audit = verify_exactly_once(bed);
    EXPECT_TRUE(audit.exactly_once())
        << "published=" << audit.published << " missing=" << audit.missing
        << " duplicated=" << audit.duplicated
        << " mismatched=" << audit.mismatched;
  }
}

// The enforcer's key-level rules end to end: a hot M slice (split_share
// tuned below the live load) triggers an automatic hotspot split through
// the manager, and once the load stops, the cold-merge rule folds the pair
// back — no manual split/merge calls anywhere.
TEST(SplitMergeTortureTest, EnforcerHotspotSplitsAndColdMergesAutomatically) {
  auto config = chaos_config();
  config.manager.policy.enable_splits = true;
  config.manager.policy.split_share = 0.002;
  config.manager.policy.merge_share = 0.5;
  // Isolate the key-level rules: park every placement rule out of reach.
  config.manager.policy.global_high = 10.0;
  config.manager.policy.global_low = 0.0;
  config.manager.policy.local_high = 10.0;
  config.manager.policy.local_low = 0.0;
  config.manager.policy.grace = seconds(3);
  config.manager.policy.scale_out_grace = seconds(60);  // one split, not many
  Testbed bed{config};
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(6)));
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().splits_completed() >= 1; }, seconds(6)))
      << "no automatic split; hottest slice never crossed split_share";
  bed.run_for(seconds(6));
  driver->stop();

  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().merges_completed() >= 1; }, seconds(60)))
      << "cold-merge rule never folded the split pair back";
  await_drain(bed);
  bed.run_for(seconds(1));

  const auto& transitions = bed.manager()->transitions();
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_EQ(transitions.front().kind, engine::ElasticKind::kSplit);
  EXPECT_EQ(transitions.front().outcome,
            engine::MigrationOutcome::kCompleted);
  bool merged = false;
  for (const auto& t : transitions) {
    merged |= t.kind == engine::ElasticKind::kMerge &&
              t.outcome == engine::MigrationOutcome::kCompleted;
  }
  EXPECT_TRUE(merged);

  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;
}

}  // namespace
}  // namespace esh::harness
