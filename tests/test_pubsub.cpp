#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "cluster/host.hpp"
#include "engine/engine.hpp"
#include "filter/interval_index.hpp"
#include "filter/matcher.hpp"
#include "net/network.hpp"
#include "pubsub/streamhub.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/oracle.hpp"

namespace esh::pubsub {
namespace {

// Small-scale fixture running the whole pub/sub pipeline with the REAL ASPE
// scheme: full cryptographic matching end to end.
class StreamHubAspeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSubs = 300;
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<StreamHub> hub;
  workload::WorkloadParams wl_params{4, 0.05, 2024};
  std::unique_ptr<workload::EncryptedWorkload> workload;
  std::unique_ptr<workload::PlainWorkload> plain;  // ground truth twin

  void SetUp() override {
    engine::EngineConfig config;
    config.flush_interval = millis(10);
    config.control_tick = millis(5);
    engine = std::make_unique<engine::Engine>(sim, net, HostId{99}, config, 3);
    for (std::size_t i = 0; i < 4; ++i) {
      hosts.push_back(std::make_unique<cluster::Host>(
          sim, HostId{i + 1}, cluster::HostSpec{}));
      engine->add_host(*hosts.back());
    }
    workload = std::make_unique<workload::EncryptedWorkload>(wl_params);
    plain = std::make_unique<workload::PlainWorkload>(wl_params);

    StreamHubParams params;
    params.source_slices = 2;
    params.ap_slices = 2;
    params.m_slices = 4;
    params.ep_slices = 2;
    params.sink_slices = 2;
    params.matcher_factory = [](std::size_t) {
      return std::make_unique<filter::AspeMatcher>();
    };
    hub = std::make_unique<StreamHub>(*engine, params);
    HostAssignment assignment;
    std::vector<HostId> ids;
    for (const auto& h : hosts) ids.push_back(h->id());
    for (const char* op : {"source", "AP", "M", "EP", "sink"}) {
      assignment[op] = ids;
    }
    hub->deploy(assignment);
  }

  void store_all() {
    for (std::uint64_t i = 0; i < kSubs; ++i) {
      hub->subscribe(filter::AnySubscription{workload->subscription(i)});
    }
    sim.run_until(sim.now() + seconds(5));
    ASSERT_EQ(hub->stored_subscriptions(), kSubs);
  }

  std::vector<filter::Publication> pending_pubs_;
};

TEST_F(StreamHubAspeTest, SubscriptionsPartitionAcrossMSlices) {
  store_all();
  const auto& cfg = engine->static_config();
  const auto& m_op = cfg.operators.at(cfg.index_of("M"));
  std::size_t total = 0;
  for (SliceId slice : m_op.slices) {
    auto* rt = engine->slice_runtime(slice);
    const auto& handler = dynamic_cast<const MHandler&>(rt->handler());
    const std::size_t count = handler.matcher().subscription_count();
    // Modulo-hash partitioning is near-uniform here by construction.
    EXPECT_EQ(count, kSubs / 4);
    total += count;
  }
  EXPECT_EQ(total, kSubs);
}

TEST_F(StreamHubAspeTest, NotificationsMatchPlaintextGroundTruth) {
  store_all();
  // Keep plain subscriptions for ground truth.
  std::vector<filter::Subscription> subs;
  for (std::uint64_t i = 0; i < kSubs; ++i) subs.push_back(plain->subscription(i));

  std::uint64_t expected_notifications = 0;
  const int pubs = 30;
  for (int p = 0; p < pubs; ++p) {
    filter::Publication plain_pub;
    const auto enc = workload->next_publication(&plain_pub);
    for (const auto& s : subs) {
      if (s.matches(plain_pub)) ++expected_notifications;
    }
    hub->publish(filter::AnyPublication{enc});
    sim.run_until(sim.now() + millis(200));
  }
  sim.run_until(sim.now() + seconds(3));

  auto& collector = *hub->collector();
  EXPECT_EQ(collector.publications_completed(), static_cast<std::uint64_t>(pubs));
  EXPECT_EQ(collector.notifications(), expected_notifications);
  EXPECT_GT(expected_notifications, 0u);
}

TEST_F(StreamHubAspeTest, DelaysAreMeasuredAndPositive) {
  store_all();
  for (int p = 0; p < 10; ++p) {
    hub->publish(filter::AnyPublication{workload->next_publication()});
  }
  sim.run_until(sim.now() + seconds(3));
  const auto& delays = hub->collector()->delays_ms();
  ASSERT_EQ(delays.count(), 10u);
  EXPECT_GT(delays.percentile(0), 0.0);
  EXPECT_LT(delays.percentile(100), 1000.0);
}

TEST_F(StreamHubAspeTest, EpAwaitsAllMSlices) {
  store_all();
  hub->publish(filter::AnyPublication{workload->next_publication()});
  // Before any flush interval elapses nothing can have been notified.
  sim.run_until(sim.now() + millis(1));
  EXPECT_EQ(hub->collector()->publications_completed(), 0u);
  sim.run_until(sim.now() + seconds(3));
  EXPECT_EQ(hub->collector()->publications_completed(), 1u);
  // All EP pending tables drained.
  for (SliceId slice : hub->slices_of("EP")) {
    auto* rt = engine->slice_runtime(slice);
    const auto& ep = dynamic_cast<const EpHandler&>(rt->handler());
    EXPECT_EQ(ep.pending_publications(), 0u);
  }
}

TEST_F(StreamHubAspeTest, MMigrationUnderLoadPreservesSemantics) {
  store_all();
  std::vector<filter::Subscription> subs;
  for (std::uint64_t i = 0; i < kSubs; ++i) subs.push_back(plain->subscription(i));

  // Publish continuously; migrate one M slice in the middle.
  std::uint64_t expected_notifications = 0;
  const int pubs = 40;
  for (int p = 0; p < pubs; ++p) {
    sim.schedule_at(sim.now() + millis(50 * (p + 1)), [this, p] {
      filter::Publication plain_pub;
      const auto enc = workload->next_publication(&plain_pub);
      pending_pubs_.push_back(plain_pub);
      hub->publish(filter::AnyPublication{enc});
    });
  }
  sim.run_until(sim.now() + millis(500));
  const SliceId m0 = hub->slices_of("M")[0];
  const HostId dst = hosts[(3) % hosts.size()]->id() == engine->slice_host(m0)
                         ? hosts[0]->id()
                         : hosts[3]->id();
  std::optional<engine::ElasticReport> report;
  engine->migrate(m0, dst, [&](const engine::ElasticReport& r) { report = r; });
  sim.run_until(sim.now() + seconds(10));

  for (const auto& plain_pub : pending_pubs_) {
    for (const auto& s : subs) {
      if (s.matches(plain_pub)) ++expected_notifications;
    }
  }
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(hub->collector()->publications_completed(),
            static_cast<std::uint64_t>(pubs));
  EXPECT_EQ(hub->collector()->notifications(), expected_notifications);
}

TEST_F(StreamHubAspeTest, UnsubscribeStopsNotifications) {
  store_all();
  // Remove every stored subscription.
  for (std::uint64_t i = 0; i < kSubs; ++i) {
    hub->unsubscribe(SubscriptionId{i + 1});
  }
  sim.run_until(sim.now() + seconds(3));
  EXPECT_EQ(hub->stored_subscriptions(), 0u);

  hub->publish(filter::AnyPublication{workload->next_publication()});
  sim.run_until(sim.now() + seconds(3));
  EXPECT_EQ(hub->collector()->publications_completed(), 1u);
  EXPECT_EQ(hub->collector()->notifications(), 0u);
}

// ---- oracle-backed path -------------------------------------------------------

TEST(OracleStreamHub, NotificationCountsFollowMatchingRate) {
  sim::Simulator sim;
  net::Network net{sim};
  engine::EngineConfig config;
  config.flush_interval = millis(10);
  auto engine =
      std::make_unique<engine::Engine>(sim, net, HostId{99}, config, 4);
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  for (std::size_t i = 0; i < 4; ++i) {
    hosts.push_back(std::make_unique<cluster::Host>(sim, HostId{i + 1},
                                                    cluster::HostSpec{}));
    engine->add_host(*hosts.back());
  }
  workload::OracleParams params;
  params.total_subscriptions = 5000;
  params.matching_rate = 0.02;
  params.m_slices = 4;
  workload::OracleWorkload workload{params};

  StreamHubParams hub_params;
  hub_params.source_slices = 2;
  hub_params.ap_slices = 2;
  hub_params.m_slices = 4;
  hub_params.ep_slices = 2;
  hub_params.sink_slices = 2;
  hub_params.matcher_factory = [&](std::size_t index) {
    return workload.make_matcher(cluster::CostModel{}, index);
  };
  StreamHub hub{*engine, hub_params};
  HostAssignment assignment;
  std::vector<HostId> ids;
  for (const auto& h : hosts) ids.push_back(h->id());
  for (const char* op : {"source", "AP", "M", "EP", "sink"}) {
    assignment[op] = ids;
  }
  hub.deploy(assignment);

  for (std::uint64_t i = 0; i < params.total_subscriptions; ++i) {
    hub.subscribe(filter::AnySubscription{workload.subscription(i)});
  }
  sim.run_until(sim.now() + seconds(10));
  ASSERT_EQ(hub.stored_subscriptions(), params.total_subscriptions);

  const int pubs = 50;
  for (int p = 0; p < pubs; ++p) {
    sim.schedule_at(sim.now() + millis(20 * (p + 1)),
                    [&] { hub.publish(workload.next_publication()); });
  }
  sim.run_until(sim.now() + seconds(5));
  EXPECT_EQ(hub.collector()->publications_completed(),
            static_cast<std::uint64_t>(pubs));
  const double avg_notifications =
      static_cast<double>(hub.collector()->notifications()) / pubs;
  // 5000 subs at 2 % -> ~100 notifications per publication.
  EXPECT_NEAR(avg_notifications, 100.0, 10.0);
}

// Multi-scheme deployment (paper §III): a plain-text M operator running
// next to an encrypted one; AP routes by scheme, EP combines per scheme.
TEST(MultiScheme, PlainAndEncryptedOperatorsCoexist) {
  sim::Simulator sim;
  net::Network net{sim};
  engine::EngineConfig config;
  config.flush_interval = millis(10);
  engine::Engine engine{sim, net, HostId{99}, config, 6};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  for (std::size_t i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<cluster::Host>(sim, HostId{i + 1},
                                                    cluster::HostSpec{}));
    engine.add_host(*hosts.back());
  }

  workload::WorkloadParams wl{4, 0.1, 55};
  workload::EncryptedWorkload enc_client{wl};
  workload::PlainWorkload plain_gen{{4, 0.1, 56}};

  StreamHubParams params;
  params.source_slices = 1;
  params.ap_slices = 2;
  params.ep_slices = 2;
  params.sink_slices = 1;
  MatcherSchemeSpec plain_scheme;
  plain_scheme.op_name = "M-plain";
  plain_scheme.slices = 2;
  plain_scheme.encrypted = false;
  plain_scheme.factory = [](std::size_t) {
    return std::make_unique<filter::BruteForceMatcher>();
  };
  MatcherSchemeSpec enc_scheme;
  enc_scheme.op_name = "M-aspe";
  enc_scheme.slices = 4;
  enc_scheme.encrypted = true;
  enc_scheme.factory = [](std::size_t) {
    return std::make_unique<filter::AspeMatcher>();
  };
  params.schemes = {plain_scheme, enc_scheme};
  StreamHub hub{engine, params};

  std::vector<HostId> ids;
  for (const auto& h : hosts) ids.push_back(h->id());
  HostAssignment assignment;
  for (const char* op : {"source", "AP", "M-plain", "M-aspe", "EP", "sink"}) {
    assignment[op] = ids;
  }
  hub.deploy(assignment);

  // 100 plain + 100 encrypted subscriptions (distinct id spaces).
  std::vector<filter::Subscription> plain_subs, enc_plain_twins;
  workload::PlainWorkload enc_truth{wl};
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto p = plain_gen.subscription(i);
    p.id = SubscriptionId{10'000 + i};
    plain_subs.push_back(p);
    hub.subscribe(filter::AnySubscription{p});
    enc_plain_twins.push_back(enc_truth.subscription(i));
    hub.subscribe(filter::AnySubscription{enc_client.subscription(i)});
  }
  sim.run_until(sim.now() + seconds(5));
  ASSERT_EQ(hub.stored_subscriptions(), 200u);

  // Publish 10 plain + 10 encrypted; track ground truth separately.
  std::uint64_t expected = 0;
  for (int p = 0; p < 10; ++p) {
    auto plain_pub = plain_gen.next_publication();
    plain_pub.id = PublicationId{50'000 + static_cast<std::uint64_t>(p)};
    for (const auto& s : plain_subs) {
      if (s.matches(plain_pub)) ++expected;
    }
    hub.publish(filter::AnyPublication{plain_pub});

    filter::Publication enc_plain;
    const auto epub = enc_client.next_publication(&enc_plain);
    for (const auto& s : enc_plain_twins) {
      if (s.matches(enc_plain)) ++expected;
    }
    hub.publish(filter::AnyPublication{epub});
    sim.run_until(sim.now() + millis(100));
  }
  sim.run_until(sim.now() + seconds(3));

  EXPECT_EQ(hub.collector()->publications_completed(), 20u);
  EXPECT_EQ(hub.collector()->notifications(), expected);
  EXPECT_GT(expected, 0u);
}

// The interval-index backend behind the same scheme-selection config: M
// slices built by a MatcherSchemeSpec factory run the sublinear matcher
// end-to-end and must notify exactly the ground-truth subscriber set.
TEST(MultiScheme, IntervalIndexSchemeRunsEndToEnd) {
  sim::Simulator sim;
  net::Network net{sim};
  engine::EngineConfig config;
  config.flush_interval = millis(10);
  engine::Engine engine{sim, net, HostId{99}, config, 4};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  for (std::size_t i = 0; i < 3; ++i) {
    hosts.push_back(std::make_unique<cluster::Host>(sim, HostId{i + 1},
                                                    cluster::HostSpec{}));
    engine.add_host(*hosts.back());
  }

  workload::PlainWorkload gen{{4, 0.1, 57}};
  StreamHubParams params;
  params.source_slices = 1;
  params.ap_slices = 2;
  params.ep_slices = 2;
  params.sink_slices = 1;
  MatcherSchemeSpec scheme;
  scheme.op_name = "M-interval";
  scheme.slices = 3;
  scheme.encrypted = false;
  scheme.factory = [](std::size_t) {
    return std::make_unique<filter::IntervalIndexMatcher>();
  };
  params.schemes = {scheme};
  StreamHub hub{engine, params};

  std::vector<HostId> ids;
  for (const auto& h : hosts) ids.push_back(h->id());
  HostAssignment assignment;
  for (const char* op : {"source", "AP", "M-interval", "EP", "sink"}) {
    assignment[op] = ids;
  }
  hub.deploy(assignment);

  std::vector<filter::Subscription> subs;
  for (std::uint64_t i = 0; i < 150; ++i) {
    subs.push_back(gen.subscription(i));
    hub.subscribe(filter::AnySubscription{subs.back()});
  }
  sim.run_until(sim.now() + seconds(5));
  ASSERT_EQ(hub.stored_subscriptions(), 150u);

  std::uint64_t expected = 0;
  const int pubs = 15;
  for (int p = 0; p < pubs; ++p) {
    const auto pub = gen.next_publication();
    for (const auto& s : subs) {
      if (s.matches(pub)) ++expected;
    }
    hub.publish(filter::AnyPublication{pub});
    sim.run_until(sim.now() + millis(100));
  }
  sim.run_until(sim.now() + seconds(3));

  EXPECT_EQ(hub.collector()->publications_completed(),
            static_cast<std::uint64_t>(pubs));
  EXPECT_EQ(hub.collector()->notifications(), expected);
  EXPECT_GT(expected, 0u);
}

// Full-pipeline determinism under the matching worker pool: the identical
// seeded deployment and event stream must produce the same notifications,
// the same delay distribution and the same final simulated timestamp at
// every worker_threads setting -- the pool changes wall-clock only.
TEST(StreamHubParallelMatching, SimulatedResultsIndependentOfThreads) {
  struct Result {
    std::uint64_t notifications;
    std::uint64_t completed;
    double p50_ms;
    double p99_ms;
    SimTime last;
  };
  auto run_pipeline = [](std::size_t worker_threads) {
    sim::Simulator sim;
    net::Network net{sim};
    engine::EngineConfig config;
    config.flush_interval = millis(10);
    config.control_tick = millis(5);
    config.worker_threads = worker_threads;
    engine::Engine engine{sim, net, HostId{99}, config, 3};
    std::vector<std::unique_ptr<cluster::Host>> hosts;
    for (std::size_t i = 0; i < 3; ++i) {
      hosts.push_back(std::make_unique<cluster::Host>(sim, HostId{i + 1},
                                                      cluster::HostSpec{}));
      engine.add_host(*hosts.back());
    }
    StreamHubParams params;
    params.source_slices = 1;
    params.ap_slices = 2;
    params.m_slices = 2;
    params.ep_slices = 2;
    params.sink_slices = 1;
    params.matcher_factory = [](std::size_t) {
      return std::make_unique<filter::AspeMatcher>();
    };
    StreamHub hub{engine, params};
    std::vector<HostId> ids;
    for (const auto& h : hosts) ids.push_back(h->id());
    HostAssignment assignment;
    for (const char* op : {"source", "AP", "M", "EP", "sink"}) {
      assignment[op] = ids;
    }
    hub.deploy(assignment);

    // 3000 subscriptions so each M slice holds >1024 slots and the brute
    // tiling (and ASPE row ranges) genuinely split across workers.
    workload::EncryptedWorkload workload{{4, 0.05, 2024}};
    for (std::uint64_t i = 0; i < 3000; ++i) {
      hub.subscribe(filter::AnySubscription{workload.subscription(i)});
    }
    sim.run_until(sim.now() + seconds(5));
    for (int p = 0; p < 20; ++p) {
      hub.publish(filter::AnyPublication{workload.next_publication()});
      sim.run_until(sim.now() + millis(50));
    }
    sim.run_until(sim.now() + seconds(3));
    const auto& collector = *hub.collector();
    return Result{collector.notifications(),
                  collector.publications_completed(),
                  collector.delays_ms().percentile(50),
                  collector.delays_ms().percentile(99),
                  collector.last_completion()};
  };

  const Result scalar = run_pipeline(1);
  EXPECT_EQ(scalar.completed, 20u);
  EXPECT_GT(scalar.notifications, 0u);
  for (const std::size_t threads : {2u, 4u}) {
    const Result pooled = run_pipeline(threads);
    EXPECT_EQ(pooled.notifications, scalar.notifications)
        << threads << " threads";
    EXPECT_EQ(pooled.completed, scalar.completed) << threads << " threads";
    EXPECT_EQ(pooled.p50_ms, scalar.p50_ms) << threads << " threads";
    EXPECT_EQ(pooled.p99_ms, scalar.p99_ms) << threads << " threads";
    EXPECT_EQ(pooled.last, scalar.last) << threads << " threads";
  }
}

TEST(StreamHubValidation, RequiresMatcherFactory) {
  sim::Simulator sim;
  net::Network net{sim};
  engine::Engine engine{sim, net, HostId{1}, {}, 1};
  StreamHubParams params;  // no matcher factory
  EXPECT_THROW((StreamHub{engine, params}), std::invalid_argument);
}

TEST(SpreadHelper, RoundRobin) {
  const std::vector<HostId> hosts{HostId{1}, HostId{2}};
  const auto spread4 = spread(hosts, 4);
  EXPECT_EQ(spread4,
            (std::vector<HostId>{HostId{1}, HostId{2}, HostId{1}, HostId{2}}));
  EXPECT_THROW(spread({}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace esh::pubsub
