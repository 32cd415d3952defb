// Stock-market monitoring (the paper's motivating application, §I).
//
// Publishers are stock exchanges emitting ticks with four attributes
// (normalized price, volume, daily change, volatility); subscribers
// register investment-strategy filters ("notify me when volatility is high
// and the price dips"). The tick rate follows the synthetic Frankfurt
// curve around the 9:00 opening surge, compressed in time.
//
// Run: ./build/examples/stock_monitoring
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "cluster/host.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "filter/interval_index.hpp"
#include "net/network.hpp"
#include "pubsub/streamhub.hpp"
#include "sim/simulator.hpp"
#include "workload/driver.hpp"
#include "workload/schedule.hpp"

int main() {
  using namespace esh;

  sim::Simulator simulator;
  net::Network network{simulator};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  engine::Engine engine{simulator, network, HostId{100}, {}, 5};
  for (std::uint64_t h = 1; h <= 4; ++h) {
    hosts.push_back(std::make_unique<cluster::Host>(simulator, HostId{h}));
    engine.add_host(*hosts.back());
  }

  pubsub::StreamHubParams params;
  params.source_slices = 1;
  params.ap_slices = 2;
  params.m_slices = 4;
  params.ep_slices = 2;
  params.sink_slices = 1;
  params.matcher_factory = [](std::size_t) {
    return std::make_unique<filter::IntervalIndexMatcher>();
  };
  pubsub::StreamHub hub{engine, params};
  std::vector<HostId> workers{HostId{2}, HostId{3}, HostId{4}};
  hub.deploy({{"source", {HostId{1}}},
              {"sink", {HostId{1}}},
              {"AP", workers},
              {"M", workers},
              {"EP", workers}});

  // Investment strategies as content filters over
  // (price, volume, change, volatility), all normalized to [0, 1].
  struct Strategy {
    const char* name;
    filter::Subscription sub;
  };
  auto strategy = [](std::uint64_t id, const char* name, filter::Range price,
                     filter::Range volume, filter::Range change,
                     filter::Range volatility) {
    Strategy s;
    s.name = name;
    s.sub.id = SubscriptionId{id};
    s.sub.subscriber = SubscriberId{id};
    s.sub.predicates = {price, volume, change, volatility};
    return s;
  };
  std::vector<Strategy> strategies{
      strategy(1, "dip-buyer        (price<0.3, change<0.4)",
               {0.0, 0.3}, {0.0, 1.0}, {0.0, 0.4}, {0.0, 1.0}),
      strategy(2, "momentum         (change>0.7, volume>0.5)",
               {0.0, 1.0}, {0.5, 1.0}, {0.7, 1.0}, {0.0, 1.0}),
      strategy(3, "volatility-hawk  (volatility>0.8)",
               {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}, {0.8, 1.0}),
      strategy(4, "blue-chip-watch  (price>0.6, volatility<0.3)",
               {0.6, 1.0}, {0.0, 1.0}, {0.0, 1.0}, {0.0, 0.3}),
      strategy(5, "everything       (no constraints)",
               {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}),
  };
  for (const auto& s : strategies) {
    hub.subscribe(filter::AnySubscription{s.sub});
  }
  simulator.run_until(simulator.now() + seconds(1));

  // Tick feed: the morning around the 9:00 open, 60x compressed (2 hours
  // of trading in 2 simulated minutes), scaled to 40 ticks/s peak.
  workload::FrankfurtTrace::Config trace;
  trace.start_hour = 8.5;
  trace.end_hour = 10.5;
  trace.speedup = 60.0;
  trace.peak_rate = 40.0;
  trace.seed = 12;
  auto schedule = std::make_shared<workload::FrankfurtTrace>(trace);

  Rng market{2026};
  std::uint64_t next_tick = 1;
  std::uint64_t expected = 0;  // ground truth: strategies each tick matches
  workload::PublicationDriver feed{
      simulator, schedule,
      [&] {
        filter::Publication tick;
        tick.id = PublicationId{next_tick++};
        tick.attributes = {market.next_double(), market.next_double(),
                           market.next_double(), market.next_double()};
        for (const auto& s : strategies) {
          if (s.sub.matches(tick)) ++expected;
        }
        hub.publish(filter::AnyPublication{tick});
      },
      7};
  feed.start();
  simulator.run_until(simulator.now() + schedule->duration() + seconds(5));

  std::printf("ticks published:  %llu\n",
              static_cast<unsigned long long>(feed.published()));
  const auto delivered = hub.collector()->publications_completed();
  const auto notified = hub.collector()->notifications();
  std::printf("ticks delivered:  %llu\n",
              static_cast<unsigned long long>(delivered));
  std::printf("notifications:    %llu (expected %llu)\n",
              static_cast<unsigned long long>(notified),
              static_cast<unsigned long long>(expected));
  std::printf("median delay:     %.0f ms\n\n",
              hub.collector()->delays_ms().percentile(50));
  std::printf("expected hit rates per strategy (uniform synthetic ticks):\n");
  for (const auto& s : strategies) {
    double rate = 1.0;
    for (const auto& p : s.sub.predicates) rate *= p.width();
    std::printf("  %-45s ~%5.1f%% of ticks\n", s.name, rate * 100.0);
  }
  return delivered == feed.published() && notified == expected ? 0 : 1;
}
