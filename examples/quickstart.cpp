// Quickstart: the smallest useful e-STREAMHUB deployment.
//
// Builds an emulated 3-host cluster, deploys the pub/sub engine with a
// plain-text content-based filter, registers a few subscriptions, and
// publishes events. Demonstrates the basic publish/subscribe API and the
// notification delay measurement.
//
// Run: ./build/examples/quickstart
#include <cstdio>

#include "cluster/host.hpp"
#include "engine/engine.hpp"
#include "filter/interval_index.hpp"
#include "net/network.hpp"
#include "pubsub/streamhub.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace esh;

  // 1. The emulated cluster: a simulator, a network, and three 8-core
  //    hosts (one for I/O, two for the engine operators).
  sim::Simulator simulator;
  net::Network network{simulator};
  cluster::Host io_host{simulator, HostId{1}};
  cluster::Host worker_a{simulator, HostId{2}};
  cluster::Host worker_b{simulator, HostId{3}};

  engine::Engine engine{simulator, network, HostId{100}, {}, /*seed=*/42};
  engine.add_host(io_host);
  engine.add_host(worker_a);
  engine.add_host(worker_b);

  // 2. The pub/sub service: 2 AP, 4 M, 2 EP slices; plain-text filtering.
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
  hub.deploy({
      {"source", {HostId{1}}},
      {"sink", {HostId{1}}},
      {"AP", {HostId{2}}},
      {"M", {HostId{2}, HostId{3}}},
      {"EP", {HostId{3}}},
  });

  // 3. Subscriptions: interest as ranges over two attributes, e.g.
  //    (price, volume). Subscriber 7 wants price in [0.2, 0.6] & any volume.
  auto subscribe = [&](std::uint64_t id, std::uint64_t subscriber,
                       filter::Range price, filter::Range volume) {
    filter::Subscription sub;
    sub.id = SubscriptionId{id};
    sub.subscriber = SubscriberId{subscriber};
    sub.predicates = {price, volume};
    hub.subscribe(filter::AnySubscription{sub});
  };
  subscribe(1, 7, {0.2, 0.6}, {0.0, 1.0});
  subscribe(2, 8, {0.5, 0.9}, {0.4, 1.0});
  subscribe(3, 9, {0.0, 0.1}, {0.0, 0.2});
  simulator.run_until(simulator.now() + seconds(1));
  std::printf("stored subscriptions: %zu\n", hub.stored_subscriptions());

  // 4. Publications: attribute vectors. Each is matched against every
  //    stored subscription; matching subscribers get one notification.
  auto publish = [&](std::uint64_t id, double price, double volume) {
    filter::Publication pub;
    pub.id = PublicationId{id};
    pub.attributes = {price, volume};
    hub.publish(filter::AnyPublication{pub});
  };
  publish(1, 0.55, 0.5);  // matches subscribers 7 and 8
  publish(2, 0.05, 0.1);  // matches subscriber 9
  publish(3, 0.95, 0.0);  // matches nobody

  simulator.run_until(simulator.now() + seconds(2));

  // 5. Results: the sink collected every notification with its delay.
  const auto& delays = hub.collector()->delays_ms();
  const auto completed = hub.collector()->publications_completed();
  const auto notified = hub.collector()->notifications();
  std::printf("publications completed: %llu\n",
              static_cast<unsigned long long>(completed));
  std::printf("notifications sent:     %llu (expected 3)\n",
              static_cast<unsigned long long>(notified));
  std::printf("delay min / max:        %.0f / %.0f ms\n",
              delays.percentile(0), delays.percentile(100));
  return completed == 3 && notified == 3 ? 0 : 1;
}
