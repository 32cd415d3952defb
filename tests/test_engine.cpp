#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cluster/host.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "engine/slice_table.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace esh::engine {
namespace {

struct NumPayload final : Payload {
  explicit NumPayload(std::uint64_t v) : value(v) {}
  std::uint64_t value;
  [[nodiscard]] std::size_t bytes() const override { return 64; }
};

// Sink of the test DAG: records (slice_index, value) pairs.
struct Record {
  std::size_t slice_index;
  std::uint64_t value;
};

class CollectHandler final : public Handler {
 public:
  CollectHandler(std::shared_ptr<std::vector<Record>> out, std::size_t index)
      : out_(std::move(out)), index_(index) {}
  void on_event(Context&, const PayloadPtr& p) override {
    out_->push_back(
        Record{index_, dynamic_cast<const NumPayload&>(*p).value});
  }
  double cost_units(const PayloadPtr&) const override { return 5.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  std::shared_ptr<std::vector<Record>> out_;
  std::size_t index_;
};

// Middle stage: stateful (sum + count), forwards to `next` by value-hash.
class SumForwardHandler final : public Handler {
 public:
  SumForwardHandler(std::string next, std::size_t state_pad = 0)
      : next_(std::move(next)), pad_(state_pad) {}

  void on_event(Context& ctx, const PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    sum_ += num.value;
    ++count_;
    if (!next_.empty()) {
      ctx.emit(next_, Routing::hash(num.value), p);
    }
  }
  double cost_units(const PayloadPtr&) const override { return 20.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kWrite;
  }
  void serialize_state(BinaryWriter& w) const override {
    w.write_u64(sum_);
    w.write_u64(count_);
    for (std::size_t i = 0; i < pad_; ++i) w.write_u8(0);
  }
  void restore_state(BinaryReader& r) override {
    sum_ = r.read_u64();
    count_ = r.read_u64();
    for (std::size_t i = 0; i < pad_; ++i) (void)r.read_u8();
  }
  std::size_t state_bytes() const override { return 16 + pad_; }
  double replica_init_units() const override { return 2000.0; }

  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;

 private:
  std::string next_;
  std::size_t pad_;
};

// Entry stage: stateless, broadcast or hash routing to `next`.
class GenHandler final : public Handler {
 public:
  GenHandler(std::string next, bool broadcast)
      : next_(std::move(next)), broadcast_(broadcast) {}
  void on_event(Context& ctx, const PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    ctx.emit(next_, broadcast_ ? Routing::broadcast()
                               : Routing::hash(num.value),
             p);
  }
  double cost_units(const PayloadPtr&) const override { return 2.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  std::string next_;
  bool broadcast_;
};

class EngineTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<std::vector<Record>> collected =
      std::make_shared<std::vector<Record>>();

  void make_engine(std::size_t host_count, EngineConfig config = {}) {
    config.flush_interval = millis(10);
    config.control_tick = millis(5);
    engine = std::make_unique<Engine>(sim, net, HostId{999}, config, 7);
    for (std::size_t i = 0; i < host_count; ++i) {
      hosts.push_back(std::make_unique<cluster::Host>(
          sim, HostId{i + 1}, cluster::HostSpec{}));
      engine->add_host(*hosts.back());
    }
  }

  Topology test_topology(std::size_t work_slices, bool broadcast = false,
                         std::size_t state_pad = 0) {
    Topology t;
    t.operators.push_back(OperatorSpec{
        "gen", 1, [broadcast](std::size_t) {
          return std::make_unique<GenHandler>("work", broadcast);
        }});
    t.operators.push_back(OperatorSpec{
        "work", work_slices, [state_pad](std::size_t) {
          return std::make_unique<SumForwardHandler>("collect", state_pad);
        }});
    t.operators.push_back(OperatorSpec{
        "collect", 2, [this](std::size_t index) {
          return std::make_unique<CollectHandler>(collected, index);
        }});
    t.edges = {{"gen", "work"}, {"work", "collect"}};
    return t;
  }

  std::unordered_map<std::string, std::vector<HostId>> spread_placement(
      const Topology& t) {
    std::unordered_map<std::string, std::vector<HostId>> placement;
    std::size_t next = 0;
    for (const auto& op : t.operators) {
      std::vector<HostId> assigned;
      for (std::size_t s = 0; s < op.slices; ++s) {
        assigned.push_back(hosts[next++ % hosts.size()]->id());
      }
      placement[op.name] = assigned;
    }
    return placement;
  }

  void inject_values(std::uint64_t count, SimDuration gap) {
    SimTime at = sim.now();
    for (std::uint64_t v = 1; v <= count; ++v) {
      at += gap;
      sim.schedule_at(at, [this, v] {
        engine->inject("gen", 0, std::make_shared<NumPayload>(v));
      });
    }
  }

  const SumForwardHandler& work_handler(std::size_t index) {
    auto* runtime = engine->slice_runtime(engine->slice_id("work", index));
    return dynamic_cast<const SumForwardHandler&>(runtime->handler());
  }
};

TEST_F(EngineTest, DeployValidation) {
  make_engine(2);
  Topology t = test_topology(2);
  auto placement = spread_placement(t);
  placement.erase("work");
  EXPECT_THROW(engine->deploy(t, placement), std::invalid_argument);
  placement["work"] = {HostId{1}};  // wrong count
  EXPECT_THROW(engine->deploy(t, placement), std::invalid_argument);
  placement["work"] = {HostId{1}, HostId{77}};  // unknown host
  EXPECT_THROW(engine->deploy(t, placement), std::invalid_argument);
  placement["work"] = {HostId{1}, HostId{2}};
  engine->deploy(t, placement);
  EXPECT_THROW(engine->deploy(t, placement), std::logic_error);
}

TEST_F(EngineTest, EndToEndFlowDeliversAll) {
  make_engine(3);
  const Topology t = test_topology(4);
  engine->deploy(t, spread_placement(t));
  inject_values(100, millis(2));
  sim.run_until(sim.now() + seconds(2));
  ASSERT_EQ(collected->size(), 100u);
  // Every value delivered exactly once, routed by hash.
  std::map<std::uint64_t, int> seen;
  for (const Record& r : *collected) {
    ++seen[r.value];
    EXPECT_EQ(r.slice_index, r.value % 2);
  }
  for (std::uint64_t v = 1; v <= 100; ++v) EXPECT_EQ(seen[v], 1);
}

TEST_F(EngineTest, BroadcastReachesEverySlice) {
  make_engine(3);
  const Topology t = test_topology(4, /*broadcast=*/true);
  engine->deploy(t, spread_placement(t));
  inject_values(10, millis(2));
  sim.run_until(sim.now() + seconds(2));
  // Each of the 10 values hits all 4 work slices; every copy forwards.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) total += work_handler(i).count_;
  EXPECT_EQ(total, 40u);
}

TEST_F(EngineTest, StatefulHandlersAccumulate) {
  make_engine(2);
  const Topology t = test_topology(2);
  engine->deploy(t, spread_placement(t));
  inject_values(20, millis(1));
  sim.run_until(sim.now() + seconds(1));
  // Values hash-partitioned: evens to slice 0, odds to slice 1.
  std::uint64_t even_sum = 0, odd_sum = 0;
  for (std::uint64_t v = 1; v <= 20; ++v) (v % 2 ? odd_sum : even_sum) += v;
  EXPECT_EQ(work_handler(0).sum_, even_sum);
  EXPECT_EQ(work_handler(1).sum_, odd_sum);
}

TEST_F(EngineTest, MigrationPreservesStateAndLosesNothing) {
  make_engine(3);
  const Topology t = test_topology(2, false, /*state_pad=*/5000);
  engine->deploy(t, spread_placement(t));

  // Continuous flow while slice "work:0" migrates to host 3.
  inject_values(400, millis(5));  // 2 s of traffic
  sim.run_until(sim.now() + millis(300));

  const SliceId slice = engine->slice_id("work", 0);
  const HostId src = engine->slice_host(slice);
  const HostId dst = hosts[2]->id();
  ASSERT_NE(src, dst);
  std::optional<ElasticReport> report;
  engine->migrate(slice, dst, [&](const ElasticReport& r) { report = r; });
  sim.run_until(sim.now() + seconds(4));

  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->slice, slice);
  EXPECT_EQ(report->src, src);
  EXPECT_EQ(report->dst, dst);
  EXPECT_EQ(engine->slice_host(slice), dst);
  EXPECT_GT(report->state_bytes, 5000u);
  EXPECT_GE(report->frozen, report->requested);
  EXPECT_GE(report->activated, report->frozen);
  EXPECT_GE(report->finished, report->activated);

  // No event lost or duplicated end to end.
  ASSERT_EQ(collected->size(), 400u);
  std::map<std::uint64_t, int> seen;
  for (const Record& r : *collected) ++seen[r.value];
  for (std::uint64_t v = 1; v <= 400; ++v) EXPECT_EQ(seen[v], 1) << v;

  // The migrated handler's state followed it (sum of even values).
  std::uint64_t even_sum = 0;
  for (std::uint64_t v = 2; v <= 400; v += 2) even_sum += v;
  EXPECT_EQ(work_handler(0).sum_, even_sum);
  EXPECT_EQ(work_handler(0).count_, 200u);

  // Old host no longer owns the slice.
  const auto remaining = engine->slices_on(src);
  EXPECT_EQ(std::count(remaining.begin(), remaining.end(), slice), 0);
}

TEST_F(EngineTest, MigrationOfStatelessEntrySlice) {
  make_engine(3);
  const Topology t = test_topology(2);
  engine->deploy(t, spread_placement(t));
  inject_values(200, millis(5));
  sim.run_until(sim.now() + millis(200));

  const SliceId slice = engine->slice_id("gen", 0);
  const HostId dst = hosts[2]->id();
  std::optional<ElasticReport> report;
  engine->migrate(slice, dst, [&](const ElasticReport& r) { report = r; });
  sim.run_until(sim.now() + seconds(3));
  ASSERT_TRUE(report.has_value());
  // Stateless: tiny state, short interruption.
  EXPECT_LT(report->state_bytes, 64u);
  EXPECT_LT(report->interruption(), millis(500));
  ASSERT_EQ(collected->size(), 200u);
}

TEST_F(EngineTest, SequentialMigrationsQueue) {
  make_engine(3);
  const Topology t = test_topology(2);
  engine->deploy(t, spread_placement(t));
  inject_values(100, millis(5));

  // Pick destinations that differ from the current placement so both
  // migrations are real (and the second queues behind the first).
  const SliceId w0 = engine->slice_id("work", 0);
  const SliceId w1 = engine->slice_id("work", 1);
  const HostId dst0 = engine->slice_host(w0) == hosts[2]->id()
                          ? hosts[0]->id()
                          : hosts[2]->id();
  const HostId dst1 = engine->slice_host(w1) == hosts[0]->id()
                          ? hosts[2]->id()
                          : hosts[0]->id();
  int completed = 0;
  engine->migrate(w0, dst0, [&](const ElasticReport&) { ++completed; });
  engine->migrate(w1, dst1, [&](const ElasticReport&) { ++completed; });
  EXPECT_EQ(engine->pending_ops(), 2u);
  sim.run_until(sim.now() + seconds(5));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(engine->pending_ops(), 0u);
  EXPECT_EQ(engine->slice_host(w0), dst0);
  EXPECT_EQ(engine->slice_host(w1), dst1);
  ASSERT_EQ(collected->size(), 100u);
}

TEST_F(EngineTest, MigrateToSameHostIsImmediate) {
  make_engine(2);
  const Topology t = test_topology(2);
  engine->deploy(t, spread_placement(t));
  const SliceId slice = engine->slice_id("work", 0);
  const HostId host = engine->slice_host(slice);
  bool done = false;
  engine->migrate(slice, host, [&](const ElasticReport& r) {
    done = true;
    EXPECT_EQ(r.total_duration(), SimDuration::zero());
  });
  EXPECT_TRUE(done);
}

TEST_F(EngineTest, MigrationValidation) {
  make_engine(2);
  const Topology t = test_topology(2);
  engine->deploy(t, spread_placement(t));
  // Invalid requests are rejected through the callback, not by throwing.
  std::vector<MigrationOutcome> outcomes;
  engine->migrate(SliceId{12345}, hosts[0]->id(),
                  [&](const ElasticReport& r) {
                    outcomes.push_back(r.outcome);
                  });
  engine->migrate(engine->slice_id("work", 0), HostId{777},
                  [&](const ElasticReport& r) {
                    outcomes.push_back(r.outcome);
                  });
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], MigrationOutcome::kRejected);
  EXPECT_EQ(outcomes[1], MigrationOutcome::kRejected);
  EXPECT_EQ(engine->pending_ops(), 0u);

  // The engine stays fully usable: a valid migration still completes.
  const SliceId slice = engine->slice_id("work", 0);
  const HostId dst = engine->slice_host(slice) == hosts[0]->id()
                         ? hosts[1]->id()
                         : hosts[0]->id();
  std::optional<ElasticReport> report;
  engine->migrate(slice, dst, [&](const ElasticReport& r) { report = r; });
  sim.run_until(sim.now() + seconds(5));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->outcome, MigrationOutcome::kCompleted);
  EXPECT_EQ(engine->slice_host(slice), dst);
}

TEST_F(EngineTest, InjectionAfterMigrationFollowsSlice) {
  make_engine(3);
  Topology t;
  t.operators.push_back(OperatorSpec{"solo", 1, [this](std::size_t index) {
    return std::make_unique<CollectHandler>(collected, index);
  }});
  engine->deploy(t, {{"solo", {hosts[0]->id()}}});
  const SliceId slice = engine->slice_id("solo", 0);
  engine->inject("solo", 0, std::make_shared<NumPayload>(1));
  sim.run_until(sim.now() + millis(100));
  engine->migrate(slice, hosts[1]->id(), nullptr);
  sim.run_until(sim.now() + seconds(3));
  engine->inject("solo", 0, std::make_shared<NumPayload>(2));
  sim.run_until(sim.now() + millis(100));
  ASSERT_EQ(collected->size(), 2u);
  EXPECT_EQ((*collected)[1].value, 2u);
}

TEST_F(EngineTest, ProbesArriveAtTarget) {
  make_engine(2, [] {
    EngineConfig c;
    c.probe_interval = millis(500);
    return c;
  }());
  const Topology t = test_topology(2);
  engine->deploy(t, spread_placement(t));

  std::vector<cluster::HostProbe> probes;
  const net::Endpoint target = net.new_endpoint();
  net.bind(target, HostId{999}, [&](const net::Delivery& d) {
    const auto* msg = dynamic_cast<const ProbeMessage*>(d.message.get());
    ASSERT_NE(msg, nullptr);
    probes.push_back(msg->probe);
  });
  engine->enable_probes(target);
  inject_values(100, millis(5));
  sim.run_until(sim.now() + seconds(2));
  // 2 hosts x ~4 rounds.
  EXPECT_GE(probes.size(), 6u);
  bool saw_slice_cpu = false;
  for (const auto& probe : probes) {
    EXPECT_GE(probe.cpu, 0.0);
    EXPECT_LE(probe.cpu, 1.0);
    for (const auto& sp : probe.slices) {
      if (sp.cpu > 0.0) saw_slice_cpu = true;
    }
  }
  EXPECT_TRUE(saw_slice_cpu);
}

TEST_F(EngineTest, RemoveHostRequiresEmpty) {
  make_engine(3);
  const Topology t = test_topology(2);
  auto placement = spread_placement(t);
  engine->deploy(t, placement);
  // Host 3 may or may not hold slices depending on spreading; find one with
  // slices and one without by moving everything off host 3 first.
  for (SliceId slice : engine->slices_on(hosts[2]->id())) {
    engine->migrate(slice, hosts[0]->id(), nullptr);
  }
  sim.run_until(sim.now() + seconds(10));
  EXPECT_TRUE(engine->slices_on(hosts[2]->id()).empty());
  engine->remove_host(hosts[2]->id());
  EXPECT_FALSE(engine->has_host(hosts[2]->id()));
  EXPECT_THROW(engine->remove_host(hosts[0]->id()), std::logic_error);
}

// Property sweep: random migration storms must never lose or duplicate an
// event, and migrated state must stay exact, across seeds.
class EngineStormTest : public EngineTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(EngineStormTest, ExactlyOnceUnderRandomMigrations) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  make_engine(4);
  const Topology t = test_topology(4, false, /*state_pad=*/2000);
  engine->deploy(t, spread_placement(t));

  constexpr std::uint64_t kValues = 600;
  inject_values(kValues, millis(10));  // 6 s of traffic

  // Six random migrations of random work slices at random times.
  int completed_migrations = 0;
  for (int m = 0; m < 6; ++m) {
    const auto at = millis(200 + rng.next_below(6000));
    const std::size_t slice_index = rng.next_below(4);
    const std::size_t host_index = rng.next_below(hosts.size());
    sim.schedule_at(SimTime{at}, [this, slice_index, host_index,
                                  &completed_migrations] {
      const SliceId slice = engine->slice_id("work", slice_index);
      HostId dst = hosts[host_index]->id();
      if (engine->slice_host(slice) == dst) {
        dst = hosts[(host_index + 1) % hosts.size()]->id();
      }
      engine->migrate(slice, dst, [&completed_migrations](
                                      const ElasticReport&) {
        ++completed_migrations;
      });
    });
  }
  sim.run_until(sim.now() + seconds(40));

  EXPECT_EQ(completed_migrations, 6);
  ASSERT_EQ(collected->size(), kValues);
  std::map<std::uint64_t, int> seen;
  for (const Record& r : *collected) ++seen[r.value];
  for (std::uint64_t v = 1; v <= kValues; ++v) {
    ASSERT_EQ(seen[v], 1) << "value " << v << " seed " << GetParam();
  }
  // State integrity: per-slice sums add up to the full series.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) total += work_handler(i).sum_;
  EXPECT_EQ(total, kValues * (kValues + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineStormTest, ::testing::Range(1, 9));

TEST_F(EngineTest, DuplicatesDroppedCounterStaysZeroWithoutMigration) {
  make_engine(2);
  const Topology t = test_topology(2);
  engine->deploy(t, spread_placement(t));
  inject_values(50, millis(2));
  sim.run_until(sim.now() + seconds(1));
  for (std::size_t i = 0; i < 2; ++i) {
    auto* rt = engine->slice_runtime(engine->slice_id("work", i));
    EXPECT_EQ(rt->duplicates_dropped(), 0u);
    EXPECT_GT(rt->events_processed(), 0u);
  }
}

TEST(SliceTable, IteratesAscendingAcrossDenseAndFarIds) {
  SliceTable<int> table;
  table[kExternalChannel] = 1;
  table[SliceId{7}] = 2;
  table[SliceId{2}] = 3;
  table[SliceId{std::uint64_t{1} << 40}] = 4;
  EXPECT_EQ(table.find(SliceId{3}), nullptr);
  ASSERT_NE(table.find(kExternalChannel), nullptr);
  EXPECT_EQ(*table.find(kExternalChannel), 1);
  std::vector<std::pair<SliceId, int>> seen;
  table.for_each([&seen](SliceId id, int value) { seen.emplace_back(id, value); });
  const std::vector<std::pair<SliceId, int>> want{
      {SliceId{2}, 3},
      {SliceId{7}, 2},
      {SliceId{std::uint64_t{1} << 40}, 4},
      {kExternalChannel, 1}};
  EXPECT_EQ(seen, want);
  table.clear();
  EXPECT_EQ(table.find(SliceId{7}), nullptr);
}

}  // namespace
}  // namespace esh::engine
