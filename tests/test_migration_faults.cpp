// Fault-tolerant migrations: a source or destination crash at any protocol
// step must abort the move cleanly (reported through the callback outcome),
// leave the engine able to process and migrate other slices, and end with
// the slice running exactly once somewhere.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/host.hpp"
#include "engine/engine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace esh::engine {
namespace {

struct NumPayload final : Payload {
  explicit NumPayload(std::uint64_t v) : value(v) {}
  std::uint64_t value;
  [[nodiscard]] std::size_t bytes() const override { return 64; }
};

struct Record {
  std::size_t slice_index;
  std::uint64_t value;
};

class CollectHandler final : public Handler {
 public:
  CollectHandler(std::shared_ptr<std::vector<Record>> out, std::size_t index)
      : out_(std::move(out)), index_(index) {}
  void on_event(Context&, const PayloadPtr& p) override {
    out_->push_back(Record{index_, dynamic_cast<const NumPayload&>(*p).value});
  }
  double cost_units(const PayloadPtr&) const override { return 5.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  std::shared_ptr<std::vector<Record>> out_;
  std::size_t index_;
};

class SumForwardHandler final : public Handler {
 public:
  explicit SumForwardHandler(std::string next) : next_(std::move(next)) {}
  void on_event(Context& ctx, const PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    sum_ += num.value;
    if (!next_.empty()) ctx.emit(next_, Routing::hash(num.value), p);
  }
  double cost_units(const PayloadPtr&) const override { return 20.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kWrite;
  }
  void serialize_state(BinaryWriter& w) const override { w.write_u64(sum_); }
  void restore_state(BinaryReader& r) override { sum_ = r.read_u64(); }
  std::size_t state_bytes() const override { return 8; }
  double replica_init_units() const override { return 1000.0; }

  std::uint64_t sum_ = 0;

 private:
  std::string next_;
};

class GenHandler final : public Handler {
 public:
  explicit GenHandler(std::string next) : next_(std::move(next)) {}
  void on_event(Context& ctx, const PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    ctx.emit(next_, Routing::hash(num.value), p);
  }
  double cost_units(const PayloadPtr&) const override { return 2.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  std::string next_;
};

// Self-contained engine assembly so crash-offset sweeps can build a fresh,
// deterministic world per iteration. gen on host1, work:0 on host2,
// work:1 on host3, collect on host4; host5 stays empty (migration target).
struct Rig {
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<std::vector<Record>> collected =
      std::make_shared<std::vector<Record>>();

  Rig() {
    EngineConfig config;
    config.flush_interval = millis(10);
    config.control_tick = millis(5);
    config.checkpoints.enabled = true;
    config.checkpoints.interval = seconds(1);
    engine = std::make_unique<Engine>(sim, net, HostId{999}, config, 7);
    for (std::size_t i = 0; i < 5; ++i) {
      hosts.push_back(std::make_unique<cluster::Host>(sim, HostId{i + 1},
                                                      cluster::HostSpec{}));
      engine->add_host(*hosts.back());
    }
    Topology t;
    t.operators.push_back(OperatorSpec{"gen", 1, [](std::size_t) {
      return std::make_unique<GenHandler>("work");
    }});
    t.operators.push_back(OperatorSpec{"work", 2, [](std::size_t) {
      return std::make_unique<SumForwardHandler>("collect");
    }});
    t.operators.push_back(OperatorSpec{"collect", 2, [this](std::size_t i) {
      return std::make_unique<CollectHandler>(collected, i);
    }});
    t.edges = {{"gen", "work"}, {"work", "collect"}};
    engine->deploy(t, {
        {"gen", {hosts[0]->id()}},
        {"work", {hosts[1]->id(), hosts[2]->id()}},
        {"collect", {hosts[3]->id(), hosts[3]->id()}},
    });
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

  void expect_exactly_once(std::uint64_t count) {
    ASSERT_EQ(collected->size(), count);
    std::map<std::uint64_t, int> seen;
    for (const Record& r : *collected) ++seen[r.value];
    for (std::uint64_t v = 1; v <= count; ++v) {
      ASSERT_EQ(seen[v], 1) << "value " << v;
    }
  }
};

// Crash offsets (after the migrate call) chosen to land in different
// protocol steps: replica creation, duplication, freeze/transfer, and the
// directory-update/teardown tail. The exact step hit is seed-determined;
// every iteration must satisfy the same invariants regardless.
const SimDuration kCrashOffsets[] = {millis(1),  millis(5),  millis(12),
                                     millis(25), millis(60), millis(150)};

TEST(MigrationFaults, DestinationCrashAtEveryStep) {
  for (const SimDuration offset : kCrashOffsets) {
    Rig rig;
    constexpr std::uint64_t kValues = 500;
    rig.inject_values(kValues, millis(10));  // 5 s of traffic
    rig.sim.run_until(rig.sim.now() + millis(1500));  // checkpoints exist

    const SliceId slice = rig.engine->slice_id("work", 0);
    const HostId src = rig.engine->slice_host(slice);
    const HostId dst = rig.hosts[4]->id();
    std::vector<ElasticReport> reports;
    rig.engine->migrate(slice, dst,
                        [&](const ElasticReport& r) { reports.push_back(r); });
    rig.sim.schedule(offset, [&] { rig.engine->fail_host(dst); });
    rig.sim.run_until(rig.sim.now() + seconds(5));

    ASSERT_EQ(reports.size(), 1u) << "offset " << offset.count();
    const ElasticReport& report = reports.front();
    EXPECT_TRUE(report.outcome == MigrationOutcome::kAbortedDstFailed ||
                report.outcome == MigrationOutcome::kCompleted)
        << "offset " << offset.count();
    EXPECT_EQ(rig.engine->pending_ops(), 0u);

    // The slice either kept running on the source, or was lost (state
    // shipped to the dead host / completed onto it) and recovery places it.
    if (rig.engine->slice_lost(slice)) {
      bool recovered = false;
      rig.engine->recover_slice(slice, rig.hosts[0]->id(),
                                [&] { recovered = true; });
      rig.sim.run_until(rig.sim.now() + seconds(10));
      ASSERT_TRUE(recovered) << "offset " << offset.count();
    } else if (report.outcome == MigrationOutcome::kAbortedDstFailed) {
      EXPECT_EQ(rig.engine->slice_host(slice), src);
    }
    rig.sim.run_until(rig.sim.now() + seconds(10));  // drain
    rig.expect_exactly_once(kValues);

    // The engine is still able to migrate other slices.
    const SliceId other = rig.engine->slice_id("work", 1);
    std::optional<ElasticReport> follow_up;
    rig.engine->migrate(other, rig.hosts[0]->id(),
                        [&](const ElasticReport& r) { follow_up = r; });
    rig.sim.run_until(rig.sim.now() + seconds(5));
    ASSERT_TRUE(follow_up.has_value()) << "offset " << offset.count();
    EXPECT_EQ(follow_up->outcome, MigrationOutcome::kCompleted);
    EXPECT_EQ(rig.engine->slice_host(other), rig.hosts[0]->id());
  }
}

TEST(MigrationFaults, SourceCrashAtEveryStep) {
  for (const SimDuration offset : kCrashOffsets) {
    Rig rig;
    constexpr std::uint64_t kValues = 500;
    rig.inject_values(kValues, millis(10));
    rig.sim.run_until(rig.sim.now() + millis(1500));

    const SliceId slice = rig.engine->slice_id("work", 0);
    const HostId src = rig.engine->slice_host(slice);
    const HostId dst = rig.hosts[4]->id();
    std::vector<ElasticReport> reports;
    rig.engine->migrate(slice, dst,
                        [&](const ElasticReport& r) { reports.push_back(r); });
    rig.sim.schedule(offset, [&] { rig.engine->fail_host(src); });
    rig.sim.run_until(rig.sim.now() + seconds(5));

    ASSERT_EQ(reports.size(), 1u) << "offset " << offset.count();
    const ElasticReport& report = reports.front();
    EXPECT_TRUE(report.outcome == MigrationOutcome::kAbortedSrcFailed ||
                report.outcome == MigrationOutcome::kCompleted)
        << "offset " << offset.count();
    EXPECT_EQ(rig.engine->pending_ops(), 0u);

    if (rig.engine->slice_lost(slice)) {
      bool recovered = false;
      rig.engine->recover_slice(slice, rig.hosts[0]->id(),
                                [&] { recovered = true; });
      rig.sim.run_until(rig.sim.now() + seconds(10));
      ASSERT_TRUE(recovered) << "offset " << offset.count();
    } else if (report.outcome == MigrationOutcome::kCompleted) {
      // Raced activation: the move finished despite the source's death.
      EXPECT_EQ(rig.engine->slice_host(slice), dst);
    }
    rig.sim.run_until(rig.sim.now() + seconds(10));
    rig.expect_exactly_once(kValues);

    const SliceId other = rig.engine->slice_id("work", 1);
    std::optional<ElasticReport> follow_up;
    rig.engine->migrate(other, rig.hosts[3]->id(),
                        [&](const ElasticReport& r) { follow_up = r; });
    rig.sim.run_until(rig.sim.now() + seconds(5));
    ASSERT_TRUE(follow_up.has_value()) << "offset " << offset.count();
    EXPECT_EQ(follow_up->outcome, MigrationOutcome::kCompleted);
  }
}

TEST(MigrationFaults, QueuedMigrationSurvivesAbortOfCurrent) {
  Rig rig;
  rig.inject_values(300, millis(10));
  rig.sim.run_until(rig.sim.now() + millis(1500));

  const SliceId first = rig.engine->slice_id("work", 0);
  const SliceId second = rig.engine->slice_id("work", 1);
  const HostId dst = rig.hosts[4]->id();
  std::vector<MigrationOutcome> outcomes;
  rig.engine->migrate(first, dst, [&](const ElasticReport& r) {
    outcomes.push_back(r.outcome);
  });
  rig.engine->migrate(second, rig.hosts[0]->id(),
                      [&](const ElasticReport& r) {
                        outcomes.push_back(r.outcome);
                      });
  // Kill the first migration's destination while it is in flight; the
  // queued second migration must still run to completion.
  rig.sim.schedule(millis(10), [&] { rig.engine->fail_host(dst); });
  rig.sim.run_until(rig.sim.now() + seconds(10));

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_NE(outcomes[0], MigrationOutcome::kRejected);
  EXPECT_EQ(outcomes[1], MigrationOutcome::kCompleted);
  EXPECT_EQ(rig.engine->slice_host(second), rig.hosts[0]->id());
  EXPECT_EQ(rig.engine->pending_ops(), 0u);
}

TEST(MigrationFaults, QueuedMigrationToDeadHostIsRejected) {
  Rig rig;
  rig.inject_values(100, millis(10));
  rig.sim.run_until(rig.sim.now() + millis(1500));

  const SliceId first = rig.engine->slice_id("work", 0);
  const SliceId second = rig.engine->slice_id("work", 1);
  const HostId dst = rig.hosts[4]->id();
  std::vector<MigrationOutcome> outcomes;
  // Both moves target host5; it dies while the first is in flight, so the
  // queued second must be rejected at start instead of wedging the queue.
  rig.engine->migrate(first, dst, [&](const ElasticReport& r) {
    outcomes.push_back(r.outcome);
  });
  rig.engine->migrate(second, dst, [&](const ElasticReport& r) {
    outcomes.push_back(r.outcome);
  });
  rig.sim.schedule(millis(10), [&] { rig.engine->fail_host(dst); });
  rig.sim.run_until(rig.sim.now() + seconds(10));

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_NE(outcomes[0], MigrationOutcome::kRejected);
  EXPECT_EQ(outcomes[1], MigrationOutcome::kRejected);
  EXPECT_EQ(rig.engine->pending_ops(), 0u);
}

}  // namespace
}  // namespace esh::engine
