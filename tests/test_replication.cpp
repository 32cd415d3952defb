// Passive replication: periodic checkpoints + upstream-log replay recover
// slices lost to host failures with exactly-once semantics.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
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

class ReplicationTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<std::vector<Record>> collected =
      std::make_shared<std::vector<Record>>();

  void make_engine(bool checkpoints, SimDuration interval = seconds(2)) {
    EngineConfig config;
    config.flush_interval = millis(10);
    config.control_tick = millis(5);
    config.checkpoints.enabled = checkpoints;
    config.checkpoints.interval = interval;
    engine = std::make_unique<Engine>(sim, net, HostId{999}, config, 7);
    for (std::size_t i = 0; i < 4; ++i) {
      hosts.push_back(std::make_unique<cluster::Host>(
          sim, HostId{i + 1}, cluster::HostSpec{}));
      engine->add_host(*hosts.back());
    }
  }

  // gen on host1, work:0 on host2, work:1 on host3, collect on host4:
  // failing host2 leaves every upstream log and the sink intact.
  void deploy() {
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

  // gen -> work -> sink:{0,1}, with work split under load and merged back,
  // then the sinks' host dies. With `sink1_mid_stream_checkpoint` false,
  // sink:1 restores from no checkpoint at all.
  void run_merged_retiree_replay(bool sink1_mid_stream_checkpoint);

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
    auto* rt = engine->slice_runtime(engine->slice_id("work", index));
    return dynamic_cast<const SumForwardHandler&>(rt->handler());
  }
};

TEST_F(ReplicationTest, CheckpointsReachTheStore) {
  make_engine(true, seconds(1));
  deploy();
  inject_values(50, millis(20));
  sim.run_until(sim.now() + seconds(3));
  EXPECT_TRUE(engine->has_checkpoint(engine->slice_id("work", 0)));
  EXPECT_TRUE(engine->has_checkpoint(engine->slice_id("gen", 0)));
}

TEST_F(ReplicationTest, UpstreamLogsTruncateAfterCheckpoints) {
  make_engine(true, seconds(1));
  deploy();
  inject_values(500, millis(10));  // 5 s of traffic
  sim.run_until(sim.now() + seconds(8));
  // gen logged events for both work slices; after several checkpoint
  // rounds the retained suffix is far smaller than the total emitted.
  auto* gen = engine->slice_runtime(engine->slice_id("gen", 0));
  EXPECT_LT(gen->logged_events(), 300u);
}

TEST_F(ReplicationTest, HostFailureRecoversExactlyOnce) {
  make_engine(true, seconds(1));
  deploy();
  constexpr std::uint64_t kValues = 400;
  inject_values(kValues, millis(10));  // 4 s of traffic
  sim.run_until(sim.now() + millis(1500));  // at least one checkpoint

  // Host 2 dies, taking work:0 with it.
  const SliceId lost = engine->slice_id("work", 0);
  ASSERT_TRUE(engine->has_checkpoint(lost));
  const auto lost_slices = engine->fail_host(hosts[1]->id());
  ASSERT_EQ(lost_slices, std::vector<SliceId>{lost});

  // Recover onto host 1 (gen's host).
  bool recovered = false;
  engine->recover_slice(lost, hosts[0]->id(), [&] { recovered = true; });
  sim.run_until(sim.now() + seconds(20));
  ASSERT_TRUE(recovered);
  EXPECT_EQ(engine->slice_host(lost), hosts[0]->id());

  // Every value delivered exactly once despite the crash.
  ASSERT_EQ(collected->size(), kValues);
  std::map<std::uint64_t, int> seen;
  for (const Record& r : *collected) ++seen[r.value];
  for (std::uint64_t v = 1; v <= kValues; ++v) {
    ASSERT_EQ(seen[v], 1) << "value " << v;
  }
  // Recovered state is exact: per-slice sums cover the whole series.
  std::uint64_t total = work_handler(0).sum_ + work_handler(1).sum_;
  EXPECT_EQ(total, kValues * (kValues + 1) / 2);
}

TEST_F(ReplicationTest, SourceSliceRecoveryReplaysExternalChannel) {
  make_engine(true, seconds(1));
  deploy();
  constexpr std::uint64_t kValues = 300;
  inject_values(kValues, millis(10));
  sim.run_until(sim.now() + millis(1500));

  const SliceId gen = engine->slice_id("gen", 0);
  ASSERT_TRUE(engine->has_checkpoint(gen));
  engine->fail_host(hosts[0]->id());
  bool recovered = false;
  engine->recover_slice(gen, hosts[1]->id(), [&] { recovered = true; });
  sim.run_until(sim.now() + seconds(20));
  ASSERT_TRUE(recovered);

  ASSERT_EQ(collected->size(), kValues);
  std::map<std::uint64_t, int> seen;
  for (const Record& r : *collected) ++seen[r.value];
  for (std::uint64_t v = 1; v <= kValues; ++v) {
    ASSERT_EQ(seen[v], 1) << "value " << v;
  }
}

TEST_F(ReplicationTest, FailHostWithoutCheckpointsThrows) {
  make_engine(false);
  deploy();
  EXPECT_THROW(engine->fail_host(hosts[1]->id()), std::logic_error);
}

TEST_F(ReplicationTest, RecoverWithoutCheckpointBootstraps) {
  // A slice that dies before its first checkpoint recovers from scratch:
  // nothing ever truncated the upstream logs, so the full replay rebuilds
  // the state and no event is lost or duplicated.
  make_engine(true, seconds(60));  // interval too long: no checkpoint yet
  deploy();
  constexpr std::uint64_t kValues = 100;
  inject_values(kValues, millis(10));
  sim.run_until(sim.now() + millis(500));
  const SliceId lost = engine->slice_id("work", 0);
  ASSERT_FALSE(engine->has_checkpoint(lost));
  engine->fail_host(hosts[1]->id());
  EXPECT_TRUE(engine->slice_lost(lost));
  bool recovered = false;
  engine->recover_slice(lost, hosts[0]->id(), [&] { recovered = true; });
  sim.run_until(sim.now() + seconds(20));
  ASSERT_TRUE(recovered);
  EXPECT_FALSE(engine->slice_lost(lost));
  EXPECT_EQ(engine->slice_host(lost), hosts[0]->id());

  ASSERT_EQ(collected->size(), kValues);
  std::map<std::uint64_t, int> seen;
  for (const Record& r : *collected) ++seen[r.value];
  for (std::uint64_t v = 1; v <= kValues; ++v) {
    ASSERT_EQ(seen[v], 1) << "value " << v;
  }
  std::uint64_t total = work_handler(0).sum_ + work_handler(1).sum_;
  EXPECT_EQ(total, kValues * (kValues + 1) / 2);
}

TEST_F(ReplicationTest, CheckpointingIsExactlyOnceUnderSteadyFlow) {
  // Checkpoints alone (no failure) must not disturb the stream.
  make_engine(true, millis(500));
  deploy();
  constexpr std::uint64_t kValues = 300;
  inject_values(kValues, millis(10));
  sim.run_until(sim.now() + seconds(8));
  ASSERT_EQ(collected->size(), kValues);
  std::map<std::uint64_t, int> seen;
  for (const Record& r : *collected) ++seen[r.value];
  for (std::uint64_t v = 1; v <= kValues; ++v) EXPECT_EQ(seen[v], 1);
}

void write_values(BinaryWriter& w, const std::multiset<std::uint64_t>& values) {
  w.write_u64(values.size());
  for (const std::uint64_t v : values) w.write_u64(v);
}

std::multiset<std::uint64_t> read_values(BinaryReader& r) {
  std::multiset<std::uint64_t> values;
  for (std::uint64_t n = r.read_u64(); n > 0; --n) values.insert(r.read_u64());
  return values;
}

// Splittable forwarder: its state is the values it saw, keyed by value (the
// routing key), so a split moves exactly the child's keys.
class KeyedForwardHandler final : public Handler {
 public:
  void on_event(Context& ctx, const PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    seen_.insert(num.value);
    ctx.emit("sink", Routing::hash(num.value), p);
  }
  double cost_units(const PayloadPtr&) const override { return 20.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kWrite;
  }
  void serialize_state(BinaryWriter& w) const override { write_values(w, seen_); }
  void restore_state(BinaryReader& r) override { seen_ = read_values(r); }
  std::size_t state_bytes() const override { return 8 * (seen_.size() + 1); }
  double replica_init_units() const override { return 1000.0; }
  bool supports_split() const override { return true; }
  std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w) override {
    std::multiset<std::uint64_t> moved;
    for (auto it = seen_.begin(); it != seen_.end();) {
      if (cov.covers(*it)) {
        moved.insert(*it);
        it = seen_.erase(it);
      } else {
        ++it;
      }
    }
    write_values(w, moved);
    return moved.size();
  }
  void absorb_state(BinaryReader& r) override {
    seen_.merge(read_values(r));
  }

 private:
  std::multiset<std::uint64_t> seen_;
};

// Checkpointed sink: what it delivered is its state, so a recovered sink
// holds exactly what its checkpoint plus the replay gave it.
class SinkHandler final : public Handler {
 public:
  void on_event(Context&, const PayloadPtr& p) override {
    values_.insert(dynamic_cast<const NumPayload&>(*p).value);
  }
  double cost_units(const PayloadPtr&) const override { return 5.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kWrite;
  }
  void serialize_state(BinaryWriter& w) const override {
    write_values(w, values_);
  }
  void restore_state(BinaryReader& r) override { values_ = read_values(r); }
  std::size_t state_bytes() const override { return 8 * (values_.size() + 1); }
  double replica_init_units() const override { return 1000.0; }

  std::multiset<std::uint64_t> values_;
};

void ReplicationTest::run_merged_retiree_replay(
    bool sink1_mid_stream_checkpoint) {
  // Periodic checkpoints stay out of the way; the test forces each one.
  make_engine(true, seconds(1000000));
  Topology t;
  t.operators.push_back(OperatorSpec{"gen", 1, [](std::size_t) {
    return std::make_unique<GenHandler>("work");
  }});
  t.operators.push_back(OperatorSpec{"work", 1, [](std::size_t) {
    return std::make_unique<KeyedForwardHandler>();
  }});
  t.operators.push_back(OperatorSpec{"sink", 2, [](std::size_t) {
    return std::make_unique<SinkHandler>();
  }});
  t.edges = {{"gen", "work"}, {"work", "sink"}};
  engine->deploy(t, {
      {"gen", {hosts[0]->id()}},
      {"work", {hosts[1]->id()}},
      {"sink", {hosts[3]->id(), hosts[3]->id()}},
  });
  const auto run_until = [this](const std::function<bool()>& done) {
    const SimTime limit = sim.now() + seconds(30);
    while (!done() && sim.now() < limit) sim.run_until(sim.now() + millis(10));
    return done();
  };
  const SliceId survivor = engine->slice_id("work", 0);
  const SliceId sink0 = engine->slice_id("sink", 0);
  const SliceId sink1 = engine->slice_id("sink", 1);
  const auto checkpoint = [this](SliceId slice) {
    engine->slice_runtime(slice)->checkpoint(
        engine->checkpoint_store_endpoint());
  };
  constexpr std::uint64_t kValues = 300;
  inject_values(kValues, millis(10));  // 3 s of traffic

  // Split work:0 under load; its child forwards half the keys to the sinks.
  sim.run_until(sim.now() + millis(500));
  std::optional<ElasticReport> split;
  engine->split_slice(survivor, hosts[2]->id(),
                      [&](const ElasticReport& r) { split = r; });
  ASSERT_TRUE(run_until([&] { return split.has_value(); }));
  ASSERT_EQ(split->outcome, MigrationOutcome::kCompleted);
  const SliceId retiree = split->other;

  // Mid-stream sink checkpoints: the sinks have seen part of the child's
  // output, so the child's log keeps only the suffix above them.
  sim.run_until(SimTime{} + millis(2000));
  checkpoint(sink0);
  if (sink1_mid_stream_checkpoint) checkpoint(sink1);
  sim.run_until(sim.now() + seconds(3));  // traffic over, cluster quiescent

  // Merge the child back: the survivor adopts the retiree's log.
  const std::size_t own = engine->slice_runtime(survivor)->logged_events();
  const std::size_t adopted = engine->slice_runtime(retiree)->logged_events();
  ASSERT_GT(adopted, 0u);
  std::optional<ElasticReport> merge;
  engine->merge_slices(survivor, retiree,
                       [&](const ElasticReport& r) { merge = r; });
  ASSERT_TRUE(run_until([&] { return merge.has_value(); }));
  ASSERT_EQ(merge->outcome, MigrationOutcome::kCompleted);
  EXPECT_EQ(engine->slice_runtime(survivor)->logged_events(), own + adopted);

  // A post-merge sink:0 checkpoint truncates the survivor's logs for it,
  // adopted channel included.
  checkpoint(sink0);
  sim.run_until(sim.now() + seconds(1));
  const std::size_t after_truncate =
      engine->slice_runtime(survivor)->logged_events();
  EXPECT_LT(after_truncate, own + adopted);
  EXPECT_GT(after_truncate, 0u);

  // The sinks' host dies. sink:1 restores its mid-stream checkpoint, or
  // none, and needs the retiree's suffix or all of its output; only the
  // survivor's adopted log holds it.
  const auto lost = engine->fail_host(hosts[3]->id());
  ASSERT_EQ(lost, (std::vector<SliceId>{sink0, sink1}));
  int recovered = 0;
  for (const SliceId slice : lost) {
    engine->recover_slice(slice, hosts[0]->id(), [&] { ++recovered; });
  }
  ASSERT_TRUE(run_until([&] { return recovered == 2; }));
  sim.run_until(sim.now() + seconds(3));

  // Exactly-once audit over the recovered sinks' state.
  std::map<std::uint64_t, int> seen;
  for (const SliceId slice : lost) {
    const auto& sink =
        dynamic_cast<const SinkHandler&>(engine->slice_runtime(slice)->handler());
    for (const std::uint64_t v : sink.values_) ++seen[v];
  }
  ASSERT_EQ(seen.size(), kValues);
  for (std::uint64_t v = 1; v <= kValues; ++v) {
    ASSERT_EQ(seen[v], 1) << "value " << v;
  }

  // Once both recovered sinks checkpoint, nothing is left to retain.
  checkpoint(sink0);
  checkpoint(sink1);
  sim.run_until(sim.now() + seconds(1));
  EXPECT_EQ(engine->slice_runtime(survivor)->logged_events(), 0u);
}

TEST_F(ReplicationTest, MergedRetireeLogTruncatesAndReplaysFromSurvivor) {
  run_merged_retiree_replay(true);
}

// A slice restored from no checkpoint names no upstream channel in its
// replay request; the survivor still replays the adopted channel in full.
TEST_F(ReplicationTest, BootstrapRestoreReplaysAdoptedLogFromSurvivor) {
  run_merged_retiree_replay(false);
}

}  // namespace
}  // namespace esh::engine
