// Strategy-parameterized differential suite: every registered migration
// protocol (buffered-replay, stop-and-restart, incremental-precopy) must
// yield the same post-migration content — delivery audit, serialized
// operator state, per-slice work counts — for the same workload, with and
// without a crash in the schedule, and each strategy's run must be
// byte-identical at 1/2/4/8 worker threads (the pool affects wall-clock
// only). Plus unit pins for the pre-copy page diff/patch primitives and the
// strategy registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "cluster/host.hpp"
#include "common/serde.hpp"
#include "engine/engine.hpp"
#include "engine/host_runtime.hpp"
#include "engine/migration_strategy.hpp"
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
  SimTime at;

  bool operator==(const Record&) const = default;
};

class CollectHandler final : public Handler {
 public:
  CollectHandler(std::shared_ptr<std::vector<Record>> out, std::size_t index)
      : out_(std::move(out)), index_(index) {}
  void on_event(Context& ctx, const PayloadPtr& p) override {
    out_->push_back(Record{index_, dynamic_cast<const NumPayload&>(*p).value,
                           ctx.now()});
  }
  double cost_units(const PayloadPtr&) const override { return 5.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  std::shared_ptr<std::vector<Record>> out_;
  std::size_t index_;
};

// Stateful worker with a multi-page serialized image (8 * kSlots bytes), so
// the pre-copy page diff has real dirty-set structure to chew on and the
// full-checkpoint strategies ship a non-trivial transfer.
class TallyForwardHandler final : public Handler {
 public:
  static constexpr std::size_t kSlots = 512;

  explicit TallyForwardHandler(std::string next) : next_(std::move(next)) {
    slots_.assign(kSlots, 0);
  }
  void on_event(Context& ctx, const PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    slots_[num.value % kSlots] += num.value;
    if (!next_.empty()) ctx.emit(next_, Routing::hash(num.value), p);
  }
  double cost_units(const PayloadPtr&) const override { return 20.0; }
  cluster::LockMode lock_mode(const PayloadPtr&) const override {
    return cluster::LockMode::kWrite;
  }
  void serialize_state(BinaryWriter& w) const override {
    for (std::uint64_t v : slots_) w.write_u64(v);
  }
  void restore_state(BinaryReader& r) override {
    for (std::uint64_t& v : slots_) v = r.read_u64();
  }
  std::size_t state_bytes() const override { return kSlots * 8; }
  double replica_init_units() const override { return 1000.0; }

 private:
  std::string next_;
  std::vector<std::uint64_t> slots_;
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

// Everything content-bearing a run produces. `audit` keeps raw delivery
// order and timestamps (byte-identity across thread counts); cross-strategy
// comparisons sort it and drop the times, since protocol timing legitimately
// differs between strategies.
struct Fingerprint {
  std::vector<Record> audit;
  std::vector<std::vector<std::byte>> work_state;  // per work slice
  std::vector<std::uint64_t> collect_processed;    // per collect slice
  ElasticReport report;

  [[nodiscard]] std::vector<std::pair<std::size_t, std::uint64_t>>
  sorted_audit() const {
    std::vector<std::pair<std::size_t, std::uint64_t>> v;
    v.reserve(audit.size());
    for (const Record& r : audit) v.emplace_back(r.slice_index, r.value);
    std::sort(v.begin(), v.end());
    return v;
  }
};

struct Rig {
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<std::unique_ptr<cluster::Host>> hosts;
  std::unique_ptr<Engine> engine;
  std::shared_ptr<std::vector<Record>> collected =
      std::make_shared<std::vector<Record>>();

  explicit Rig(std::size_t threads = 1) {
    EngineConfig config;
    config.flush_interval = millis(10);
    config.control_tick = millis(5);
    config.checkpoints.enabled = true;
    config.checkpoints.interval = seconds(1);
    config.worker_threads = threads;
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
      return std::make_unique<TallyForwardHandler>("collect");
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

  [[nodiscard]] std::vector<std::byte> serialized_state(SliceId slice) {
    SliceRuntime* rt = engine->slice_runtime(slice);
    if (rt == nullptr) return {};
    BinaryWriter w;
    rt->handler().serialize_state(w);
    return std::move(w).take();
  }
};

// High enough a rate (one event every 2 ms, ~4 ms per work slice) that
// events demonstrably flow through every protocol window: the mirror phase
// sees duplicates, the pre-copy rounds see dirty pages, the final delta is
// non-empty.
constexpr std::uint64_t kValues = 1500;

// One full differential scenario: warm up under traffic, migrate work:0 to
// the empty host with `kind`, optionally crash the destination mid-protocol,
// recover if the slice was lost, drain, and fingerprint the world.
Fingerprint run_scenario(MigrationStrategyKind kind, std::size_t threads,
                         std::optional<SimDuration> crash_dst_after = {}) {
  Rig rig(threads);
  rig.inject_values(kValues, millis(2));  // 3 s of traffic
  rig.sim.run_until(rig.sim.now() + millis(1500));  // checkpoints exist

  const SliceId slice = rig.engine->slice_id("work", 0);
  const HostId dst = rig.hosts[4]->id();
  std::vector<ElasticReport> reports;
  rig.engine->migrate(slice, dst, kind,
                      [&](const ElasticReport& r) { reports.push_back(r); });
  if (crash_dst_after) {
    rig.sim.schedule(*crash_dst_after, [&] { rig.engine->fail_host(dst); });
  }
  rig.sim.run_until(rig.sim.now() + seconds(5));
  EXPECT_EQ(reports.size(), 1u);
  if (rig.engine->slice_lost(slice)) {
    bool recovered = false;
    rig.engine->recover_slice(slice, rig.hosts[0]->id(),
                              [&] { recovered = true; });
    rig.sim.run_until(rig.sim.now() + seconds(10));
    EXPECT_TRUE(recovered);
  }
  rig.sim.run_until(rig.sim.now() + seconds(10));  // drain
  rig.expect_exactly_once(kValues);

  Fingerprint fp;
  fp.audit = *rig.collected;
  for (std::size_t i = 0; i < 2; ++i) {
    fp.work_state.push_back(
        rig.serialized_state(rig.engine->slice_id("work", i)));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    SliceRuntime* rt =
        rig.engine->slice_runtime(rig.engine->slice_id("collect", i));
    fp.collect_processed.push_back(rt ? rt->events_processed() : 0);
  }
  if (!reports.empty()) fp.report = reports.front();
  return fp;
}

// ---- Strategy registry ------------------------------------------------------

TEST(MigrationStrategyRegistry, ExposesAllThreeProtocolsInKindOrder) {
  const auto& all = migration_strategies();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name(), "buffered-replay");
  EXPECT_EQ(all[1]->name(), "stop-and-restart");
  EXPECT_EQ(all[2]->name(), "incremental-precopy");
  for (const MigrationStrategy* s : all) {
    EXPECT_EQ(&strategy_for(s->kind()), s);
    EXPECT_EQ(to_string(s->kind()), s->name());
  }

  EngineConfig config;
  config.precopy_rounds = 4;
  EXPECT_FALSE(all[0]->redirect_channels());
  EXPECT_TRUE(all[1]->redirect_channels());
  EXPECT_FALSE(all[2]->redirect_channels());
  EXPECT_EQ(all[0]->precopy_rounds(config), 0u);
  EXPECT_EQ(all[1]->precopy_rounds(config), 0u);
  EXPECT_EQ(all[2]->precopy_rounds(config), 4u);
}

// ---- Pre-copy page primitives ----------------------------------------------

TEST(PrecopyPages, IdenticalImagesProduceAnEmptyDiff) {
  const std::vector<std::byte> image(200, std::byte{0x5a});
  EXPECT_TRUE(diff_pages(image, image, 64).empty());
}

TEST(PrecopyPages, DiffThenApplyReconstructsAnyImagePair) {
  auto make = [](std::size_t n, unsigned seed) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      seed = seed * 1664525u + 1013904223u;
      v[i] = std::byte{static_cast<std::uint8_t>(seed >> 24)};
    }
    return v;
  };
  const std::size_t kPage = 64;
  const std::vector<std::pair<std::size_t, std::size_t>> sizes = {
      {0, 100}, {100, 0}, {100, 100}, {100, 300}, {300, 100},
      {64, 64}, {65, 63}, {1, 1},    {0, 0},     {4096, 4096}};
  for (const auto& [nb, nn] : sizes) {
    const auto base = make(nb, 1);
    const auto next = make(nn, 2);
    const auto pages = diff_pages(base, next, kPage);
    EXPECT_EQ(apply_pages(base, next.size(), pages), next)
        << "base=" << nb << " next=" << nn;
  }
}

TEST(PrecopyPages, OnlyDirtyPagesTravel) {
  std::vector<std::byte> base(512, std::byte{0});
  std::vector<std::byte> next = base;
  next[70] = std::byte{1};   // page 1
  next[400] = std::byte{2};  // page 6
  const auto pages = diff_pages(base, next, 64);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0].offset, 64u);
  EXPECT_EQ(pages[1].offset, 384u);
  for (const StatePage& p : pages) EXPECT_EQ(p.bytes.size(), 64u);
  EXPECT_EQ(apply_pages(base, next.size(), pages), next);
}

// ---- Differential suite -----------------------------------------------------

class StrategyDifferential
    : public ::testing::TestWithParam<MigrationStrategyKind> {};

TEST_P(StrategyDifferential, CompletesWithExactlyOnceDelivery) {
  const Fingerprint fp = run_scenario(GetParam(), 1);
  EXPECT_EQ(fp.report.outcome, MigrationOutcome::kCompleted);
  EXPECT_EQ(fp.report.strategy, strategy_for(GetParam()).name());
  EXPECT_GT(fp.report.bytes_shipped(), 0u);
  EXPECT_GE(fp.report.activated, fp.report.frozen);
}

TEST_P(StrategyDifferential, ByteIdenticalAcrossThreadCounts) {
  const Fingerprint base = run_scenario(GetParam(), 1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const Fingerprint fp = run_scenario(GetParam(), threads);
    // Raw order AND timestamps must match: the worker pool may only change
    // wall-clock, never simulated results.
    EXPECT_EQ(fp.audit, base.audit) << "threads=" << threads;
    EXPECT_EQ(fp.work_state, base.work_state) << "threads=" << threads;
    EXPECT_EQ(fp.collect_processed, base.collect_processed)
        << "threads=" << threads;
    EXPECT_EQ(fp.report.outcome, base.report.outcome) << "threads=" << threads;
    EXPECT_EQ(fp.report.bytes_shipped(), base.report.bytes_shipped())
        << "threads=" << threads;
  }
}

TEST_P(StrategyDifferential, ExactlyOnceSurvivesDestinationCrash) {
  const Fingerprint fp = run_scenario(GetParam(), 1, millis(25));
  // run_scenario already audited exactly-once; the migration must have
  // resolved one way or the other without wedging.
  EXPECT_TRUE(fp.report.outcome == MigrationOutcome::kCompleted ||
              fp.report.outcome == MigrationOutcome::kAbortedDstFailed);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyDifferential,
    ::testing::Values(MigrationStrategyKind::kBufferedReplay,
                      MigrationStrategyKind::kStopAndRestart,
                      MigrationStrategyKind::kIncrementalPrecopy),
    [](const ::testing::TestParamInfo<MigrationStrategyKind>& info) {
      std::string name = to_string(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The content oracle: all three protocols process the same workload into
// the same facts — same value->slice delivery sets, same serialized
// operator state, same per-collector work counts.
TEST(StrategyDifferential, AllStrategiesYieldIdenticalContentFingerprints) {
  const Fingerprint base =
      run_scenario(MigrationStrategyKind::kBufferedReplay, 1);
  for (const MigrationStrategyKind kind :
       {MigrationStrategyKind::kStopAndRestart,
        MigrationStrategyKind::kIncrementalPrecopy}) {
    const Fingerprint fp = run_scenario(kind, 1);
    EXPECT_EQ(fp.sorted_audit(), base.sorted_audit()) << to_string(kind);
    EXPECT_EQ(fp.work_state, base.work_state) << to_string(kind);
    EXPECT_EQ(fp.collect_processed, base.collect_processed) << to_string(kind);
  }
}

// Same workload plus the same fault schedule (destination dies mid-protocol)
// must still converge to identical content under every strategy.
TEST(StrategyDifferential, FaultScheduleYieldsIdenticalContentFingerprints) {
  const SimDuration kCrashAt = millis(25);
  const Fingerprint base =
      run_scenario(MigrationStrategyKind::kBufferedReplay, 1, kCrashAt);
  for (const MigrationStrategyKind kind :
       {MigrationStrategyKind::kStopAndRestart,
        MigrationStrategyKind::kIncrementalPrecopy}) {
    const Fingerprint fp = run_scenario(kind, 1, kCrashAt);
    EXPECT_EQ(fp.sorted_audit(), base.sorted_audit()) << to_string(kind);
    EXPECT_EQ(fp.work_state, base.work_state) << to_string(kind);
  }
}

// The tradeoff the strategies exist for (also swept by
// bench/fig_migration_strategies): stop-and-restart ships the fewest bytes,
// incremental pre-copy stops the slice for the shortest window.
TEST(StrategyDifferential, TradeoffOrderingHolds) {
  const Fingerprint br =
      run_scenario(MigrationStrategyKind::kBufferedReplay, 1);
  const Fingerprint sr =
      run_scenario(MigrationStrategyKind::kStopAndRestart, 1);
  const Fingerprint pc =
      run_scenario(MigrationStrategyKind::kIncrementalPrecopy, 1);
  ASSERT_EQ(br.report.outcome, MigrationOutcome::kCompleted);
  ASSERT_EQ(sr.report.outcome, MigrationOutcome::kCompleted);
  ASSERT_EQ(pc.report.outcome, MigrationOutcome::kCompleted);

  EXPECT_LT(sr.report.bytes_shipped(), br.report.bytes_shipped());
  EXPECT_LT(sr.report.bytes_shipped(), pc.report.bytes_shipped());
  EXPECT_EQ(sr.report.duplicate_bytes, 0u);  // park redirects, never mirrors

  EXPECT_LT(pc.report.interruption(), br.report.interruption());
  EXPECT_LT(pc.report.interruption(), sr.report.interruption());
  // The delta transfer is the point: the final stop ships less than the
  // full image, the pre-copy rounds carry the rest.
  EXPECT_LT(pc.report.transfer_bytes, br.report.transfer_bytes);
  EXPECT_GT(pc.report.precopy_bytes, 0u);
}

}  // namespace
}  // namespace esh::engine
