// Self-healing cluster: the manager's failure detector turns missed probe
// deadlines into dead verdicts, and the recovery orchestration re-places
// and replays the lost slices with no manual intervention.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/iaas.hpp"
#include "coord/coord.hpp"
#include "elastic/failure_detector.hpp"
#include "elastic/manager.hpp"
#include "engine/engine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace esh::elastic {
namespace {

// ---- failure detector unit tests --------------------------------------------

class FailureDetectorTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  FailureDetectorConfig config{millis(100), 2, 4};
};

TEST_F(FailureDetectorTest, EscalatesAliveSuspectDead) {
  FailureDetector fd{sim, config};
  std::vector<HealthEvent> suspects, deads;
  fd.on_suspect([&](const HealthEvent& ev) { suspects.push_back(ev); });
  fd.on_dead([&](const HealthEvent& ev) { deads.push_back(ev); });

  const HostId host{1};
  fd.watch(host);
  EXPECT_EQ(fd.health(host), HostHealth::kAlive);

  // Regular heartbeats keep the host alive.
  for (int i = 0; i < 5; ++i) {
    sim.run_until(sim.now() + millis(100));
    fd.heartbeat(host);
  }
  EXPECT_EQ(fd.health(host), HostHealth::kAlive);
  EXPECT_TRUE(suspects.empty());

  // Silence: suspect after 2 missed intervals, dead after 4.
  sim.run_until(sim.now() + millis(250));
  EXPECT_EQ(fd.health(host), HostHealth::kSuspect);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0].host, host);
  EXPECT_TRUE(deads.empty());

  sim.run_until(sim.now() + millis(250));
  EXPECT_EQ(fd.health(host), HostHealth::kDead);
  ASSERT_EQ(deads.size(), 1u);
  EXPECT_EQ(deads[0].host, host);
  EXPECT_GE(deads[0].silence, millis(400));

  // Verdicts are final: late heartbeats do not resurrect the host.
  fd.heartbeat(host);
  sim.run_until(sim.now() + millis(500));
  EXPECT_EQ(fd.health(host), HostHealth::kDead);
  EXPECT_EQ(deads.size(), 1u);  // fired exactly once
  EXPECT_EQ(fd.dead_hosts(), std::vector<HostId>{host});
}

TEST_F(FailureDetectorTest, HeartbeatClearsSuspicion) {
  FailureDetector fd{sim, config};
  std::vector<HealthEvent> deads;
  fd.on_dead([&](const HealthEvent& ev) { deads.push_back(ev); });
  const HostId host{1};
  fd.watch(host);
  sim.run_until(sim.now() + millis(250));
  EXPECT_EQ(fd.health(host), HostHealth::kSuspect);
  fd.heartbeat(host);
  EXPECT_EQ(fd.health(host), HostHealth::kAlive);
  sim.run_until(sim.now() + millis(250));
  EXPECT_EQ(fd.health(host), HostHealth::kSuspect);  // counted from heartbeat
  EXPECT_TRUE(deads.empty());
}

TEST_F(FailureDetectorTest, MarkDeadRecordsInheritedVerdictSilently) {
  FailureDetector fd{sim, config};
  std::vector<HealthEvent> deads;
  fd.on_dead([&](const HealthEvent& ev) { deads.push_back(ev); });
  const HostId host{7};
  fd.mark_dead(host);
  EXPECT_EQ(fd.health(host), HostHealth::kDead);
  EXPECT_TRUE(deads.empty());
  // watch() must not resurrect an inherited verdict.
  fd.watch(host);
  EXPECT_EQ(fd.health(host), HostHealth::kDead);
}

TEST_F(FailureDetectorTest, UnwatchedHostsReportAliveAndConfigValidates) {
  FailureDetector fd{sim, config};
  EXPECT_EQ(fd.health(HostId{42}), HostHealth::kAlive);
  EXPECT_FALSE(fd.watching(HostId{42}));
  EXPECT_THROW((FailureDetector{sim, FailureDetectorConfig{millis(0), 2, 4}}),
               std::invalid_argument);
  EXPECT_THROW(
      (FailureDetector{sim, FailureDetectorConfig{millis(100), 3, 2}}),
      std::invalid_argument);
  EXPECT_THROW(
      (FailureDetector{sim, FailureDetectorConfig{millis(100), 0, 4}}),
      std::invalid_argument);
}

// ---- manager recovery orchestration -----------------------------------------

struct NumPayload final : engine::Payload {
  explicit NumPayload(std::uint64_t v) : value(v) {}
  std::uint64_t value;
  [[nodiscard]] std::size_t bytes() const override { return 64; }
};

struct Record {
  std::size_t slice_index;
  std::uint64_t value;
};

class CollectHandler final : public engine::Handler {
 public:
  CollectHandler(std::shared_ptr<std::vector<Record>> out, std::size_t index)
      : out_(std::move(out)), index_(index) {}
  void on_event(engine::Context&, const engine::PayloadPtr& p) override {
    out_->push_back(Record{index_, dynamic_cast<const NumPayload&>(*p).value});
  }
  double cost_units(const engine::PayloadPtr&) const override { return 5.0; }
  cluster::LockMode lock_mode(const engine::PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  std::shared_ptr<std::vector<Record>> out_;
  std::size_t index_;
};

class SumForwardHandler final : public engine::Handler {
 public:
  explicit SumForwardHandler(std::string next) : next_(std::move(next)) {}
  void on_event(engine::Context& ctx, const engine::PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    sum_ += num.value;
    if (!next_.empty()) ctx.emit(next_, engine::Routing::hash(num.value), p);
  }
  double cost_units(const engine::PayloadPtr&) const override { return 20.0; }
  cluster::LockMode lock_mode(const engine::PayloadPtr&) const override {
    return cluster::LockMode::kWrite;
  }
  void serialize_state(BinaryWriter& w) const override { w.write_u64(sum_); }
  void restore_state(BinaryReader& r) override { sum_ = r.read_u64(); }
  std::size_t state_bytes() const override { return 8; }

  std::uint64_t sum_ = 0;

 private:
  std::string next_;
};

class GenHandler final : public engine::Handler {
 public:
  explicit GenHandler(std::string next) : next_(std::move(next)) {}
  void on_event(engine::Context& ctx, const engine::PayloadPtr& p) override {
    const auto& num = dynamic_cast<const NumPayload&>(*p);
    ctx.emit(next_, engine::Routing::hash(num.value), p);
  }
  double cost_units(const engine::PayloadPtr&) const override { return 2.0; }
  cluster::LockMode lock_mode(const engine::PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  std::string next_;
};

// Full self-healing rig: pool-allocated hosts, engine with checkpoints,
// manager with failure detection. Hosts 1..4 hold gen/work0/work1/collect.
class SelfHealingTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  net::Network net{sim};
  std::unique_ptr<cluster::IaasPool> pool;
  std::unique_ptr<coord::CoordService> coord;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<Manager> manager;
  std::shared_ptr<std::vector<Record>> collected =
      std::make_shared<std::vector<Record>>();
  std::vector<HostId> hosts;

  void build(std::size_t max_hosts = 8) {
    cluster::IaasConfig iaas;
    iaas.max_hosts = max_hosts;
    iaas.boot_delay = millis(500);
    pool = std::make_unique<cluster::IaasPool>(sim, iaas);
    coord = std::make_unique<coord::CoordService>(sim);

    engine::EngineConfig config;
    config.flush_interval = millis(10);
    config.control_tick = millis(5);
    config.probe_interval = millis(100);
    config.checkpoints.enabled = true;
    config.checkpoints.interval = millis(500);
    engine = std::make_unique<engine::Engine>(sim, net, HostId{999}, config, 7);

    for (std::size_t i = 0; i < 4; ++i) {
      hosts.push_back(pool->allocate([this](cluster::Host& h) {
        engine->add_host(h);
      }));
    }
    sim.run_until(sim.now() + millis(600));  // boot

    engine::Topology t;
    t.operators.push_back(engine::OperatorSpec{"gen", 1, [](std::size_t) {
      return std::make_unique<GenHandler>("work");
    }});
    t.operators.push_back(engine::OperatorSpec{"work", 2, [](std::size_t) {
      return std::make_unique<SumForwardHandler>("collect");
    }});
    t.operators.push_back(
        engine::OperatorSpec{"collect", 2, [this](std::size_t i) {
          return std::make_unique<CollectHandler>(collected, i);
        }});
    t.edges = {{"gen", "work"}, {"work", "collect"}};
    engine->deploy(t, {
        {"gen", {hosts[0]}},
        {"work", {hosts[1], hosts[2]}},
        {"collect", {hosts[3], hosts[3]}},
    });
  }

  ManagerConfig manager_config() {
    ManagerConfig cfg;
    cfg.elastic_operators = {"work"};
    cfg.recovery.enabled = true;
    cfg.recovery.detector.probe_interval = millis(100);
    cfg.recovery.detector.suspect_after = 2;
    cfg.recovery.detector.dead_after = 4;
    cfg.recovery.attempt_timeout = seconds(5);
    return cfg;
  }

  void start_manager(const std::vector<HostId>& managed) {
    manager = std::make_unique<Manager>(sim, net, *engine, *pool, *coord,
                                        HostId{999}, manager_config());
    manager->set_enforcement(false);
    manager->start(managed);
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

TEST_F(SelfHealingTest, CrashedHostRecoversOntoSurvivorAutomatically) {
  build();
  start_manager({hosts[1], hosts[2]});
  constexpr std::uint64_t kValues = 400;
  inject_values(kValues, millis(10));
  sim.run_until(sim.now() + millis(1500));  // past the first checkpoint

  // Crash the host holding work:0. No manual fail_host/recover_slice: the
  // probe silence alone must drive detection and recovery.
  const SliceId lost = engine->slice_id("work", 0);
  ASSERT_EQ(engine->slice_host(lost), hosts[1]);
  net.set_host_down(hosts[1], true);

  sim.run_until(sim.now() + seconds(30));
  ASSERT_EQ(manager->recoveries().size(), 1u);
  const RecoveryReport& report = manager->recoveries()[0];
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.host, hosts[1]);
  EXPECT_EQ(report.slices_lost, std::vector<SliceId>{lost});
  EXPECT_EQ(report.slices_recovered, 1u);
  EXPECT_TRUE(report.replacement_hosts.empty());  // survivor had room
  EXPECT_GT(report.mttr(), SimDuration::zero());
  EXPECT_GE(report.quarantined, report.detected);
  EXPECT_GE(report.placed, report.quarantined);
  EXPECT_GE(report.recovered, report.placed);
  // Detection needed at least dead_after probe intervals of silence.
  EXPECT_GE(report.detected, millis(1500) + 4 * millis(100));

  // The slice lives on the surviving managed host and traffic is intact.
  EXPECT_EQ(engine->slice_host(lost), hosts[2]);
  EXPECT_FALSE(engine->slice_lost(lost));
  expect_exactly_once(kValues);

  // The verdict and the new placement were persisted for successors.
  EXPECT_EQ(coord->read("/estreamhub/health/" +
                        std::to_string(hosts[1].value())),
            "dead");
  EXPECT_EQ(coord->read("/estreamhub/config/slices/" +
                        std::to_string(lost.value())),
            std::to_string(hosts[2].value()));
  EXPECT_EQ(manager->managed_hosts(), std::vector<HostId>{hosts[2]});
}

TEST_F(SelfHealingTest, AllocatesReplacementHostWhenSurvivorsLackCapacity) {
  build();
  // Only the crashed host is managed: placement has no surviving bins and
  // must allocate a replacement from the pool.
  start_manager({hosts[1]});
  constexpr std::uint64_t kValues = 300;
  inject_values(kValues, millis(10));
  sim.run_until(sim.now() + millis(1200));

  const SliceId lost = engine->slice_id("work", 0);
  net.set_host_down(hosts[1], true);
  sim.run_until(sim.now() + seconds(30));

  ASSERT_EQ(manager->recoveries().size(), 1u);
  const RecoveryReport& report = manager->recoveries()[0];
  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.replacement_hosts.size(), 1u);
  const HostId fresh = report.replacement_hosts[0];
  EXPECT_TRUE(engine->has_host(fresh));
  EXPECT_EQ(engine->slice_host(lost), fresh);
  // Boot delay is part of the MTTR.
  EXPECT_GE(report.mttr(), millis(500));
  // The replacement joined the managed set (and is being watched).
  EXPECT_EQ(manager->managed_hosts(), std::vector<HostId>{fresh});
  EXPECT_TRUE(manager->failure_detector()->watching(fresh));
  expect_exactly_once(kValues);
}

TEST_F(SelfHealingTest, SuccessorManagerInheritsDeadVerdict) {
  build();
  start_manager({hosts[1], hosts[2]});
  inject_values(200, millis(10));
  sim.run_until(sim.now() + millis(1500));
  net.set_host_down(hosts[1], true);
  sim.run_until(sim.now() + seconds(30));
  ASSERT_EQ(manager->recoveries().size(), 1u);

  // A restarted manager instance recovers the managed set from the
  // coordination tree and must not re-adopt the dead host. The previous
  // instance is gone (its detector dies with it).
  manager.reset();
  Manager successor{sim, net, *engine, *pool, *coord, HostId{999},
                    manager_config()};
  successor.set_enforcement(false);
  std::optional<bool> ready;
  successor.start_from_coordination([&](bool ok) { ready = ok; });
  sim.run_until(sim.now() + seconds(1));
  ASSERT_TRUE(ready.has_value());
  EXPECT_TRUE(*ready);
  EXPECT_EQ(successor.managed_hosts(), std::vector<HostId>{hosts[2]});
  EXPECT_EQ(successor.failure_detector()->health(hosts[1]),
            HostHealth::kDead);
}

TEST_F(SelfHealingTest, StartFromCoordinationWithoutStateFailsCleanly) {
  build();
  // Nothing persisted yet: recovery reports failure, nothing is enforced,
  // and a subsequent fresh start() must succeed.
  manager = std::make_unique<Manager>(sim, net, *engine, *pool, *coord,
                                      HostId{999}, manager_config());
  manager->set_enforcement(false);
  std::optional<bool> ready;
  manager->start_from_coordination([&](bool ok) { ready = ok; });
  sim.run_until(sim.now() + seconds(1));
  ASSERT_TRUE(ready.has_value());
  EXPECT_FALSE(*ready);
  EXPECT_EQ(manager->managed_host_count(), 0u);
  EXPECT_TRUE(manager->load_history().empty());

  manager->start({hosts[1], hosts[2]});
  sim.run_until(sim.now() + seconds(1));
  EXPECT_EQ(manager->managed_host_count(), 2u);
  // Probes flow: the manager records load samples again.
  EXPECT_FALSE(manager->load_history().empty());
}

TEST_F(SelfHealingTest, MidPlanDestinationCrashAbandonsMoveAndFinishesPlan) {
  build();
  start_manager({hosts[1], hosts[2]});
  inject_values(300, millis(10));
  sim.run_until(sim.now() + millis(1200));

  // Drive a manual plan moving work:0 -> host 3 (collect's host is not
  // managed; use the other worker) and crash the destination mid-flight.
  const SliceId moving = engine->slice_id("work", 0);
  bool crashed = false;
  MigrationPlan plan;
  plan.reason = MigrationPlan::Reason::kLocalHigh;
  MigrationPlan::Move move{moving, hosts[2], std::nullopt};
  // Stamp the protocol the move's own signals select, as Enforcer::evaluate
  // does; the manager re-derives and cross-checks it before executing.
  move.strategy =
      select_strategy(manager->enforcer().config(), move.state_bytes, move.cpu);
  plan.moves.push_back(move);
  manager->set_policy([&](const SystemView&) {
    MigrationPlan p;
    if (!crashed) p = plan;
    return p;
  });
  manager->set_enforcement(true);
  sim.schedule(millis(150), [&] {
    crashed = true;
    net.set_host_down(hosts[2], true);
  });
  sim.run_until(sim.now() + seconds(30));

  // The move was aborted or rejected, never wedged: the plan finished and
  // the dead destination went through recovery like any other host.
  EXPECT_FALSE(manager->plan_in_progress());
  ASSERT_EQ(manager->recoveries().size(), 1u);
  EXPECT_TRUE(manager->recoveries()[0].complete);
  EXPECT_FALSE(engine->slice_lost(moving));
  EXPECT_FALSE(engine->slice_lost(engine->slice_id("work", 1)));
}

}  // namespace
}  // namespace esh::elastic
