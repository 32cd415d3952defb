// Contract-layer tests: the transition tables and the structured
// ContractViolation payload are exercised in every build; each seeded fault
// (clock warp, corrupted channel, illegal transition, double release,
// duplicate EP dispatch) must trip its named invariant in checked builds.
// The complementary property — that the full suite, chaos harness included,
// runs violation-free under ESH_CHECK_INVARIANTS=ON — is covered by running
// this whole test directory in the checked CI job (scripts/ci.sh checked).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/iaas.hpp"
#include "common/contracts.hpp"
#include "elastic/enforcer.hpp"
#include "elastic/manager.hpp"
#include "engine/migration_strategy.hpp"
#include "common/keyspace.hpp"
#include "common/serde.hpp"
#include "filter/matcher.hpp"
#include "engine/engine.hpp"
#include "engine/host_runtime.hpp"
#include "harness/testbed.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "pubsub/operators.hpp"
#include "pubsub/payloads.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace esh {
namespace {

using contracts::ContractViolation;
using contracts::Detail;
using contracts::Kind;

// ---- payload and tables: live in every build -------------------------------

TEST(ContractViolationTest, CarriesStructuredPayload) {
  const ContractViolation v{
      Kind::kInvariant, "engine", "channel-gap-free", "expected == last + 1",
      Detail{}.slice(SliceId{7}).host(HostId{3}).expected(4).actual(6).note(
          "input channel from slice 2")};
  EXPECT_EQ(v.kind(), Kind::kInvariant);
  EXPECT_EQ(v.subsystem(), "engine");
  EXPECT_EQ(v.name(), "channel-gap-free");
  EXPECT_EQ(v.condition(), "expected == last + 1");
  EXPECT_EQ(v.detail().slice_id, 7u);
  EXPECT_EQ(v.detail().host_id, 3u);
  EXPECT_EQ(v.detail().expected_value, "4");
  EXPECT_EQ(v.detail().actual_value, "6");
  const std::string what = v.what();
  EXPECT_NE(what.find("ContractViolation[invariant]"), std::string::npos);
  EXPECT_NE(what.find("engine/channel-gap-free"), std::string::npos);
  EXPECT_NE(what.find("slice=7"), std::string::npos);
  EXPECT_NE(what.find("host=3"), std::string::npos);
  EXPECT_NE(what.find("expected=4"), std::string::npos);
  EXPECT_NE(what.find("actual=6"), std::string::npos);
}

TEST(ContractViolationTest, IsALogicErrorSoDefensiveThrowTestsStillPass) {
  EXPECT_THROW(
      contracts::fail(Kind::kPrecondition, "cluster", "iaas-no-double-release",
                      "id >= next", Detail{}),
      std::logic_error);
}

TEST(ContractViolationTest, DetailStringifiesDomainTypes) {
  Detail d;
  d.slice(SliceId{1}).expected(micros(1500)).actual(HostId{}).transition(
      "frozen", "active");
  EXPECT_EQ(d.expected_value, "1500us");
  EXPECT_EQ(d.actual_value, "frozen -> active");
  EXPECT_FALSE(d.has_host());
  EXPECT_TRUE(d.has_slice());
}

TEST(MigrationTransitionTest, TableEncodesProtocolOrder) {
  using Step = engine::MigrationStep;
  // The paper's migration order: create replica, duplicate, freeze+transfer,
  // update directory, tear down.
  EXPECT_TRUE(engine::migration_transition_legal(Step::kCreateReplica,
                                                 Step::kDuplication));
  EXPECT_TRUE(
      engine::migration_transition_legal(Step::kDuplication, Step::kTransfer));
  EXPECT_TRUE(engine::migration_transition_legal(Step::kTransfer,
                                                 Step::kDirectoryUpdate));
  EXPECT_TRUE(engine::migration_transition_legal(Step::kDirectoryUpdate,
                                                 Step::kTeardown));
  // Source operators with no upstream channels skip duplication.
  EXPECT_TRUE(engine::migration_transition_legal(Step::kCreateReplica,
                                                 Step::kTransfer));
  // Either peer dying aborts; an ActivatedAck racing the abort means the
  // transfer won and directory convergence proceeds.
  EXPECT_TRUE(
      engine::migration_transition_legal(Step::kTransfer, Step::kAborting));
  EXPECT_TRUE(engine::migration_transition_legal(Step::kAborting,
                                                 Step::kDirectoryUpdate));
  // Never backwards, never out of the terminal step.
  EXPECT_FALSE(engine::migration_transition_legal(Step::kTeardown,
                                                  Step::kDuplication));
  EXPECT_FALSE(engine::migration_transition_legal(Step::kDirectoryUpdate,
                                                  Step::kDuplication));
  EXPECT_FALSE(
      engine::migration_transition_legal(Step::kAborting, Step::kTransfer));
}

TEST(SliceTransitionTest, TableEncodesLifecycle) {
  using State = engine::SliceRuntime::State;
  EXPECT_TRUE(engine::slice_transition_legal(State::kActive,
                                             State::kFreezePending));
  EXPECT_TRUE(
      engine::slice_transition_legal(State::kFreezePending, State::kFrozen));
  EXPECT_TRUE(
      engine::slice_transition_legal(State::kFreezePending, State::kActive));
  EXPECT_TRUE(
      engine::slice_transition_legal(State::kInactiveReplica, State::kActive));
  EXPECT_TRUE(engine::slice_transition_legal(State::kFrozen, State::kRetired));
  // fail_host retires a slice, then evict_slice retires it again.
  EXPECT_TRUE(engine::slice_transition_legal(State::kRetired, State::kRetired));
  // Stop-and-restart abort: a parked source frozen at its exact catch-up
  // point thaws back to active (the coordinator replays the dropped suffix).
  EXPECT_TRUE(engine::slice_transition_legal(State::kFrozen, State::kActive));
  EXPECT_FALSE(
      engine::slice_transition_legal(State::kRetired, State::kActive));
  EXPECT_FALSE(engine::slice_transition_legal(State::kActive, State::kFrozen));
}

TEST(SplitMergeTransitionTest, TablesEncodeRollForwardProtocol) {
  using S = engine::SplitStep;
  using M = engine::MergeStep;
  // Split order: create child, cut routing over, drain the captured half,
  // activate the child. Only the pre-cut-over step may abort.
  EXPECT_TRUE(engine::split_transition_legal(S::kCreateChild, S::kCutOver));
  EXPECT_TRUE(engine::split_transition_legal(S::kCreateChild, S::kAborting));
  EXPECT_TRUE(engine::split_transition_legal(S::kCutOver, S::kDrain));
  EXPECT_TRUE(engine::split_transition_legal(S::kDrain, S::kActivate));
  // Post-cut-over the split can only roll forward, never abort or rewind.
  EXPECT_FALSE(engine::split_transition_legal(S::kDrain, S::kAborting));
  EXPECT_FALSE(engine::split_transition_legal(S::kActivate, S::kCreateChild));
  EXPECT_FALSE(engine::split_transition_legal(S::kAborting, S::kCutOver));
  // Merge order: inline cut-over, drain the retiree, absorb its state into
  // the survivor, tear down. Merges have no abort edge at all.
  EXPECT_TRUE(engine::merge_transition_legal(M::kCutOver, M::kDrainRetiree));
  EXPECT_TRUE(engine::merge_transition_legal(M::kDrainRetiree, M::kAbsorb));
  EXPECT_TRUE(engine::merge_transition_legal(M::kAbsorb, M::kTeardown));
  EXPECT_FALSE(engine::merge_transition_legal(M::kTeardown, M::kCutOver));
  EXPECT_FALSE(engine::merge_transition_legal(M::kAbsorb, M::kDrainRetiree));
}

#if ESH_INVARIANTS_ENABLED

// ---- seeded faults: each must trip its named invariant ---------------------

TEST(SeededFaultTest, ClockWarpTripsEventTimeMonotonicity) {
  sim::Simulator sim;
  sim.schedule(millis(10), [] {});
  sim.testing_warp_clock(millis(100));
  try {
    sim.run_until(millis(200));
    FAIL() << "warped clock not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.subsystem(), "sim");
    EXPECT_EQ(v.name(), "event-time-monotonic");
    EXPECT_EQ(v.kind(), Kind::kInvariant);
  }
}

TEST(SeededFaultTest, IllegalMigrationTransitionThrowsStructured) {
  using Step = engine::MigrationStep;
  try {
    engine::assert_migration_transition(MigrationId{7}, SliceId{3},
                                        Step::kTeardown, Step::kDuplication);
    FAIL() << "illegal transition not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kStateMachine);
    EXPECT_EQ(v.subsystem(), "engine");
    EXPECT_EQ(v.name(), "migration-step-legal");
    EXPECT_EQ(v.detail().slice_id, 3u);
    EXPECT_EQ(v.detail().actual_value, "teardown -> duplication");
    EXPECT_NE(v.detail().note_text.find("migration 7"), std::string::npos);
  }
}

TEST(SeededFaultTest, IllegalSliceTransitionThrowsStructured) {
  using State = engine::SliceRuntime::State;
  try {
    engine::assert_slice_transition(SliceId{5}, State::kRetired,
                                    State::kActive);
    FAIL() << "illegal transition not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kStateMachine);
    EXPECT_EQ(v.name(), "slice-state-legal");
    EXPECT_EQ(v.detail().slice_id, 5u);
    EXPECT_EQ(v.detail().actual_value, "retired -> active");
  }
}

TEST(SeededFaultTest, IllegalSplitAndMergeTransitionsThrowStructured) {
  try {
    engine::assert_split_transition(MigrationId{9}, SliceId{4},
                                    engine::SplitStep::kDrain,
                                    engine::SplitStep::kAborting);
    FAIL() << "post-cut-over abort edge not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kStateMachine);
    EXPECT_EQ(v.subsystem(), "engine");
    EXPECT_EQ(v.name(), "split-step-legal");
    EXPECT_EQ(v.detail().slice_id, 4u);
    EXPECT_EQ(v.detail().actual_value, "drain -> aborting");
    EXPECT_NE(v.detail().note_text.find("transition 9"), std::string::npos);
  }
  try {
    engine::assert_merge_transition(MigrationId{10}, SliceId{6},
                                    engine::MergeStep::kAbsorb,
                                    engine::MergeStep::kDrainRetiree);
    FAIL() << "backwards merge edge not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kStateMachine);
    EXPECT_EQ(v.name(), "merge-step-legal");
    EXPECT_EQ(v.detail().slice_id, 6u);
    EXPECT_EQ(v.detail().actual_value, "absorb -> drain-retiree");
  }
}

// A split that serializes a subscription for the child but keeps it in the
// parent store (or drops one outright) breaks exactly-once; the M handler's
// conservation check must trip before the corrupt capture leaves the host.
TEST(SeededFaultTest, KeepOneOnSplitTripsStateConservation) {
  workload::PlainWorkload plain{{4, 0.02, 91}};
  auto matcher = std::make_unique<filter::BruteForceMatcher>();
  for (std::uint64_t i = 0; i < 8; ++i) {
    matcher->add(filter::AnySubscription{plain.subscription(i)});
  }
  matcher->testing_keep_one_on_split = true;
  pubsub::MHandler m{pubsub::OperatorNames{}, "M", 0, std::move(matcher),
                     cluster::CostModel{}};
  BinaryWriter w;
  const KeyCoverage everything{1, 0, 0, 0};  // covers every key
  try {
    (void)m.split_state(everything, w);
    FAIL() << "retained-but-serialized subscription not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "pubsub");
    EXPECT_EQ(v.name(), "split-state-conserved");
    EXPECT_EQ(v.detail().expected_value, "8");
    EXPECT_EQ(v.detail().actual_value, "9");  // 1 retained + 8 serialized
  }
}

TEST(SeededFaultTest, IaasDoubleReleaseTripsPrecondition) {
  sim::Simulator sim;
  cluster::IaasConfig config;
  config.max_hosts = 2;
  cluster::IaasPool pool{sim, config};
  const HostId id = pool.allocate({});
  pool.release(id);
  try {
    pool.release(id);
    FAIL() << "double release not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kPrecondition);
    EXPECT_EQ(v.subsystem(), "cluster");
    EXPECT_EQ(v.name(), "iaas-no-double-release");
    EXPECT_EQ(v.detail().host_id, id.value());
  }
  // A never-allocated id is a plain defensive logic_error, not a contract
  // violation: the caller holds no stale handle, it holds garbage.
  try {
    pool.release(HostId{999});
    FAIL() << "unknown host accepted";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(dynamic_cast<const ContractViolation*>(&e), nullptr);
  }
}

// Minimal engine::Context for driving EpHandler directly.
class RecordingContext final : public engine::Context {
 public:
  void emit(std::string_view op, engine::Routing,
            engine::PayloadPtr payload) override {
    emitted.emplace_back(std::string{op}, std::move(payload));
  }
  [[nodiscard]] SimTime now() const override { return SimTime{0}; }
  [[nodiscard]] std::size_t slice_index() const override { return 0; }
  [[nodiscard]] std::size_t slice_count(std::string_view) const override {
    return 1;
  }
  [[nodiscard]] std::vector<std::uint32_t> fan_indices(
      std::string_view) const override {
    return {0};
  }

  std::vector<std::pair<std::string, engine::PayloadPtr>> emitted;
};

pubsub::MatchListPayload* make_list(PublicationId pub, std::uint32_t index,
                                    std::uint32_t expected,
                                    engine::PayloadPtr* out) {
  auto list = std::make_shared<pubsub::MatchListPayload>();
  list->publication = pub;
  list->m_slice_index = index;
  list->expected_lists = expected;
  list->subscribers = {SubscriberId{1}};
  auto* raw = list.get();
  *out = std::move(list);
  return raw;
}

TEST(SeededFaultTest, EpDuplicateDispatchTripsExactlyOnce) {
  RecordingContext ctx;
  pubsub::EpHandler ep{pubsub::OperatorNames{}, 1, cluster::CostModel{}};
  engine::PayloadPtr p;
  make_list(PublicationId{42}, 0, 1, &p);
  ep.on_event(ctx, p);  // sole partial list -> dispatches the notification
  ASSERT_EQ(ctx.emitted.size(), 1u);
  EXPECT_EQ(ctx.emitted[0].first, "sink");
  try {
    ep.testing_force_dispatch(ctx, PublicationId{42});
    FAIL() << "duplicate dispatch not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.subsystem(), "pubsub");
    EXPECT_EQ(v.name(), "ep-exactly-once");
    EXPECT_NE(v.detail().note_text.find("publication 42"), std::string::npos);
  }
  EXPECT_EQ(ctx.emitted.size(), 1u);  // the duplicate never reached the sink
}

TEST(SeededFaultTest, EpOutOfRangeSliceIndexTripsBoundsPrecondition) {
  RecordingContext ctx;
  pubsub::EpHandler ep{pubsub::OperatorNames{}, 2, cluster::CostModel{}};
  engine::PayloadPtr p;
  make_list(PublicationId{43}, 5, 2, &p);
  try {
    ep.on_event(ctx, p);
    FAIL() << "out-of-range slice index not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kPrecondition);
    EXPECT_EQ(v.name(), "ep-list-in-fan");
    EXPECT_EQ(v.detail().actual_value, "5");
  }
}

// ---- reliable control channel: each invariant tripped by a seeded fault ----

// Shared rig: a ReliableChannel receiver plus a raw endpoint that can forge
// wire frames at it, bypassing the sender-side state machine entirely.
struct ReliableFaultRig {
  sim::Simulator sim;
  net::NetworkConfig config;
  net::Network network{sim, config};
  std::vector<net::Delivery> delivered;
  net::ReliableChannel rx{sim, network, network.new_endpoint(), HostId{2},
                          [this](const net::Delivery& d) {
                            delivered.push_back(d);
                          }};
  net::Endpoint forger = network.new_endpoint();

  ReliableFaultRig() {
    network.bind(forger, HostId{1}, [](const net::Delivery&) {});
  }

  void forge_data(std::uint64_t seq) {
    auto frame = std::make_shared<net::ReliableData>();
    frame->seq = seq;
    frame->payload = std::make_shared<net::Message>();
    frame->payload_bytes = 8;
    network.send(forger, rx.endpoint(), std::move(frame),
                 8 + net::ReliableChannel::kHeaderBytes);
  }
};

TEST(SeededFaultTest, RewoundRxCursorTripsReliableNoDupDeliver) {
  ReliableFaultRig rig;
  rig.forge_data(1);
  rig.sim.run();
  ASSERT_EQ(rig.delivered.size(), 1u);  // seq 1 reached the app once

  // Warp the admission cursor below the delivered audit trail: the next
  // retransmission of seq 1 is re-admitted and would reach the app twice.
  rig.rx.testing_rewind_rx_cursor(rig.forger, 1);
  rig.forge_data(1);
  try {
    rig.sim.run();
    FAIL() << "duplicate delivery not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "net");
    EXPECT_EQ(v.name(), "reliable-no-dup-deliver");
    EXPECT_EQ(v.detail().expected_value, "2");
    EXPECT_EQ(v.detail().actual_value, "1");
  }
  EXPECT_EQ(rig.delivered.size(), 1u);  // the duplicate never reached the app
}

TEST(SeededFaultTest, SkippedRxCursorTripsReliableNoGap) {
  ReliableFaultRig rig;
  rig.forge_data(1);
  rig.sim.run();
  ASSERT_EQ(rig.delivered.size(), 1u);

  // Warp the admission cursor past seqs 2..4: seq 5 is admitted as if in
  // order, but the audit trail still says only seq 1 was handed up.
  rig.rx.testing_skip_rx_cursor(rig.forger, 5);
  rig.forge_data(5);
  try {
    rig.sim.run();
    FAIL() << "delivery gap not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "net");
    EXPECT_EQ(v.name(), "reliable-no-gap");
    EXPECT_EQ(v.detail().expected_value, "2");
    EXPECT_EQ(v.detail().actual_value, "5");
  }
  EXPECT_EQ(rig.delivered.size(), 1u);  // the gapped message was withheld
}

TEST(SeededFaultTest, OverbudgetRetransmitTripsRetryBudgetBounded) {
  sim::Simulator sim;
  net::NetworkConfig config;
  net::Network network{sim, config};
  net::ReliableChannelConfig rc;
  rc.max_retries = 3;
  net::ReliableChannel a{sim,     network, network.new_endpoint(),
                         HostId{1}, [](const net::Delivery&) {}, rc};
  net::ReliableChannel b{sim,     network, network.new_endpoint(),
                         HostId{2}, [](const net::Delivery&) {}, rc};

  network.set_host_down(HostId{2}, true);
  a.send(b.endpoint(), std::make_shared<net::Message>(), 16);
  ASSERT_EQ(a.in_flight(), 1u);
  try {
    // Inflate the retry counter past the budget and force a transmission:
    // the invariant must fire before the frame hits the wire.
    a.testing_force_overbudget_retransmit(b.endpoint());
    FAIL() << "over-budget retransmission not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "net");
    EXPECT_EQ(v.name(), "retry-budget-bounded");
    EXPECT_EQ(v.detail().expected_value, "3");
    EXPECT_EQ(v.detail().actual_value, "4");
  }
}

TEST(SeededFaultTest, CorruptedChannelTripsGapFreedom) {
  harness::TestbedConfig config;
  config.worker_hosts = 2;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 50;
  config.workload.matching_rate = 0.05;
  config.workload.m_slices = 2;
  config.source_slices = 1;
  config.ap_slices = 2;
  config.ep_slices = 2;
  config.sink_slices = 1;
  config.iaas.max_hosts = 5;
  harness::Testbed bed{config};
  bed.store_subscriptions(50);

  const auto& cfg = bed.engine().static_config();
  const auto& m_op = cfg.operators.at(cfg.index_of("M"));
  ASSERT_FALSE(m_op.slices.empty());
  auto* runtime = bed.engine().slice_runtime(m_op.slices.front());
  ASSERT_NE(runtime, nullptr);
  // Corrupt the victim's input-channel cursors from every AP slice, so the
  // publication trips the invariant no matter which AP slice forwards it.
  for (SliceId ap : cfg.operators.at(cfg.index_of("AP")).slices) {
    runtime->testing_corrupt_channel(ap);
  }
  bed.publish_one();
  try {
    bed.run_for(seconds(2));
    FAIL() << "corrupted channel cursors not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.subsystem(), "engine");
    EXPECT_EQ(v.name(), "channel-gap-free");
    EXPECT_EQ(v.detail().slice_id, m_op.slices.front().value());
  }
}

// A split plan that "forgets" to refine the parent's coverage leaves parent
// and child overlapping: some keys would be matched twice. The cut-over's
// completeness invariant must trip before the corrupt routing table is used.
TEST(SeededFaultTest, CorruptSplitPlanTripsKeyCoverageCompleteness) {
  harness::TestbedConfig config;
  config.worker_hosts = 2;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 50;
  config.workload.matching_rate = 0.05;
  config.workload.m_slices = 2;
  config.source_slices = 1;
  config.ap_slices = 2;
  config.ep_slices = 2;
  config.sink_slices = 1;
  config.iaas.max_hosts = 5;
  harness::Testbed bed{config};  // no manager: the split is driven manually
  bed.store_subscriptions(50);

  const auto& cfg = bed.engine().static_config();
  const SliceId parent = cfg.operators.at(cfg.index_of("M")).slices.front();
  const HostId parent_host = bed.engine().slice_host(parent);
  HostId dst = parent_host;
  for (const HostId host : bed.worker_hosts()) {
    if (host != parent_host) dst = host;
  }
  ASSERT_NE(dst, parent_host);

  bed.engine().testing_corrupt_split_plan = true;
  bed.simulator().schedule(millis(10), [&] {
    bed.engine().split_slice(parent, dst,
                             [](const engine::ElasticReport&) {});
  });
  try {
    bed.run_for(seconds(5));
    FAIL() << "overlapping split coverages not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "engine");
    EXPECT_EQ(v.name(), "key-coverage-complete");
    EXPECT_EQ(v.detail().slice_id, parent.value());
    EXPECT_NE(v.detail().note_text.find("split cut-over"), std::string::npos);
  }
}

// ---- migration-strategy lab: each strategy invariant tripped by a seam ----

// Shared rig for the strategy faults: two worker hosts with the M operator
// spread across both, so one M slice can migrate to the other worker.
harness::TestbedConfig strategy_rig_config() {
  harness::TestbedConfig config;
  config.worker_hosts = 2;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 50;
  config.workload.matching_rate = 0.05;
  config.workload.m_slices = 2;
  config.source_slices = 1;
  config.ap_slices = 2;
  config.ep_slices = 2;
  config.sink_slices = 1;
  config.iaas.max_hosts = 5;
  return config;
}

struct StrategyMove {
  SliceId slice;
  HostId dst;
};

StrategyMove pick_m_move(harness::Testbed& bed) {
  const auto& cfg = bed.engine().static_config();
  const SliceId slice = cfg.operators.at(cfg.index_of("M")).slices.front();
  const HostId src = bed.engine().slice_host(slice);
  HostId dst = src;
  for (const HostId host : bed.worker_hosts()) {
    if (host != src) dst = host;
  }
  EXPECT_NE(dst, src);
  return {slice, dst};
}

// An incremental-precopy coordinator that issues one dirty-delta round past
// its budget must trip before the over-budget request leaves the host.
TEST(SeededFaultTest, ExtraPrecopyRoundTripsRoundBudget) {
  auto config = strategy_rig_config();
  // One-round budget: the seeded extra round is round two, over budget.
  config.engine.precopy_rounds = 1;
  harness::Testbed bed{config};
  bed.store_subscriptions(50);
  const StrategyMove mv = pick_m_move(bed);

  bed.engine().testing_force_extra_precopy_round = true;
  bed.simulator().schedule(millis(10), [&] {
    bed.engine().migrate(mv.slice, mv.dst,
                         engine::MigrationStrategyKind::kIncrementalPrecopy,
                         [](const engine::ElasticReport&) {});
  });
  try {
    bed.run_for(seconds(5));
    FAIL() << "over-budget precopy round not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "engine");
    EXPECT_EQ(v.name(), "precopy-rounds-bounded");
    EXPECT_EQ(v.detail().slice_id, mv.slice.value());
    EXPECT_EQ(v.detail().actual_value, "2");
  }
}

// Stop-and-restart parks the source before any state ships; a seeded
// resurrection of the source right under the activation check simulates a
// lost park — the replica going live would mean two primaries at once.
TEST(SeededFaultTest, ResurrectedSourceTripsStopRestartDualActive) {
  harness::Testbed bed{strategy_rig_config()};
  bed.store_subscriptions(50);
  const StrategyMove mv = pick_m_move(bed);

  bed.engine().testing_force_src_active_on_activate = true;
  bed.simulator().schedule(millis(10), [&] {
    bed.engine().migrate(mv.slice, mv.dst,
                         engine::MigrationStrategyKind::kStopAndRestart,
                         [](const engine::ElasticReport&) {});
  });
  try {
    bed.run_for(seconds(5));
    FAIL() << "dual-active source not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "engine");
    EXPECT_EQ(v.name(), "stop-restart-no-dual-active");
    EXPECT_EQ(v.detail().slice_id, mv.slice.value());
    EXPECT_EQ(v.detail().actual_value, "active");
  }
}

// The enforcer's protocol choice is a pure function of the signals the plan
// records; a plan whose stamped strategy disagrees with its own signals must
// be rejected by the manager before the migration starts.
TEST(SeededFaultTest, CorruptStrategyPlanTripsSelectionDeterminism) {
  auto config = strategy_rig_config();
  config.with_manager = true;
  config.engine.probe_interval = millis(100);
  harness::Testbed bed{config};
  elastic::Manager& manager = *bed.manager();
  manager.set_enforcement(false);  // quiet while subscriptions store
  bed.store_subscriptions(50);
  const StrategyMove mv = pick_m_move(bed);

  // Replace the policy with a single hand-built move whose strategy is
  // stamped exactly as select_strategy derives it from the recorded
  // signals; only the seeded corruption below makes them disagree.
  manager.set_policy([&](const elastic::SystemView& view) {
    elastic::MigrationPlan plan;
    for (const elastic::SliceView& sv : view.slices) {
      if (sv.slice != mv.slice) continue;
      plan.reason = elastic::MigrationPlan::Reason::kLocalHigh;
      elastic::MigrationPlan::Move move;
      move.slice = sv.slice;
      move.dst = mv.dst;
      move.state_bytes = sv.state_bytes;
      move.cpu = sv.cpu;
      move.strategy = elastic::select_strategy(manager.enforcer().config(),
                                               sv.state_bytes, sv.cpu);
      plan.moves.push_back(move);
    }
    return plan;
  });
  manager.testing_corrupt_strategy_plan = true;
  manager.set_enforcement(true);
  try {
    bed.run_for(seconds(5));
    FAIL() << "corrupted strategy plan not detected";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), Kind::kInvariant);
    EXPECT_EQ(v.subsystem(), "elastic");
    EXPECT_EQ(v.name(), "strategy-selection-deterministic");
    EXPECT_EQ(v.detail().slice_id, mv.slice.value());
  }
}

#else  // !ESH_INVARIANTS_ENABLED

// ---- default build: the macros must be free and inert ----------------------

TEST(DisabledContractsTest, MacrosExpandToNoOps) {
  // Arguments are not evaluated in the default build; a false condition must
  // neither throw nor be computed.
  bool evaluated = false;
  // The macros discard their arguments entirely in this build.
  [[maybe_unused]] auto probe = [&evaluated] {
    evaluated = true;
    return false;
  };
  EXPECT_NO_THROW(ESH_INVARIANT("test", "never-fires", probe(), Detail{}));
  EXPECT_NO_THROW(
      ESH_PRECONDITION("test", "never-fires", probe(), Detail{}));
  EXPECT_NO_THROW(
      ESH_STATE_MACHINE_ASSERT("test", "never-fires", probe(), Detail{}));
  EXPECT_FALSE(evaluated);
  EXPECT_FALSE(contracts::kEnabled);
}

#endif  // ESH_INVARIANTS_ENABLED

}  // namespace
}  // namespace esh
