// Tests for the protocol spec tables (src/analysis/protocol_spec.*) and the
// bounded model checker (src/analysis/modelcheck.*): table sanity, alignment
// with the runtime enums they describe, clean exhaustive verification of the
// stock models, and — the checker checking the checker — seeded mutations
// that each detection class must catch.
#include <cstddef>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/modelcheck.hpp"
#include "analysis/protocol_spec.hpp"
#include "engine/engine.hpp"
#include "engine/host_runtime.hpp"
#include "engine/migration_strategy.hpp"

namespace {

using esh::analysis::CheckOptions;
using esh::analysis::CheckResult;
using esh::analysis::ModelOptions;
using esh::analysis::PlantedFault;
using esh::analysis::StateMachineSpec;

// ---- Spec table sanity ------------------------------------------------------

TEST(SpecTables, EveryStateReachableFromAnInitialState) {
  for (const StateMachineSpec* spec : esh::analysis::all_specs()) {
    const std::size_t n = spec->states().size();
    std::vector<char> seen(n, 0);
    std::queue<std::size_t> frontier;
    for (std::size_t i = 0; i < n; ++i) {
      if (spec->states()[i].initial) {
        seen[i] = 1;
        frontier.push(i);
      }
    }
    ASSERT_FALSE(frontier.empty())
        << spec->name() << " declares no initial state";
    while (!frontier.empty()) {
      const std::size_t cur = frontier.front();
      frontier.pop();
      for (const auto& e : spec->edges()) {
        if (e.from == cur && !seen[e.to]) {
          seen[e.to] = 1;
          frontier.push(e.to);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(seen[i]) << spec->name() << " state '"
                           << spec->states()[i].name
                           << "' is unreachable from every initial state";
    }
  }
}

TEST(SpecTables, TerminalStatesHaveNoOutgoingEdgesToOtherStates) {
  for (const StateMachineSpec* spec : esh::analysis::all_specs()) {
    for (const auto& e : spec->edges()) {
      if (spec->states()[e.from].terminal) {
        EXPECT_EQ(e.from, e.to)
            << spec->name() << " terminal state '"
            << spec->states()[e.from].name << "' has an edge to '"
            << spec->states()[e.to].name << "'";
      }
    }
    // Conversely a non-terminal state must have a way out (or it would be a
    // wedge by construction in every model that honors the table).
    for (std::size_t i = 0; i < spec->states().size(); ++i) {
      if (spec->states()[i].terminal) continue;
      bool out = false;
      for (const auto& e : spec->edges()) out |= (e.from == i && e.to != i);
      EXPECT_TRUE(out) << spec->name() << " non-terminal state '"
                       << spec->states()[i].name << "' has no exit edge";
    }
  }
}

TEST(SpecTables, EdgesCarryLabelsAndAgreeWithLegal) {
  for (const StateMachineSpec* spec : esh::analysis::all_specs()) {
    const std::size_t n = spec->states().size();
    for (const auto& e : spec->edges()) {
      EXPECT_FALSE(e.label.empty())
          << spec->name() << " edge " << int{e.from} << "->" << int{e.to};
      EXPECT_TRUE(spec->legal(e.from, e.to));
      EXPECT_EQ(spec->edge(e.from, e.to)->label, e.label);
    }
    for (std::size_t f = 0; f < n; ++f) {
      for (std::size_t t = 0; t < n; ++t) {
        EXPECT_EQ(spec->legal(f, t), spec->edge(f, t) != nullptr);
      }
    }
    EXPECT_FALSE(spec->legal(n, 0));
    EXPECT_FALSE(spec->legal(0, n));
  }
}

// State indices are load-bearing: states()[i] must describe enum value i of
// the runtime enum each table claims to mirror. A reordered enum (or table)
// fails here before it can mis-gate a transition.
TEST(SpecTables, StateNamesAlignWithRuntimeEnums) {
  const auto& mig = esh::analysis::migration_spec();
  for (std::size_t i = 0; i < mig.states().size(); ++i) {
    EXPECT_EQ(esh::engine::to_string(static_cast<esh::engine::MigrationStep>(i)),
              mig.states()[i].name)
        << "MigrationStep value " << i;
  }
  const auto& split = esh::analysis::split_spec();
  for (std::size_t i = 0; i < split.states().size(); ++i) {
    EXPECT_EQ(esh::engine::to_string(static_cast<esh::engine::SplitStep>(i)),
              split.states()[i].name)
        << "SplitStep value " << i;
  }
  const auto& merge = esh::analysis::merge_spec();
  for (std::size_t i = 0; i < merge.states().size(); ++i) {
    EXPECT_EQ(esh::engine::to_string(static_cast<esh::engine::MergeStep>(i)),
              merge.states()[i].name)
        << "MergeStep value " << i;
  }
  const auto& slice = esh::analysis::slice_lifecycle_spec();
  for (std::size_t i = 0; i < slice.states().size(); ++i) {
    EXPECT_EQ(esh::engine::to_string(
                  static_cast<esh::engine::SliceRuntime::State>(i)),
              slice.states()[i].name)
        << "SliceRuntime::State value " << i;
  }
}

// The runtime legality predicates are one-line delegations to the tables;
// pin the delegation over the full from×to square.
TEST(SpecTables, RuntimeLegalityPredicatesDelegateToTheTables) {
  using esh::engine::MigrationStep;
  const auto& mig = esh::analysis::migration_spec();
  for (std::size_t f = 0; f < mig.states().size(); ++f) {
    for (std::size_t t = 0; t < mig.states().size(); ++t) {
      EXPECT_EQ(esh::engine::migration_transition_legal(
                    static_cast<MigrationStep>(f), static_cast<MigrationStep>(t)),
                mig.legal(f, t));
    }
  }
  using esh::engine::SliceRuntime;
  const auto& slice = esh::analysis::slice_lifecycle_spec();
  for (std::size_t f = 0; f < slice.states().size(); ++f) {
    for (std::size_t t = 0; t < slice.states().size(); ++t) {
      EXPECT_EQ(esh::engine::slice_transition_legal(
                    static_cast<SliceRuntime::State>(f),
                    static_cast<SliceRuntime::State>(t)),
                slice.legal(f, t));
    }
  }
}

// Every registered migration strategy maps the shared MigrationStep enum
// into its own spec table; a mapped index must land on the state of the same
// name, and an unmapped step must be rejected by legal() outright.
TEST(SpecTables, StrategySpecIndicesAlignWithStepNames) {
  using esh::engine::MigrationStep;
  for (const esh::engine::MigrationStrategy* strategy :
       esh::engine::migration_strategies()) {
    const StateMachineSpec& spec = strategy->spec();
    for (std::size_t v = 0;
         v <= static_cast<std::size_t>(MigrationStep::kPrecopy); ++v) {
      const auto step = static_cast<MigrationStep>(v);
      const std::size_t idx = strategy->spec_index(step);
      if (idx < spec.states().size()) {
        EXPECT_EQ(spec.states()[idx].name, esh::engine::to_string(step))
            << strategy->name() << " maps step " << esh::engine::to_string(step)
            << " onto the wrong state";
      } else {
        EXPECT_FALSE(spec.legal(idx, 0))
            << strategy->name() << " unmapped step must be illegal";
        EXPECT_FALSE(spec.legal(0, idx));
      }
    }
  }
}

// Strategy spec tables are registered in the shared catalog under the names
// the strategies themselves report, so --mutate and SPEC_CATALOG.md find
// them without a side table.
TEST(SpecTables, StrategySpecsAreDiscoverableByName) {
  for (const esh::engine::MigrationStrategy* strategy :
       esh::engine::migration_strategies()) {
    const StateMachineSpec* found =
        esh::analysis::find_spec(strategy->spec().name());
    ASSERT_NE(found, nullptr) << strategy->name();
    EXPECT_EQ(found, &strategy->spec()) << strategy->name();
  }
  EXPECT_EQ(esh::analysis::stop_restart_spec().name(),
            "migration-stop-restart");
  EXPECT_EQ(esh::analysis::precopy_spec().name(), "migration-precopy");
}

TEST(SpecTables, WithoutEdgeRemovesExactlyThatEdge) {
  const auto& mig = esh::analysis::migration_spec();
  const std::size_t from = mig.index_of("duplication");
  const std::size_t to = mig.index_of("transfer");
  const StateMachineSpec cut = mig.without_edge(from, to);
  EXPECT_FALSE(cut.legal(from, to));
  EXPECT_EQ(cut.edges().size(), mig.edges().size() - 1);
  for (const auto& e : mig.edges()) {
    if (e.from == from && e.to == to) continue;
    EXPECT_TRUE(cut.legal(e.from, e.to));
  }
  EXPECT_THROW((void)mig.without_edge(mig.index_of("teardown"),
                                      mig.index_of("create-replica")),
               std::invalid_argument);
}

TEST(SpecTables, CatalogMarkdownCoversEveryMachine) {
  const std::string md = esh::analysis::render_catalog_markdown();
  for (const StateMachineSpec* spec : esh::analysis::all_specs()) {
    EXPECT_NE(md.find("## " + std::string{spec->name()}), std::string::npos);
    EXPECT_NE(md.find(std::string{spec->subsystem()} + "/" +
                      std::string{spec->invariant()}),
              std::string::npos);
    for (const auto& e : spec->edges()) {
      EXPECT_NE(md.find(std::string{e.label}), std::string::npos)
          << spec->name() << " edge label missing from catalog";
    }
  }
}

// ---- Model checking ---------------------------------------------------------

TEST(ModelCheck, StockModelsVerifyExhaustively) {
  for (const std::string& name : esh::analysis::model_names()) {
    auto model = esh::analysis::make_model(name);
    ASSERT_NE(model, nullptr) << name;
    const CheckResult r = esh::analysis::check_model(*model);
    EXPECT_TRUE(r.ok) << name << " failed (" << r.failure_kind
                      << "): " << r.failure << "\n"
                      << r.format_trace();
    EXPECT_FALSE(r.exhausted_budget) << name;
    EXPECT_GT(r.states, 0U) << name;
    EXPECT_GT(r.quiescent_states, 0U) << name;
  }
}

// The exact size of every stock model's explored graph. A refactor of the
// models that keeps these numbers (and the planted-fault kinds below) keeps
// the state space it proves things about.
TEST(ModelCheck, StockModelGraphsArePinned) {
  struct Graph {
    const char* model;
    std::size_t states, transitions, quiescent;
  };
  for (const Graph& g : {Graph{"migration", 92, 177, 16},
                         Graph{"migration-stop-restart", 92, 177, 16},
                         Graph{"migration-precopy", 167, 275, 32},
                         Graph{"split", 53, 85, 10},
                         Graph{"merge", 43, 67, 10},
                         Graph{"reliable", 6454, 29445, 75}}) {
    auto model = esh::analysis::make_model(g.model);
    ASSERT_NE(model, nullptr) << g.model;
    const CheckResult r = esh::analysis::check_model(*model);
    EXPECT_TRUE(r.ok) << g.model;
    EXPECT_EQ(r.states, g.states) << g.model;
    EXPECT_EQ(r.transitions, g.transitions) << g.model;
    EXPECT_EQ(r.quiescent_states, g.quiescent) << g.model;
  }
}

TEST(ModelCheck, PlantedFaultsTripOnEveryMigrationModel) {
  for (const char* name :
       {"migration", "migration-stop-restart", "migration-precopy"}) {
    for (const auto& [fault, kind] :
         {std::pair{PlantedFault::kWedge, "wedge"},
          std::pair{PlantedFault::kInvariant, "invariant"}}) {
      ModelOptions opts;
      opts.fault = fault;
      auto model = esh::analysis::make_model(name, opts);
      ASSERT_NE(model, nullptr) << name;
      const CheckResult r = esh::analysis::check_model(*model);
      EXPECT_FALSE(r.ok) << name << " " << kind;
      EXPECT_EQ(r.failure_kind, kind) << name;
    }
  }
}

TEST(ModelCheck, PlantedWedgeIsFoundWithReplayableTrace) {
  ModelOptions opts;
  opts.fault = PlantedFault::kWedge;
  auto model = esh::analysis::make_migration_model(opts);
  const CheckResult r = esh::analysis::check_model(*model);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, "wedge");
  // The counterexample replays to the wedged state: the destination died
  // during transfer and the (planted-faulty) coordinator never reacted.
  ASSERT_FALSE(r.trace.empty());
  EXPECT_NE(r.format_trace().find("destination host dies"), std::string::npos);
  EXPECT_NE(r.failing_state.find("step=transfer"), std::string::npos);
}

TEST(ModelCheck, PlantedInvariantViolationIsFound) {
  ModelOptions opts;
  opts.fault = PlantedFault::kInvariant;
  auto model = esh::analysis::make_migration_model(opts);
  const CheckResult r = esh::analysis::check_model(*model);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, "invariant");
  EXPECT_NE(r.failure.find("exactly-once"), std::string::npos);
  EXPECT_FALSE(r.trace.empty());
}

// The strategy models must be exhaustively wedge-free AND demonstrably able
// to catch each planted failure class — a checker that can't see its own
// planted faults proves nothing.
TEST(ModelCheck, StrategyModelsCatchPlantedWedge) {
  for (const char* name : {"migration-stop-restart", "migration-precopy"}) {
    ModelOptions opts;
    opts.fault = PlantedFault::kWedge;
    auto model = esh::analysis::make_model(name, opts);
    ASSERT_NE(model, nullptr) << name;
    const CheckResult r = esh::analysis::check_model(*model);
    EXPECT_FALSE(r.ok) << name;
    EXPECT_EQ(r.failure_kind, "wedge") << name;
    ASSERT_FALSE(r.trace.empty()) << name;
    EXPECT_NE(r.format_trace().find("destination host dies"),
              std::string::npos)
        << name;
    EXPECT_NE(r.failing_state.find("step=transfer"), std::string::npos)
        << name;
  }
}

TEST(ModelCheck, StrategyModelsCatchPlantedInvariantViolation) {
  for (const char* name : {"migration-stop-restart", "migration-precopy"}) {
    ModelOptions opts;
    opts.fault = PlantedFault::kInvariant;
    auto model = esh::analysis::make_model(name, opts);
    ASSERT_NE(model, nullptr) << name;
    const CheckResult r = esh::analysis::check_model(*model);
    EXPECT_FALSE(r.ok) << name;
    EXPECT_EQ(r.failure_kind, "invariant") << name;
    EXPECT_NE(r.failure.find("exactly-once"), std::string::npos) << name;
    EXPECT_FALSE(r.trace.empty()) << name;
  }
}

TEST(ModelCheck, DeletedStrategyEdgesTripConformance) {
  {
    const auto& spec = esh::analysis::stop_restart_spec();
    ModelOptions opts;
    opts.spec_override = std::make_shared<StateMachineSpec>(
        spec.without_edge(spec.index_of("park"), spec.index_of("transfer")));
    auto model = esh::analysis::make_migration_model(opts, spec);
    const CheckResult r = esh::analysis::check_model(*model);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failure_kind, "conformance");
    EXPECT_NE(r.failure.find("park -> transfer"), std::string::npos);
  }
  {
    const auto& spec = esh::analysis::precopy_spec();
    ModelOptions opts;
    opts.spec_override = std::make_shared<StateMachineSpec>(spec.without_edge(
        spec.index_of("precopy"), spec.index_of("transfer")));
    auto model = esh::analysis::make_migration_model(opts, spec);
    const CheckResult r = esh::analysis::check_model(*model);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failure_kind, "conformance");
    EXPECT_NE(r.failure.find("precopy -> transfer"), std::string::npos);
  }
}

TEST(ModelCheck, DeletedMigrationEdgeTripsConformance) {
  const auto& mig = esh::analysis::migration_spec();
  ModelOptions opts;
  opts.spec_override = std::make_shared<StateMachineSpec>(mig.without_edge(
      mig.index_of("duplication"), mig.index_of("transfer")));
  auto model = esh::analysis::make_migration_model(opts);
  const CheckResult r = esh::analysis::check_model(*model);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, "conformance");
  EXPECT_NE(r.failure.find("duplication -> transfer"), std::string::npos);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.back(), "ack: StartDuplicationAck");
}

TEST(ModelCheck, DeletedSliceEdgeTripsConformanceAcrossModels) {
  // The slice-lifecycle table is shared: deleting frozen->retired must be
  // caught by both the migration model (teardown of the source) and the
  // merge model (teardown of the drained retiree).
  const auto& slice = esh::analysis::slice_lifecycle_spec();
  ModelOptions opts;
  opts.spec_override = std::make_shared<StateMachineSpec>(
      slice.without_edge(slice.index_of("frozen"), slice.index_of("retired")));
  for (const char* name : {"migration", "merge"}) {
    auto model = esh::analysis::make_model(name, opts);
    const CheckResult r = esh::analysis::check_model(*model);
    EXPECT_FALSE(r.ok) << name;
    EXPECT_EQ(r.failure_kind, "conformance") << name;
    EXPECT_NE(r.failure.find("frozen -> retired"), std::string::npos) << name;
  }
}

TEST(ModelCheck, DeletedReliableRxEdgeTripsConformance) {
  const auto& rx = esh::analysis::reliable_rx_spec();
  ModelOptions opts;
  opts.spec_override = std::make_shared<StateMachineSpec>(
      rx.without_edge(rx.index_of("buffered"), rx.index_of("delivered")));
  auto model = esh::analysis::make_reliable_model(opts);
  const CheckResult r = esh::analysis::check_model(*model);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure_kind, "conformance");
  EXPECT_NE(r.failure.find("buffered -> delivered"), std::string::npos);
}

TEST(ModelCheck, StateBudgetExhaustionIsAFailureNotAPass) {
  CheckOptions opts;
  opts.max_states = 5;
  auto model = esh::analysis::make_reliable_model();
  const CheckResult r = esh::analysis::check_model(*model, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.exhausted_budget);
  EXPECT_EQ(r.failure_kind, "budget");
}

TEST(ModelCheck, UnknownModelNameYieldsNull) {
  EXPECT_EQ(esh::analysis::make_model("no-such-model"), nullptr);
}

}  // namespace
