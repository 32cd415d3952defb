// Bounded explicit-state model checker for the elasticity protocols.
//
// The models in this file are small-scope abstractions of the coordinator
// logic in src/engine/engine.cpp (migration, split, merge) and the
// seq/ack handshake in src/net/reliable.cpp: 2–3 hosts, one protocol
// instance, and nondeterministic actions for protocol steps, host crashes,
// message drops and duplicates. The explorer enumerates the full reachable
// state space (deduplicated by state hashing) and checks three properties:
//
//   (a) no wedge: every reachable state can still reach a quiescent state
//       (the class of search that finds seed-17/1-style co-recovery bugs
//       by construction rather than by seeded sampling);
//   (b) spec conformance: every protocol-step action claims the state
//       machine edge it takes, validated against the declarative tables in
//       analysis/protocol_spec.hpp — an edge outside the tables is a
//       counterexample;
//   (c) abstract safety invariants (exactly-once / coverage completeness),
//       checked on every reachable state.
//
// Counterexamples print as replayable step lists (see
// CheckResult::format_trace and docs/ANALYSIS.md for how to read one).
//
// Abstraction boundary: coordinator control logic is modeled faithfully
// (per-branch translation of handle_host_failure and the on_control ack
// handlers); data-plane event flow, timers and checkpoint contents are
// abstracted away; the manager/IaaS layer is abstracted as "recovery of a
// lost slice is always eventually possible"; control messages ride per-peer
// FIFO queues (the reliable channel's delivery order), and a "dropped"
// message models a frame loss that the channel will retransmit — it only
// becomes a permanent loss when an endpoint dies first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/protocol_spec.hpp"

namespace esh::analysis {

// Packed model state: each model encodes its entire configuration into a
// small byte vector; byte equality dedups the explored graph.
using ModelState = std::vector<std::uint8_t>;

// One enabled action out of a state. When the action advances one of the
// spec'd machines it carries the claimed edge for conformance checking.
struct ModelAction {
  std::string label;
  const StateMachineSpec* machine = nullptr;  // nullptr: no machine edge
  std::uint8_t from = 0;
  std::uint8_t to = 0;
};

struct Successor {
  ModelAction action;
  ModelState state;
};

class Model {
 public:
  virtual ~Model() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual ModelState initial() const = 0;
  virtual void successors(const ModelState& state,
                          std::vector<Successor>& out) const = 0;
  // Protocol resolved with nothing outstanding; the wedge check requires
  // every reachable state to have a path to a quiescent one.
  [[nodiscard]] virtual bool quiescent(const ModelState& state) const = 0;
  // Abstract safety invariant; empty string = holds, else violation text.
  [[nodiscard]] virtual std::string invariant(const ModelState& state) const = 0;
  [[nodiscard]] virtual std::string describe(const ModelState& state) const = 0;
};

struct CheckOptions {
  // Distinct-state budget; exceeding it fails the run (the exploration was
  // not exhaustive, so none of the three properties were proven).
  std::size_t max_states = 1 << 20;
};

struct CheckResult {
  bool ok = false;
  bool exhausted_budget = false;
  std::size_t states = 0;       // distinct states reached
  std::size_t transitions = 0;  // edges explored
  std::size_t quiescent_states = 0;
  // "" when ok; otherwise one of "wedge", "conformance", "invariant",
  // "budget", prefixing a human-readable description in `failure`.
  std::string failure_kind;
  std::string failure;
  // Replayable counterexample: action labels from the initial state to the
  // failing state (for a wedge, to the wedged state).
  std::vector<std::string> trace;
  std::string failing_state;  // describe() of the trace's end state
  [[nodiscard]] std::string format_trace() const;
};

[[nodiscard]] CheckResult check_model(const Model& model,
                                      const CheckOptions& options = {});

// ---- Models ----------------------------------------------------------------

// Faults a model can plant so tests prove the checker detects each failure
// class (the stock models must come up clean).
enum class PlantedFault {
  kNone,
  // Migration model: drop the coordinator's reaction to a destination-host
  // crash during the transfer step — the run wedges awaiting an ack from a
  // corpse, exactly the seed-17/1 bug shape.
  kWedge,
  // Migration model: the source ships state without freezing first, so
  // source and replica run active concurrently — the exactly-once abstract
  // invariant must trip.
  kInvariant,
};

struct ModelOptions {
  PlantedFault fault = PlantedFault::kNone;
  // Conformance mutation: substitute spec the model's actions are validated
  // against (e.g. a real table with one edge deleted via without_edge); the
  // model still behaves as on main, so the first use of the deleted edge is
  // a spec-conformance counterexample.
  std::shared_ptr<const StateMachineSpec> spec_override;
};

// One migration under the strategy whose coordinator table `spec` is
// (engine/migration_strategy.hpp): migration_spec() for the paper's
// buffered replay, stop_restart_spec() for redirect-park stop-and-restart,
// precopy_spec() for bounded dirty-delta pre-copy. The model is named after
// the table and finds its steps in it by state name (throws
// std::invalid_argument for a table without the migration steps); every
// variant supports both planted faults. `spec` must outlive the model, as
// the stock tables do.
[[nodiscard]] std::unique_ptr<Model> make_migration_model(
    ModelOptions = {}, const StateMachineSpec& spec = migration_spec());
[[nodiscard]] std::unique_ptr<Model> make_split_model(ModelOptions = {});
[[nodiscard]] std::unique_ptr<Model> make_merge_model(ModelOptions = {});
[[nodiscard]] std::unique_ptr<Model> make_reliable_model(ModelOptions = {});

// Stock model registry for tools/modelcheck and tests.
[[nodiscard]] const std::vector<std::string>& model_names();
// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Model> make_model(std::string_view name,
                                                ModelOptions = {});

}  // namespace esh::analysis
