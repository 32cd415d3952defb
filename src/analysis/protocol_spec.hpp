// Declarative transition tables for the engine's protocol state machines —
// the single source of truth shared by three consumers:
//
//   1. the runtime `ESH_STATE_MACHINE_ASSERT` sites (`slice_transition_legal`
//      in host_runtime.cpp, the migration/split/merge step tables in
//      engine.cpp, the reliable-channel handshake in net/reliable.cpp) all
//      delegate their legality checks to these tables;
//   2. the bounded model checker (analysis/modelcheck.hpp) validates every
//      edge a model takes against the same tables (spec conformance);
//   3. docs/SPEC_CATALOG.md is generated from them (`tools/modelcheck
//      --dump-catalog-md`), so the documented edge lists cannot drift.
//
// State indices are load-bearing: `states()[i]` describes the enum value `i`
// of the corresponding runtime enum (MigrationStep, SplitStep, MergeStep,
// SliceRuntime::State). tests/test_analysis.cpp pins name alignment for every
// index so a reordered enum fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace esh::analysis {

struct SpecState {
  std::string_view name;
  bool initial = false;   // a machine instance may start here
  bool terminal = false;  // no outgoing edges; resolved outside the machine
};

struct SpecEdge {
  std::uint8_t from = 0;
  std::uint8_t to = 0;
  std::string_view label;  // when/why this edge is taken
};

class StateMachineSpec {
 public:
  StateMachineSpec(std::string_view machine, std::string_view subsystem,
                   std::string_view invariant, std::vector<SpecState> states,
                   std::vector<SpecEdge> edges);

  [[nodiscard]] std::string_view name() const { return name_; }
  // Subsystem + invariant name of the ESH_STATE_MACHINE_ASSERT site that
  // enforces this table at runtime (e.g. "engine" / "migration-step-legal").
  [[nodiscard]] std::string_view subsystem() const { return subsystem_; }
  [[nodiscard]] std::string_view invariant() const { return invariant_; }
  [[nodiscard]] const std::vector<SpecState>& states() const { return states_; }
  [[nodiscard]] const std::vector<SpecEdge>& edges() const { return edges_; }

  // O(1) adjacency lookup; out-of-range indices are simply illegal.
  [[nodiscard]] bool legal(std::size_t from, std::size_t to) const;
  // The edge record for (from, to), or nullptr when illegal.
  [[nodiscard]] const SpecEdge* edge(std::size_t from, std::size_t to) const;
  [[nodiscard]] std::size_t index_of(std::string_view state) const;  // throws
  // Index of the named state, or kNoState when the machine has none — how
  // optional protocol steps (a strategy's park or pre-copy) are looked up.
  static constexpr std::size_t kNoState = ~std::size_t{0};
  [[nodiscard]] std::size_t find_state(std::string_view state) const;
  [[nodiscard]] std::string_view state_name(std::size_t index) const;

  // A copy of this spec with one legal edge removed — the mutation hook used
  // by the deleted-edge conformance tests and `tools/modelcheck --mutate`.
  // Throws std::invalid_argument when (from, to) is not a legal edge.
  [[nodiscard]] StateMachineSpec without_edge(std::size_t from,
                                              std::size_t to) const;

 private:
  std::string_view name_;
  std::string_view subsystem_;
  std::string_view invariant_;
  std::vector<SpecState> states_;
  std::vector<SpecEdge> edges_;
  std::vector<std::uint64_t> adjacency_;  // bitmask of legal `to` per `from`
};

// Slice instance lifecycle on a host (engine/host_runtime.cpp,
// SliceRuntime::State). Runtime assert: engine/slice-state-legal.
[[nodiscard]] const StateMachineSpec& slice_lifecycle_spec();

// Coordinator position of one in-flight migration (paper §IV-A Fig. 3;
// engine/engine.cpp MigrationStep). Runtime assert: engine/migration-step-legal.
[[nodiscard]] const StateMachineSpec& migration_spec();

// Coordinator position of one stop-and-restart migration (park the slice's
// channels at the replica, ship one full checkpoint; engine/engine.cpp
// MigrationStep via MigrationStrategy::spec_index). Runtime assert:
// engine/stop-restart-step-legal.
[[nodiscard]] const StateMachineSpec& stop_restart_spec();

// Coordinator position of one incremental pre-copy migration (mirrored
// duplication, bounded dirty-delta rounds, delta final transfer;
// engine/engine.cpp MigrationStep via MigrationStrategy::spec_index).
// Runtime assert: engine/precopy-step-legal.
[[nodiscard]] const StateMachineSpec& precopy_spec();

// Coordinator position of one key-level slice split (docs/PROTOCOL.md;
// engine/engine.cpp SplitStep). Runtime assert: engine/split-step-legal.
[[nodiscard]] const StateMachineSpec& split_spec();

// Coordinator position of one cold-sibling merge (roll-forward only;
// engine/engine.cpp MergeStep). Runtime assert: engine/merge-step-legal.
[[nodiscard]] const StateMachineSpec& merge_spec();

// Sender-side lifecycle of one message on the reliable control channel
// (net/reliable.cpp). Runtime assert: net/reliable-tx-step-legal.
[[nodiscard]] const StateMachineSpec& reliable_tx_spec();

// Receiver-side lifecycle of one sequence number on the reliable control
// channel (net/reliable.cpp). Runtime assert: net/reliable-rx-step-legal.
[[nodiscard]] const StateMachineSpec& reliable_rx_spec();

[[nodiscard]] const std::vector<const StateMachineSpec*>& all_specs();
// nullptr when no machine has that name.
[[nodiscard]] const StateMachineSpec* find_spec(std::string_view machine);

// Markdown rendering of every spec table (one section per machine: states,
// then edges with labels). This is the generated body of docs/SPEC_CATALOG.md;
// `scripts/ci.sh analysis` regenerates and diffs it so docs cannot drift.
[[nodiscard]] std::string render_catalog_markdown();

}  // namespace esh::analysis
