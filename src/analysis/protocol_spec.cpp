#include "analysis/protocol_spec.hpp"

#include <stdexcept>
#include <utility>

namespace esh::analysis {

StateMachineSpec::StateMachineSpec(std::string_view machine,
                                   std::string_view subsystem,
                                   std::string_view invariant,
                                   std::vector<SpecState> states,
                                   std::vector<SpecEdge> edges)
    : name_(machine),
      subsystem_(subsystem),
      invariant_(invariant),
      states_(std::move(states)),
      edges_(std::move(edges)),
      adjacency_(states_.size(), 0) {
  if (states_.size() > 64) {
    throw std::invalid_argument{"StateMachineSpec: > 64 states unsupported"};
  }
  for (const SpecEdge& e : edges_) {
    if (e.from >= states_.size() || e.to >= states_.size()) {
      throw std::invalid_argument{"StateMachineSpec: edge endpoint out of "
                                  "range in machine " + std::string{name_}};
    }
    adjacency_[e.from] |= std::uint64_t{1} << e.to;
  }
}

bool StateMachineSpec::legal(std::size_t from, std::size_t to) const {
  if (from >= adjacency_.size() || to >= states_.size()) return false;
  return (adjacency_[from] >> to) & 1U;
}

const SpecEdge* StateMachineSpec::edge(std::size_t from, std::size_t to) const {
  for (const SpecEdge& e : edges_) {
    if (e.from == from && e.to == to) return &e;
  }
  return nullptr;
}

std::size_t StateMachineSpec::find_state(std::string_view state) const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].name == state) return i;
  }
  return kNoState;
}

std::size_t StateMachineSpec::index_of(std::string_view state) const {
  if (const std::size_t i = find_state(state); i != kNoState) return i;
  throw std::invalid_argument{"StateMachineSpec: unknown state " +
                              std::string{state} + " in machine " +
                              std::string{name_}};
}

std::string_view StateMachineSpec::state_name(std::size_t index) const {
  if (index >= states_.size()) return "out-of-range";
  return states_[index].name;
}

StateMachineSpec StateMachineSpec::without_edge(std::size_t from,
                                                std::size_t to) const {
  if (!legal(from, to)) {
    throw std::invalid_argument{"StateMachineSpec: cannot delete illegal "
                                "edge in machine " + std::string{name_}};
  }
  std::vector<SpecEdge> kept;
  kept.reserve(edges_.size() - 1);
  for (const SpecEdge& e : edges_) {
    if (e.from == from && e.to == to) continue;
    kept.push_back(e);
  }
  return StateMachineSpec{name_, subsystem_, invariant_, states_,
                          std::move(kept)};
}

// ---- Tables ----------------------------------------------------------------
//
// Index order in each `states` vector mirrors the runtime enum declaration
// order; tests/test_analysis.cpp pins `to_string(Enum(i)) == states()[i].name`
// for all four engine machines. A `terminal` state has no edges to *other*
// states (idempotency self-edges are allowed and listed explicitly).

const StateMachineSpec& slice_lifecycle_spec() {
  // SliceRuntime::State in engine/host_runtime.hpp.
  static const StateMachineSpec spec{
      "slice-lifecycle",
      "engine",
      "slice-state-legal",
      {
          {"active", /*initial=*/true, /*terminal=*/false},
          {"inactive-replica", /*initial=*/true, /*terminal=*/false},
          {"freeze-pending", false, false},
          {"frozen", false, false},
          {"retired", false, /*terminal=*/true},
      },
      {
          {0, 2, "freeze requested; slice catches up to the freeze point"},
          {0, 4, "host failed or slice evicted while active"},
          {2, 2, "duplicate freeze request re-arms the catch-up wait"},
          {2, 0, "migration aborted before the freeze completed; thaw"},
          {2, 3, "caught up; state serialization / transfer begins"},
          {3, 0,
           "stop-and-restart abort: the parked source froze at its exact "
           "catch-up point, so it thaws and the redirected suffix replays "
           "from the upstream logs"},
          {2, 4, "host failed or slice evicted while freezing"},
          {3, 4, "transfer done (or host failed); instance torn down"},
          {1, 0, "state restored into the replica; activation"},
          {1, 4, "replica aborted or its host failed before activation"},
          {4, 4, "fail_host retires, then evict_slice retires again"},
      }};
  return spec;
}

const StateMachineSpec& migration_spec() {
  // MigrationStep in engine/engine.hpp (paper §IV-A Fig. 3 plus abort edges).
  static const StateMachineSpec spec{
      "migration",
      "engine",
      "migration-step-legal",
      {
          {"create-replica", /*initial=*/true, false},
          {"duplication", false, false},
          {"transfer", false, false},
          {"directory-update", false, false},
          {"teardown", false, /*terminal=*/true},
          {"aborting", false, false},
      },
      {
          {0, 1, "CreateReplicaAck with live upstream channels; duplicate"},
          {0, 2, "CreateReplicaAck with no live upstreams; straight to freeze"},
          {0, 5, "src or dst host died while the replica was being created"},
          {1, 2, "all StartDuplicationAcks received; freeze the source"},
          {1, 5, "src or dst host died during duplication"},
          {2, 3, "ActivatedAck: dst restored state; update the directory"},
          {2, 5, "src or dst host died during freeze / state transfer"},
          {5, 3, "ActivatedAck raced the abort: the move won; converge"},
          {3, 4, "DirectoryUpdateAcks complete; tear the source down"},
      }};
  return spec;
}

const StateMachineSpec& stop_restart_spec() {
  // MigrationStep subset taken by the stop-and-restart strategy
  // (engine/migration_strategy.cpp). State indices are strategy-local:
  // MigrationStrategy::spec_index maps the shared enum into this table
  // (kDuplication and kPrecopy never occur, so they map out of range).
  static const StateMachineSpec spec{
      "migration-stop-restart",
      "engine",
      "stop-restart-step-legal",
      {
          {"create-replica", /*initial=*/true, false},
          {"park", false, false},
          {"transfer", false, false},
          {"directory-update", false, false},
          {"teardown", false, /*terminal=*/true},
          {"aborting", false, false},
      },
      {
          {0, 1, "CreateReplicaAck: upstreams redirect channels to the dst"},
          {0, 2, "CreateReplicaAck with no live upstreams; straight to freeze"},
          {0, 5, "src or dst host died while the replica was being created"},
          {1, 2, "all redirect acks in; source drains to the park point"},
          {1, 5, "src or dst host died while the channels were parked"},
          {2, 3, "ActivatedAck: dst restored the checkpoint; converge"},
          {2, 5, "src or dst host died during freeze / state transfer"},
          {5, 3, "ActivatedAck raced the abort: the move won; converge"},
          {3, 4, "DirectoryUpdateAcks complete; tear the source down"},
      }};
  return spec;
}

const StateMachineSpec& precopy_spec() {
  // MigrationStep subset taken by the incremental pre-copy strategy
  // (engine/migration_strategy.cpp); the `precopy -> precopy` self-edge is
  // one dirty-delta round, bounded by EngineConfig::precopy_rounds (runtime
  // invariant engine/precopy-rounds-bounded).
  static const StateMachineSpec spec{
      "migration-precopy",
      "engine",
      "precopy-step-legal",
      {
          {"create-replica", /*initial=*/true, false},
          {"duplication", false, false},
          {"precopy", false, false},
          {"transfer", false, false},
          {"directory-update", false, false},
          {"teardown", false, /*terminal=*/true},
          {"aborting", false, false},
      },
      {
          {0, 1, "CreateReplicaAck with live upstream channels; duplicate"},
          {0, 2, "CreateReplicaAck with no live upstreams; pre-copy directly"},
          {0, 6, "src or dst host died while the replica was being created"},
          {1, 2, "all StartDuplicationAcks received; ship the baseline"},
          {1, 6, "src or dst host died during duplication"},
          {2, 2, "PrecopyAck with a non-empty delta and rounds remaining"},
          {2, 3, "delta converged or round budget spent; freeze the source"},
          {2, 6, "src or dst host died during a pre-copy round"},
          {3, 4, "ActivatedAck: dst patched the baseline; converge"},
          {3, 6, "src or dst host died during freeze / delta transfer"},
          {6, 4, "ActivatedAck raced the abort: the move won; converge"},
          {4, 5, "DirectoryUpdateAcks complete; tear the source down"},
      }};
  return spec;
}

const StateMachineSpec& split_spec() {
  // SplitStep in engine/engine.hpp (docs/PROTOCOL.md, key-level split).
  static const StateMachineSpec spec{
      "split",
      "engine",
      "split-step-legal",
      {
          {"create-child", /*initial=*/true, false},
          {"cut-over", false, false},
          {"drain", false, false},
          {"activate", false, /*terminal=*/true},
          {"aborting", false, /*terminal=*/true},
      },
      {
          {0, 1, "child replica registered; atomic routing flip"},
          {0, 4, "child host died pre-cut-over; nothing routed yet, abort"},
          {1, 2, "routing flipped; parent drains to the captured cut"},
          {2, 3, "SplitStateMessage captured; child restores its half"},
      }};
  return spec;
}

const StateMachineSpec& merge_spec() {
  // MergeStep in engine/engine.hpp. Merges only roll forward: once routing
  // flipped, participant deaths re-drive the pending leg via recovery.
  static const StateMachineSpec spec{
      "merge",
      "engine",
      "merge-step-legal",
      {
          {"cut-over", /*initial=*/true, false},
          {"drain-retiree", false, false},
          {"absorb", false, false},
          {"teardown", false, /*terminal=*/true},
      },
      {
          {0, 1, "routing flipped to the survivor; retiree drains"},
          {1, 2, "retiree's final vector captured; survivor absorbs"},
          {2, 3, "absorption applied; retire the drained instance"},
      }};
  return spec;
}

const StateMachineSpec& reliable_tx_spec() {
  // Sender-side lifecycle of one message in net/reliable.cpp: a Pending
  // entry exists exactly while the message is in flight.
  static const StateMachineSpec spec{
      "reliable-tx",
      "net",
      "reliable-tx-step-legal",
      {
          {"fresh", /*initial=*/true, false},
          {"in-flight", false, false},
          {"acked", false, /*terminal=*/true},
          {"given-up", false, /*terminal=*/true},
          {"forgotten", false, /*terminal=*/true},
      },
      {
          {0, 1, "send(): first transmission, RTO timer armed"},
          {1, 1, "RTO fired with retries <= budget; retransmit with backoff"},
          {1, 2, "cumulative ack covers this seq"},
          {1, 3, "retry budget exhausted; peer escalated to give-up handler"},
          {1, 4, "forget_peer: failure detector convicted the peer"},
      }};
  return spec;
}

const StateMachineSpec& reliable_rx_spec() {
  // Receiver-side lifecycle of one sequence number in net/reliable.cpp.
  static const StateMachineSpec spec{
      "reliable-rx",
      "net",
      "reliable-rx-step-legal",
      {
          {"unseen", /*initial=*/true, false},
          {"buffered", false, false},
          {"delivered", false, /*terminal=*/true},
          {"forgotten", false, /*terminal=*/true},
      },
      {
          {0, 1, "frame admitted: seq >= expected and not already buffered"},
          {1, 1, "duplicate of a buffered seq dropped; ack re-sent"},
          {1, 2, "in-order prefix complete; app sees the payload once"},
          {2, 2, "stale duplicate below the cursor dropped; ack re-sent"},
          {1, 3, "forget_peer discards the reorder buffer"},
      }};
  return spec;
}

const std::vector<const StateMachineSpec*>& all_specs() {
  static const std::vector<const StateMachineSpec*> specs{
      &slice_lifecycle_spec(), &migration_spec(),     &stop_restart_spec(),
      &precopy_spec(),         &split_spec(),         &merge_spec(),
      &reliable_tx_spec(),     &reliable_rx_spec(),
  };
  return specs;
}

const StateMachineSpec* find_spec(std::string_view machine) {
  for (const StateMachineSpec* spec : all_specs()) {
    if (spec->name() == machine) return spec;
  }
  return nullptr;
}

std::string render_catalog_markdown() {
  std::string out;
  out += "# Protocol state-machine catalog\n\n";
  out += "Generated from `src/analysis/protocol_spec.cpp` by "
         "`tools/modelcheck --dump-catalog-md`.\n";
  out += "Do not edit by hand: `scripts/ci.sh analysis` regenerates this "
         "file and fails on drift.\n";
  out += "DESIGN.md §3 references these tables for every "
         "`ESH_STATE_MACHINE_ASSERT` invariant.\n";
  for (const StateMachineSpec* spec : all_specs()) {
    out += "\n## ";
    out += spec->name();
    out += " (`";
    out += spec->subsystem();
    out += "/";
    out += spec->invariant();
    out += "`)\n\nStates: ";
    bool first = true;
    for (const SpecState& s : spec->states()) {
      if (!first) out += ", ";
      first = false;
      out += "`";
      out += s.name;
      out += "`";
      if (s.initial) out += " (initial)";
      if (s.terminal) out += " (terminal)";
    }
    out += "\n\n| from | to | when |\n|---|---|---|\n";
    for (const SpecEdge& e : spec->edges()) {
      out += "| `";
      out += spec->state_name(e.from);
      out += "` | `";
      out += spec->state_name(e.to);
      out += "` | ";
      out += e.label;
      out += " |\n";
    }
  }
  return out;
}

}  // namespace esh::analysis
