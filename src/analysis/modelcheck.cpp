#include "analysis/modelcheck.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace esh::analysis {
namespace {

std::uint64_t fnv1a(const ModelState& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::uint8_t b : s) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

struct StateHash {
  std::size_t operator()(const ModelState& s) const {
    return static_cast<std::size_t>(fnv1a(s));
  }
};

// Non-owning view of a static spec, or the caller's mutated override when its
// machine name matches — this is how `--mutate` swaps a table out from under a
// model without changing the model's behavior.
std::shared_ptr<const StateMachineSpec> bind_spec(
    const ModelOptions& options, const StateMachineSpec& stock) {
  if (options.spec_override && options.spec_override->name() == stock.name()) {
    return options.spec_override;
  }
  return {std::shared_ptr<void>{}, &stock};  // aliasing, no-op lifetime
}

}  // namespace

std::string CheckResult::format_trace() const {
  std::string out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    out += "  " + std::to_string(i + 1) + ". " + trace[i] + "\n";
  }
  out += "  => " + failing_state + "\n";
  return out;
}

CheckResult check_model(const Model& model, const CheckOptions& options) {
  CheckResult result;
  std::vector<ModelState> states;
  std::unordered_map<ModelState, std::uint32_t, StateHash> index;
  std::vector<std::int64_t> parent;   // discovery parent, -1 for the initial
  std::vector<std::string> via;       // action label that discovered the state
  std::vector<std::vector<std::uint32_t>> fwd;  // forward adjacency
  std::vector<char> quiet;

  auto trace_to = [&](std::uint32_t target) {
    std::vector<std::string> steps;
    for (std::int64_t cur = target; parent[cur] >= 0; cur = parent[cur]) {
      steps.push_back(via[cur]);
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  };

  auto fail = [&](std::string kind, std::string what,
                  std::vector<std::string> trace, std::string state_text) {
    result.ok = false;
    result.failure_kind = std::move(kind);
    result.failure = std::move(what);
    result.trace = std::move(trace);
    result.failing_state = std::move(state_text);
    result.states = states.size();
    return result;
  };

  auto admit = [&](ModelState state, std::int64_t from,
                   std::string label) -> std::pair<std::uint32_t, bool> {
    auto it = index.find(state);
    if (it != index.end()) return {it->second, false};
    auto id = static_cast<std::uint32_t>(states.size());
    index.emplace(state, id);
    states.push_back(std::move(state));
    parent.push_back(from);
    via.push_back(std::move(label));
    fwd.emplace_back();
    quiet.push_back(model.quiescent(states[id]) ? 1 : 0);
    return {id, true};
  };

  auto [init_id, init_new] = admit(model.initial(), -1, "");
  (void)init_new;
  if (std::string v = model.invariant(states[init_id]); !v.empty()) {
    return fail("invariant", "invariant violated in the initial state: " + v,
                {}, model.describe(states[init_id]));
  }

  std::vector<Successor> succ;
  // BFS (states are appended in discovery order), so counterexample traces
  // are shortest-path.
  for (std::uint32_t cursor = 0; cursor < states.size(); ++cursor) {
    if (states.size() > options.max_states) {
      result.exhausted_budget = true;
      return fail("budget",
                  "state budget exceeded (" +
                      std::to_string(options.max_states) +
                      " distinct states); exploration was not exhaustive",
                  {}, "");
    }
    succ.clear();
    model.successors(states[cursor], succ);
    for (Successor& s : succ) {
      ++result.transitions;
      if (s.action.machine != nullptr &&
          !s.action.machine->legal(s.action.from, s.action.to)) {
        auto trace = trace_to(cursor);
        trace.push_back(s.action.label);
        return fail(
            "conformance",
            "machine '" + std::string{s.action.machine->name()} +
                "': action '" + s.action.label + "' takes edge " +
                std::string{s.action.machine->state_name(s.action.from)} +
                " -> " +
                std::string{s.action.machine->state_name(s.action.to)} +
                " which is not in the spec table",
            std::move(trace), model.describe(s.state));
      }
      auto [id, fresh] = admit(std::move(s.state), cursor, s.action.label);
      fwd[cursor].push_back(id);
      if (fresh) {
        if (std::string v = model.invariant(states[id]); !v.empty()) {
          return fail("invariant", "invariant violated: " + v, trace_to(id),
                      model.describe(states[id]));
        }
      }
    }
  }

  // Wedge check: backward reachability from the quiescent states; every
  // reachable state must be able to reach one.
  std::vector<std::vector<std::uint32_t>> rev(states.size());
  for (std::uint32_t from = 0; from < states.size(); ++from) {
    for (std::uint32_t to : fwd[from]) rev[to].push_back(from);
  }
  std::vector<char> can_quiesce(states.size(), 0);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    if (quiet[i]) {
      can_quiesce[i] = 1;
      queue.push_back(i);
      ++result.quiescent_states;
    }
  }
  while (!queue.empty()) {
    std::uint32_t cur = queue.back();
    queue.pop_back();
    for (std::uint32_t pred : rev[cur]) {
      if (!can_quiesce[pred]) {
        can_quiesce[pred] = 1;
        queue.push_back(pred);
      }
    }
  }
  for (std::uint32_t i = 0; i < states.size(); ++i) {
    if (!can_quiesce[i]) {  // lowest discovery index = shortest trace
      return fail("wedge",
                  "state has no path to quiescence (protocol wedged)" +
                      std::string{fwd[i].empty() ? "; no actions enabled" : ""},
                  trace_to(i), model.describe(states[i]));
    }
  }

  result.ok = true;
  result.states = states.size();
  return result;
}

// ---- Shared model scaffolding ----------------------------------------------

namespace {

// Slice-lifecycle indices (slice_lifecycle_spec order) plus model sentinels.
constexpr std::uint8_t kActive = 0;
constexpr std::uint8_t kReplica = 1;
constexpr std::uint8_t kFreezePending = 2;
constexpr std::uint8_t kFrozen = 3;
constexpr std::uint8_t kRetired = 4;
constexpr std::uint8_t kNone = 5;  // instance never created in this slot
constexpr std::uint8_t kLost = 6;  // instance's host crashed

std::string slot_name(std::uint8_t v) {
  switch (v) {
    case kNone: return "none";
    case kLost: return "lost";
    default: return std::string{slice_lifecycle_spec().state_name(v)};
  }
}

void add(std::vector<Successor>& out, const ModelState& s, std::string label,
         const StateMachineSpec* machine, std::uint8_t from, std::uint8_t to,
         const std::function<void(ModelState&)>& mut) {
  ModelState next = s;
  mut(next);
  out.push_back({ModelAction{std::move(label), machine, from, to},
                 std::move(next)});
}

// Byte layout of the two-party protocol models (migration, split, merge).
// The coordinator and every other host are immortal; the two participants
// each own a slice slot and a host that may crash. A single request/response
// round is in flight at a time (the coordinator protocol is sequential per
// step), and one frame drop and one crash are budgeted.
enum : std::size_t {
  kStep = 0,     // the model's spec-table index
  kFirst,        // slice slot of the first participant
  kSecond,       // slice slot of the second participant
  kAwait,        // a request/response round is outstanding
  kDropped,      // the round's current frame was dropped (awaiting rto)
  kDropBudget,
  kCrashBudget,
  kFirstAlive,
  kSecondAlive,
  kPartyBytes,   // model-specific bytes follow
};

// How a participant shows up in traces: its crash action and describe().
struct Role {
  const char* name;
  const char* tag;
};

class ModelBase : public Model {
 public:
  ModelBase(ModelOptions options, Role first, Role second)
      : options_(std::move(options)), roles_{first, second} {}

 protected:
  // Both participants alive, nothing in flight, budgets full.
  static ModelState parties(std::uint8_t first, std::uint8_t second,
                            std::size_t extra_bytes = 0) {
    ModelState s(kPartyBytes + extra_bytes, 0);
    s[kFirst] = first;
    s[kSecond] = second;
    s[kDropBudget] = 1;
    s[kCrashBudget] = 1;
    s[kFirstAlive] = 1;
    s[kSecondAlive] = 1;
    return s;
  }

  // Channel nondeterminism: drop the round's frame (the reliable channel
  // will retransmit), then retransmit restores it while its endpoints are
  // reachable.
  static void add_frame_faults(std::vector<Successor>& out,
                               const ModelState& s, bool reachable) {
    if (s[kAwait] && !s[kDropped] && s[kDropBudget] > 0) {
      add(out, s, "net: frame dropped", nullptr, 0, 0, [](ModelState& n) {
        n[kDropped] = 1;
        --n[kDropBudget];
      });
    }
    if (s[kDropped] && reachable) {
      add(out, s, "net: rto retransmit", nullptr, 0, 0,
          [](ModelState& n) { n[kDropped] = 0; });
    }
  }

  // A participant's host dies (party 0 or 1). The coordinator reaction
  // (handle_host_failure) runs atomically with the failure-detector
  // conviction: outstanding frames to/from the dead host are purged and,
  // when `abort_machine` is set, the protocol takes its step -> `abort_to`
  // edge.
  void add_crash(std::vector<Successor>& out, const ModelState& s,
                 std::size_t party,
                 const StateMachineSpec* abort_machine = nullptr,
                 std::uint8_t abort_to = 0, const char* note = "") const {
    const std::size_t slot = kFirst + party;
    const std::size_t alive = kFirstAlive + party;
    if (s[kCrashBudget] == 0 || !s[alive]) return;
    add(out, s,
        "crash: " + std::string{roles_[party].name} + " host dies" + note,
        abort_machine, s[kStep], abort_to,
        [slot, alive, aborts = abort_machine != nullptr,
         abort_to](ModelState& n) {
          n[alive] = 0;
          if (n[slot] != kRetired && n[slot] != kNone) n[slot] = kLost;
          --n[kCrashBudget];
          n[kAwait] = 0;
          n[kDropped] = 0;
          if (aborts) n[kStep] = abort_to;
        });
  }

  // The tail of describe(): both participants and the round in flight.
  std::string describe_parties(const ModelState& s) const {
    // Appended piece by piece: a chain of temporaries here trips GCC's
    // -Wrestrict at -O3.
    std::string out;
    for (std::size_t i = 0; i < 2; ++i) {
      out += ' ';
      out += roles_[i].tag;
      out += '=';
      out += slot_name(s[kFirst + i]);
      if (s[kFirstAlive + i] == 0) out += "(host down)";
    }
    out += " awaiting=";
    out += std::to_string(s[kAwait]);
    out += " dropped=";
    out += std::to_string(s[kDropped]);
    out += '}';
    return out;
  }

  ModelOptions options_;

 private:
  std::array<Role, 2> roles_;
};

// ---- Migration --------------------------------------------------------------
//
// One migration of one slice between a source and a destination host, built
// from a migration spec table: the table's state names place the steps, and
// its optional states select the strategy — the same facts the engine's
// strategy rows (engine/migration_strategy.hpp) read off the same tables.
//   - A `park` state (stop-and-restart): instead of mirroring, the hand-off
//     flips every upstream channel to deliver exclusively to the replica
//     (the source drains), then the full checkpoint ships in one hop. Aborts
//     must replay the redirected suffix back to the thawed source —
//     abstracted into the atomic thaw action.
//   - A `precopy` state (incremental pre-copy): the mirror stays on while
//     bounded dirty-delta rounds ship state pages under live traffic, and the
//     final freeze only transfers the last delta. A round byte tracks the
//     iteration (bounded at kRoundBound, matching the
//     engine/precopy-rounds-bounded contract); each round's ack
//     nondeterministically reports a remaining dirty delta (another round)
//     or a drained one (advance to the final transfer).
class MigrationModel final : public ModelBase {
  static constexpr std::size_t kSrc = kFirst;
  static constexpr std::size_t kDst = kSecond;
  static constexpr std::size_t kSrcAlive = kFirstAlive;
  static constexpr std::size_t kDstAlive = kSecondAlive;
  static constexpr std::size_t kRound = kPartyBytes;  // completed rounds
  static constexpr std::uint8_t kRoundBound = 2;
  static constexpr std::uint8_t kNoStep = 0xff;  // the table lacks the state

  static std::uint8_t step_of(const StateMachineSpec& spec,
                              std::string_view state) {
    return static_cast<std::uint8_t>(spec.index_of(state));
  }

 public:
  MigrationModel(const StateMachineSpec& spec, ModelOptions options)
      : ModelBase(std::move(options), {"source", "src"},
                  {"destination", "dst"}),
        mig_(bind_spec(options_, spec)),
        slice_(bind_spec(options_, slice_lifecycle_spec())),
        park_(spec.find_state("park") != StateMachineSpec::kNoState),
        precopy_(spec.find_state("precopy") != StateMachineSpec::kNoState),
        create_(step_of(spec, "create-replica")),
        handoff_(step_of(spec, park_ ? "park" : "duplication")),
        precopy_step_(precopy_ ? step_of(spec, "precopy") : kNoStep),
        transfer_(step_of(spec, "transfer")),
        directory_(step_of(spec, "directory-update")),
        teardown_(step_of(spec, "teardown")),
        aborting_(step_of(spec, "aborting")),
        resolved_(static_cast<std::uint8_t>(spec.states().size())) {}

  std::string name() const override { return std::string{mig_->name()}; }

  ModelState initial() const override {
    return parties(kActive, kNone, /*extra_bytes=*/1);
  }

  void successors(const ModelState& s, std::vector<Successor>& out) const override {
    const std::uint8_t step = s[kStep];
    const bool both = s[kSrcAlive] && s[kDstAlive];
    const PlantedFault fault = options_.fault;
    // Where the hand-off leads: the pre-copy rounds, else the transfer.
    const std::uint8_t after_handoff = precopy_ ? precopy_step_ : transfer_;

    // Planted wedge: the coordinator's reaction to a destination crash during
    // transfer was dropped, so the run sits awaiting an ack from a corpse —
    // model the blocked coordinator as a deadlock.
    if (fault == PlantedFault::kWedge && step == transfer_ && !s[kDstAlive]) {
      return;
    }

    auto step_to = [](std::uint8_t to) {
      return [to](ModelState& n) {
        n[kStep] = to;
        n[kAwait] = 0;
      };
    };
    auto replica_at = [](std::uint8_t to) {
      return [to](ModelState& n) {
        n[kDst] = kReplica;
        n[kStep] = to;
        n[kAwait] = 0;
      };
    };
    auto next_round = [](std::uint8_t to) {
      return [to](ModelState& n) {
        ++n[kRound];
        n[kStep] = to;
        n[kAwait] = 0;
      };
    };
    auto await = [](ModelState& n) { n[kAwait] = 1; };

    // Protocol rounds (request -> processing -> ack): the steps up to the
    // transfer ride the src/dst control channels, the directory update fans
    // out to the immortal peers.
    if (step == create_ && both) {
      if (!s[kAwait] && s[kDst] == kNone) {
        add(out, s, "request: CreateReplica -> dst", nullptr, 0, 0, await);
      }
      if (s[kAwait] && !s[kDropped]) {
        add(out, s, "ack: CreateReplicaAck (live upstreams)", mig_.get(),
            create_, handoff_, replica_at(handoff_));
        add(out, s, "ack: CreateReplicaAck (no upstreams)", mig_.get(),
            create_, after_handoff, replica_at(after_handoff));
      }
    }
    // Hand-off: the upstream channels mirror to the replica or, parked,
    // deliver to it alone while the source drains toward its freeze point.
    if (step == handoff_ && both) {
      if (!s[kAwait]) {
        add(out, s,
            park_ ? "request: StartDuplication(redirect) -> dst"
                  : "request: StartDuplication -> dst",
            nullptr, 0, 0, await);
      }
      if (s[kAwait] && !s[kDropped]) {
        add(out, s,
            park_ ? "ack: StartDuplicationAck (channels parked)"
                  : "ack: StartDuplicationAck",
            mig_.get(), handoff_, after_handoff, step_to(after_handoff));
      }
    }
    // Pre-copy rounds: the source stays active serving while page deltas
    // ship. The ack either leaves a dirty delta behind (another round, only
    // while the bound allows) or reports the delta drained.
    if (step == precopy_step_ && both) {
      if (!s[kAwait]) {
        add(out, s, "request: Precopy round -> src", nullptr, 0, 0, await);
      }
      if (s[kAwait] && !s[kDropped]) {
        if (s[kRound] + 1 < kRoundBound) {
          add(out, s, "ack: PrecopyAck (dirty delta remains)", mig_.get(),
              precopy_step_, precopy_step_, next_round(precopy_step_));
        }
        add(out, s, "ack: PrecopyAck (delta drained / bound reached)",
            mig_.get(), precopy_step_, transfer_, next_round(transfer_));
      }
    }
    // Freeze of the source happens around the hand-off -> transfer boundary
    // (with pre-copy, at the final stop-and-copy only); the kInvariant fault
    // ships state without ever freezing.
    const bool freeze_window =
        step == transfer_ || (!precopy_ && step == handoff_);
    if (freeze_window && s[kSrcAlive] && fault != PlantedFault::kInvariant &&
        s[kSrc] == kActive) {
      add(out, s, "source: freeze requested", slice_.get(), kActive,
          kFreezePending,
          [](ModelState& n) { n[kSrc] = kFreezePending; });
    }
    if (freeze_window && s[kSrcAlive] && s[kSrc] == kFreezePending) {
      add(out, s, "source: caught up to freeze point", slice_.get(),
          kFreezePending, kFrozen, [](ModelState& n) { n[kSrc] = kFrozen; });
    }
    if (step == transfer_ && both) {
      const bool frozen = s[kSrc] == kFrozen;
      const bool faulty_ship =
          fault == PlantedFault::kInvariant && s[kSrc] == kActive;
      if (!s[kAwait] && (frozen || faulty_ship)) {
        add(out, s,
            precopy_ ? "request: ship final delta -> dst"
            : park_  ? "request: ship full checkpoint -> dst"
                     : "request: ship frozen state -> dst",
            nullptr, 0, 0, await);
      }
      if (s[kAwait] && !s[kDropped] && s[kDst] == kReplica &&
          (frozen || faulty_ship)) {
        add(out, s,
            precopy_ ? "dst: patched final delta; replica activates"
            : park_  ? "dst: restored checkpoint; replica activates"
                     : "dst: restored state; replica activates",
            slice_.get(), kReplica, kActive,
            [](ModelState& n) { n[kDst] = kActive; });
      }
      if (s[kAwait] && !s[kDropped] && s[kDst] == kActive) {
        add(out, s, "ack: ActivatedAck", mig_.get(), transfer_, directory_,
            step_to(directory_));
      }
    }
    if (step == directory_) {
      if (!s[kAwait]) {
        add(out, s, "request: DirectoryUpdate -> peers", nullptr, 0, 0, await);
      }
      if (s[kAwait] && !s[kDropped]) {
        add(out, s, "ack: DirectoryUpdateAcks complete", mig_.get(),
            directory_, teardown_, step_to(teardown_));
      }
    }
    if (step == teardown_ && s[kSrcAlive] && s[kSrc] == kFrozen) {
      add(out, s, "source: instance torn down", slice_.get(), kFrozen,
          kRetired, [](ModelState& n) { n[kSrc] = kRetired; });
    }

    // Abort cleanup. Messaging during cleanup is abstracted into atomic
    // actions; the record is erased once no replica or freeze is left.
    if (step == aborting_) {
      if (s[kSrc] == kFreezePending && s[kSrcAlive]) {
        add(out, s,
            park_ ? "abort: thaw the source (redirected suffix replayed)"
                  : "abort: thaw the source",
            slice_.get(), kFreezePending, kActive,
            [](ModelState& n) { n[kSrc] = kActive; });
      }
      if (s[kSrc] == kFrozen && s[kSrcAlive]) {
        add(out, s, "abort: retire the frozen source (re-homed)", slice_.get(),
            kFrozen, kRetired, [](ModelState& n) { n[kSrc] = kRetired; });
      }
      if (s[kDst] == kReplica && s[kDstAlive]) {
        add(out, s,
            precopy_ ? "abort: retire the replica (pre-copied pages discarded)"
                     : "abort: retire the replica",
            slice_.get(), kReplica, kRetired,
            [](ModelState& n) { n[kDst] = kRetired; });
      }
      if (s[kDst] == kActive && s[kDstAlive]) {
        add(out, s, "abort: activation raced the abort; converge", mig_.get(),
            aborting_, directory_, step_to(directory_));
      }
      const bool src_clean =
          s[kSrc] == kActive || s[kSrc] == kRetired || s[kSrc] == kLost;
      const bool dst_clean = s[kDst] == kRetired || s[kDst] == kNone ||
                             s[kDst] == kLost;
      if (src_clean && dst_clean) {
        add(out, s, "abort: cleanup complete; record erased", nullptr, 0, 0,
            [this](ModelState& n) { n[kStep] = resolved_; });
      }
    }

    // Manager re-covers a slice whose every incarnation is gone, once the
    // protocol record is resolved (recovery itself is out of scope here).
    const bool no_active = s[kSrc] != kActive && s[kDst] != kActive;
    if (no_active && (step == teardown_ || step == resolved_) &&
        s[kSrc] != kFrozen && s[kSrc] != kFreezePending) {
      add(out, s, "manager: respawn lost slice from checkpoint", nullptr, 0, 0,
          [](ModelState& n) { n[kSrc] = kActive; });
    }

    add_frame_faults(out, s, step == directory_ || both);

    // A crash before the directory update aborts the migration. The planted
    // wedge drops the reaction to a destination crash during the transfer.
    const StateMachineSpec* aborts = step <= transfer_ ? mig_.get() : nullptr;
    const bool react = !(fault == PlantedFault::kWedge && step == transfer_);
    add_crash(out, s, 0, aborts, aborting_);
    add_crash(out, s, 1, react ? aborts : nullptr, aborting_,
              react ? "" : " (reaction dropped)");
  }

  bool quiescent(const ModelState& s) const override {
    if (s[kAwait] || s[kDropped]) return false;
    if (s[kStep] == teardown_) {
      // Exactly one active incarnation covers the slice: the destination
      // after a completed move, or the manager's respawn if the newly
      // active destination died right after the directory update.
      const bool src_settled = s[kSrc] == kRetired || s[kSrc] == kLost;
      return (s[kDst] == kActive && src_settled) ||
             (s[kSrc] == kActive && s[kDst] == kLost);
    }
    if (s[kStep] == resolved_) {
      return s[kSrc] == kActive;  // abort cleaned; the source (or its
                                  // respawned incarnation) serves the slice
    }
    return false;
  }

  std::string invariant(const ModelState& s) const override {
    if (s[kSrc] == kActive && s[kDst] == kActive) {
      return park_ ? "exactly-once: source and destination active "
                     "concurrently while channels redirect (every parked "
                     "publication delivered twice)"
                   : "exactly-once: source and destination active "
                     "concurrently (duplicate delivery of every publication "
                     "on the slice)";
    }
    if (s[kRound] > kRoundBound) {
      return "precopy-rounds-bounded: round counter exceeded the bound";
    }
    return "";
  }

  std::string describe(const ModelState& s) const override {
    const std::string step = s[kStep] == resolved_
                                 ? "resolved"
                                 : std::string{mig_->state_name(s[kStep])};
    const std::string round =
        precopy_ ? " round=" + std::to_string(s[kRound]) : "";
    return std::string{park_ ? "stop-restart" : precopy_ ? "precopy"
                                                         : "migration"} +
           "{step=" + step + round + describe_parties(s);
  }

 private:
  std::shared_ptr<const StateMachineSpec> mig_;
  std::shared_ptr<const StateMachineSpec> slice_;
  bool park_;
  bool precopy_;
  // Step indices in the spec table; resolved_ (one past the last state)
  // marks an abort whose record was erased.
  std::uint8_t create_, handoff_, precopy_step_, transfer_, directory_,
      teardown_, aborting_, resolved_;
};

// ---- Split ------------------------------------------------------------------
//
// Parent host keeps half the key range, the child slice lands on another
// host. Post-flip the split only rolls forward: a dead participant's role is
// re-homed onto a replacement and the pending leg re-driven.
class SplitModel final : public ModelBase {
  static constexpr std::size_t kParent = kFirst;
  static constexpr std::size_t kChild = kSecond;
  static constexpr std::size_t kParentAlive = kFirstAlive;
  static constexpr std::size_t kChildAlive = kSecondAlive;

 public:
  explicit SplitModel(ModelOptions options)
      : ModelBase(std::move(options), {"parent", "parent"},
                  {"child", "child"}),
        split_(bind_spec(options_, split_spec())),
        slice_(bind_spec(options_, slice_lifecycle_spec())) {}

  std::string name() const override { return "split"; }

  ModelState initial() const override { return parties(kActive, kNone); }

  void successors(const ModelState& s, std::vector<Successor>& out) const override {
    const std::uint8_t step = s[kStep];
    const bool both = s[kParentAlive] && s[kChildAlive];

    if (step == 0 && both) {
      if (!s[kAwait] && s[kChild] == kNone) {
        add(out, s, "request: CreateChild -> child host", nullptr, 0, 0,
            [](ModelState& n) { n[kAwait] = 1; });
      }
      if (s[kAwait] && !s[kDropped]) {
        add(out, s, "ack: child replica registered", split_.get(), 0, 1,
            [](ModelState& n) {
              n[kChild] = kReplica;
              n[kAwait] = 0;
              n[kStep] = 1;
            });
      }
    }
    if (step == 1) {
      add(out, s, "coordinator: atomic routing flip", split_.get(), 1, 2,
          [](ModelState& n) { n[kStep] = 2; });
    }
    if (step == 2 && both) {
      if (!s[kAwait]) {
        add(out, s, "request: parent drains; SplitStateMessage -> child",
            nullptr, 0, 0, [](ModelState& n) { n[kAwait] = 1; });
      }
      if (s[kAwait] && !s[kDropped] && s[kChild] == kReplica) {
        add(out, s, "child: restored its half; activates", slice_.get(),
            kReplica, kActive, [](ModelState& n) { n[kChild] = kActive; });
      }
      if (s[kAwait] && !s[kDropped] && s[kChild] == kActive) {
        add(out, s, "ack: split state applied", split_.get(), 2, 3,
            [](ModelState& n) {
              n[kAwait] = 0;
              n[kStep] = 3;
            });
      }
    }

    // Roll-forward recovery: a dead participant's role is adopted by a
    // replacement host (restored from checkpoint) and the leg re-driven.
    if (s[kParent] == kLost && step <= 2) {
      add(out, s, "recovery: parent re-homed; split re-driven", nullptr, 0, 0,
          [](ModelState& n) {
            n[kParent] = kActive;
            n[kParentAlive] = 1;
          });
    }
    if (s[kChild] == kLost && (step == 1 || step == 2)) {
      add(out, s, "recovery: child re-homed as a fresh replica", nullptr, 0, 0,
          [](ModelState& n) {
            n[kChild] = kReplica;
            n[kChildAlive] = 1;
          });
    }

    add_frame_faults(out, s, both);
    add_crash(out, s, 0);
    // Pre-cut-over a child death aborts (nothing routed yet); afterwards the
    // split rolls forward via re-homing.
    add_crash(out, s, 1, step == 0 ? split_.get() : nullptr, 4);
  }

  bool quiescent(const ModelState& s) const override {
    if (s[kAwait] || s[kDropped]) return false;
    if (s[kStep] == 3) {
      return (s[kParent] == kActive || s[kParent] == kLost) &&
             (s[kChild] == kActive || s[kChild] == kLost);
    }
    return s[kStep] == 4 && s[kParent] == kActive;
  }

  std::string invariant(const ModelState& s) const override {
    if (s[kStep] >= 2 && s[kStep] != 4 && s[kChild] == kNone) {
      return "coverage: routing flipped to a child that was never created";
    }
    if (s[kStep] == 4 && s[kChild] == kActive) {
      return "coverage: aborted split left an active child "
             "(its key half is routed to the parent)";
    }
    return "";
  }

  std::string describe(const ModelState& s) const override {
    return "split{step=" + std::string{split_->state_name(s[kStep])} +
           describe_parties(s);
  }

 private:
  std::shared_ptr<const StateMachineSpec> split_;
  std::shared_ptr<const StateMachineSpec> slice_;
};

// ---- Merge ------------------------------------------------------------------
//
// Survivor absorbs the retiree's key range. Merges only roll forward: once
// routing flipped, a dead participant re-drives the pending leg via recovery
// (a lost retiree's stash is recovered from its checkpoint, abstracted here
// as a skip).
class MergeModel final : public ModelBase {
  static constexpr std::size_t kSurvivor = kFirst;
  static constexpr std::size_t kRetiree = kSecond;
  static constexpr std::size_t kSurvivorAlive = kFirstAlive;
  static constexpr std::size_t kRetireeAlive = kSecondAlive;

 public:
  explicit MergeModel(ModelOptions options)
      : ModelBase(std::move(options), {"survivor", "survivor"},
                  {"retiree", "retiree"}),
        merge_(bind_spec(options_, merge_spec())),
        slice_(bind_spec(options_, slice_lifecycle_spec())) {}

  std::string name() const override { return "merge"; }

  ModelState initial() const override { return parties(kActive, kActive); }

  void successors(const ModelState& s, std::vector<Successor>& out) const override {
    const std::uint8_t step = s[kStep];
    const bool both = s[kSurvivorAlive] && s[kRetireeAlive];

    if (step == 0) {
      add(out, s, "coordinator: routing flip to the survivor", merge_.get(), 0,
          1, [](ModelState& n) { n[kStep] = 1; });
    }
    if (step == 1) {
      if (s[kRetiree] == kActive && s[kRetireeAlive]) {
        add(out, s, "retiree: freeze requested", slice_.get(), kActive,
            kFreezePending,
            [](ModelState& n) { n[kRetiree] = kFreezePending; });
      }
      if (s[kRetiree] == kFreezePending && s[kRetireeAlive]) {
        add(out, s, "retiree: drained to the captured cut", slice_.get(),
            kFreezePending, kFrozen,
            [](ModelState& n) { n[kRetiree] = kFrozen; });
      }
      if (s[kRetiree] == kFrozen) {
        add(out, s, "coordinator: final vector captured", merge_.get(), 1, 2,
            [](ModelState& n) { n[kStep] = 2; });
      }
      if (s[kRetiree] == kLost) {
        add(out, s, "recovery: retiree lost; vector taken from checkpoint",
            merge_.get(), 1, 2, [](ModelState& n) { n[kStep] = 2; });
      }
    }
    if (step == 2) {
      if (both && s[kRetiree] == kFrozen) {
        if (!s[kAwait]) {
          add(out, s, "request: ship retiree stash -> survivor", nullptr, 0, 0,
              [](ModelState& n) { n[kAwait] = 1; });
        }
        if (s[kAwait] && !s[kDropped]) {
          add(out, s, "ack: absorption applied by the survivor", merge_.get(),
              2, 3, [](ModelState& n) {
                n[kAwait] = 0;
                n[kStep] = 3;
              });
        }
      }
      if (s[kRetiree] == kLost) {
        add(out, s, "recovery: absorb from checkpoint stash", merge_.get(), 2,
            3, [](ModelState& n) {
              n[kAwait] = 0;
              n[kStep] = 3;
            });
      }
    }
    if (step == 3 && s[kRetiree] == kFrozen && s[kRetireeAlive]) {
      add(out, s, "retiree: drained instance torn down", slice_.get(), kFrozen,
          kRetired, [](ModelState& n) { n[kRetiree] = kRetired; });
    }

    // Survivor deaths always re-drive: the replacement restores from its
    // checkpoint and the coordinator repeats the pending leg.
    if (s[kSurvivor] == kLost) {
      add(out, s, "recovery: survivor re-homed; merge re-driven", nullptr, 0,
          0, [](ModelState& n) {
            n[kSurvivor] = kActive;
            n[kSurvivorAlive] = 1;
          });
    }

    add_frame_faults(out, s, both);
    add_crash(out, s, 0);
    add_crash(out, s, 1);
  }

  bool quiescent(const ModelState& s) const override {
    if (s[kAwait] || s[kDropped]) return false;
    return s[kStep] == 3 &&
           (s[kSurvivor] == kActive || s[kSurvivor] == kLost) &&
           (s[kRetiree] == kRetired || s[kRetiree] == kLost);
  }

  std::string invariant(const ModelState& s) const override {
    if (s[kStep] >= 2 &&
        (s[kRetiree] == kActive || s[kRetiree] == kFreezePending)) {
      return "exactly-once: retiree still accepting publications after its "
             "final vector was captured";
    }
    return "";
  }

  std::string describe(const ModelState& s) const override {
    return "merge{step=" + std::string{merge_->state_name(s[kStep])} +
           describe_parties(s);
  }

 private:
  std::shared_ptr<const StateMachineSpec> merge_;
  std::shared_ptr<const StateMachineSpec> slice_;
};

// ---- Reliable channel -------------------------------------------------------
//
// One sender, one receiver, two messages (seq 1 and 2), frame-level
// nondeterminism: drop, duplicate, reorder (frames are independent tokens),
// retransmission with a retry budget of one, give-up escalation, and the
// receiver's reorder buffer with in-order delivery.
class ReliableModel final : public Model {
  enum : std::size_t {
    kTx1 = 0,  // reliable_tx_spec index per message
    kTx2,
    kRx1,  // reliable_rx_spec index per seq
    kRx2,
    kFrames1,  // data frames of seq 1 in flight (0..3)
    kFrames2,
    kAck1,  // cumulative ack in flight (latest-wins, so a flag)
    kAck2,
    kRetries1,
    kRetries2,
    kDropBudget,
    kDupBudget,
    kBytes,
  };
  // tx indices
  static constexpr std::uint8_t kFresh = 0;
  static constexpr std::uint8_t kInFlight = 1;
  static constexpr std::uint8_t kAcked = 2;
  static constexpr std::uint8_t kGivenUp = 3;
  // rx indices
  static constexpr std::uint8_t kUnseen = 0;
  static constexpr std::uint8_t kBuffered = 1;
  static constexpr std::uint8_t kDelivered = 2;
  static constexpr std::uint8_t kForgotten = 3;

 public:
  explicit ReliableModel(const ModelOptions& options)
      : tx_(bind_spec(options, reliable_tx_spec())),
        rx_(bind_spec(options, reliable_rx_spec())) {}

  std::string name() const override { return "reliable"; }

  ModelState initial() const override {
    ModelState s(kBytes, 0);
    s[kDropBudget] = 1;
    s[kDupBudget] = 1;
    return s;
  }

  void successors(const ModelState& s, std::vector<Successor>& out) const override {
    for (int i = 0; i < 2; ++i) {
      const std::size_t tx = kTx1 + i;
      const std::size_t rx = kRx1 + i;
      const std::size_t fr = kFrames1 + i;
      const std::size_t ack = kAck1 + i;
      const std::size_t rt = kRetries1 + i;
      const std::string seq = "seq " + std::to_string(i + 1);

      if (s[tx] == kFresh) {
        add(out, s, "send " + seq, tx_.get(), 0, 1, [tx, fr](ModelState& n) {
          n[tx] = kInFlight;
          ++n[fr];
        });
      }
      if (s[tx] == kInFlight && s[rt] < 1) {
        add(out, s, "rto retransmit " + seq, tx_.get(), 1, 1,
            [fr, rt](ModelState& n) {
              ++n[rt];
              if (n[fr] < 3) ++n[fr];
            });
      }
      if (s[fr] > 0 && s[kDropBudget] > 0) {
        add(out, s, "net: drop a data frame of " + seq, nullptr, 0, 0,
            [fr](ModelState& n) {
              --n[fr];
              --n[kDropBudget];
            });
      }
      if (s[fr] > 0 && s[kDupBudget] > 0 && s[fr] < 3) {
        add(out, s, "net: duplicate a data frame of " + seq, nullptr, 0, 0,
            [fr](ModelState& n) {
              ++n[fr];
              --n[kDupBudget];
            });
      }
      if (s[fr] > 0) {
        // Receiving a frame always (re-)sends the cumulative ack; the rx
        // machine admits an unseen seq and drops duplicates on the floor.
        const std::uint8_t from = s[rx];
        const std::uint8_t to = s[rx] == kUnseen ? kBuffered : s[rx];
        if (s[rx] != kForgotten) {
          add(out, s, "recv a data frame of " + seq, rx_.get(), from, to,
              [rx, fr, ack, to](ModelState& n) {
                --n[fr];
                n[rx] = to;
                n[ack] = 1;
              });
        } else {
          add(out, s, "recv a data frame of " + seq + " (peer forgotten)",
              nullptr, 0, 0, [fr](ModelState& n) { --n[fr]; });
        }
      }
      if (s[rx] == kBuffered && (i == 0 || s[kRx1] == kDelivered)) {
        add(out, s, "deliver " + seq + " to the app", rx_.get(), 1, 2,
            [rx](ModelState& n) { n[rx] = kDelivered; });
      }
      if (s[ack] > 0) {
        const bool pending = s[tx] == kInFlight;
        add(out, s,
            pending ? "recv ack for " + seq
                    : "recv stale ack for " + seq + " (pending gone)",
            pending ? tx_.get() : nullptr, 1, 2, [tx, ack, pending](ModelState& n) {
              n[ack] = 0;
              if (pending) n[tx] = kAcked;
            });
        if (s[kDropBudget] > 0) {
          add(out, s, "net: drop the ack for " + seq, nullptr, 0, 0,
              [ack](ModelState& n) {
                --n[ack];
                --n[kDropBudget];
              });
        }
      }
      if (s[tx] == kInFlight && s[rt] >= 1) {
        add(out, s, "give up on " + seq + " (retry budget spent)", tx_.get(),
            1, 3, [tx](ModelState& n) { n[tx] = kGivenUp; });
      }
      // Give-up escalates to the peer-failure handler, which unbinds the
      // peer; the receiver's reorder buffer for it is discarded.
      if (s[rx] == kBuffered && (s[kTx1] == kGivenUp || s[kTx2] == kGivenUp)) {
        add(out, s, "forget peer: discard buffered " + seq, rx_.get(), 1, 3,
            [rx](ModelState& n) { n[rx] = kForgotten; });
      }
    }
  }

  bool quiescent(const ModelState& s) const override {
    if (s[kFrames1] || s[kFrames2] || s[kAck1] || s[kAck2]) return false;
    for (int i = 0; i < 2; ++i) {
      if (s[kTx1 + i] != kAcked && s[kTx1 + i] != kGivenUp) return false;
      if (s[kRx1 + i] == kBuffered) return false;
    }
    return true;
  }

  std::string invariant(const ModelState& s) const override {
    if (s[kRx2] == kDelivered && s[kRx1] != kDelivered) {
      return "fifo: seq 2 delivered before seq 1";
    }
    if (s[kRx1] != kUnseen && s[kTx1] == kFresh) {
      return "causality: seq 1 observed before it was sent";
    }
    return "";
  }

  std::string describe(const ModelState& s) const override {
    auto msg = [&](int i) {
      return std::string{tx_->state_name(s[kTx1 + i])} + "/" +
             std::string{rx_->state_name(s[kRx1 + i])} + " frames=" +
             std::to_string(s[kFrames1 + i]) + " ack=" +
             std::to_string(s[kAck1 + i]);
    };
    return "reliable{seq1: " + msg(0) + "; seq2: " + msg(1) + "}";
  }

 private:
  std::shared_ptr<const StateMachineSpec> tx_;
  std::shared_ptr<const StateMachineSpec> rx_;
};

}  // namespace

std::unique_ptr<Model> make_migration_model(ModelOptions options,
                                            const StateMachineSpec& spec) {
  return std::make_unique<MigrationModel>(spec, std::move(options));
}
std::unique_ptr<Model> make_split_model(ModelOptions options) {
  return std::make_unique<SplitModel>(std::move(options));
}
std::unique_ptr<Model> make_merge_model(ModelOptions options) {
  return std::make_unique<MergeModel>(std::move(options));
}
std::unique_ptr<Model> make_reliable_model(ModelOptions options) {
  return std::make_unique<ReliableModel>(std::move(options));
}

const std::vector<std::string>& model_names() {
  static const std::vector<std::string> names{
      "migration", "migration-stop-restart", "migration-precopy", "split",
      "merge",     "reliable"};
  return names;
}

std::unique_ptr<Model> make_model(std::string_view name,
                                  ModelOptions options) {
  for (const StateMachineSpec* spec :
       {&migration_spec(), &stop_restart_spec(), &precopy_spec()}) {
    if (name == spec->name()) {
      return make_migration_model(std::move(options), *spec);
    }
  }
  if (name == "split") return make_split_model(std::move(options));
  if (name == "merge") return make_merge_model(std::move(options));
  if (name == "reliable") return make_reliable_model(std::move(options));
  return nullptr;
}

}  // namespace esh::analysis
