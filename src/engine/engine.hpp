// The distributed stream-processing engine (STREAMMINE3G role): deploys a
// DAG of operators as slices over cluster hosts, routes events, and
// migrates slices between hosts with minimal service interruption
// (paper §IV-A, Figure 3).
//
// The Engine object plays the part of the runtime's coordinator living on
// the manager host: every migration step is a control message exchanged
// with host runtimes over the simulated network, so migration latency
// emerges from real message, CPU, and state-transfer costs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cost_model.hpp"
#include "cluster/host.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "engine/host_runtime.hpp"
#include "engine/migration_strategy.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/simulator.hpp"

namespace esh::engine {

// Passive replication (STREAMMINE3G-style, paper §III): slices checkpoint
// their state periodically to a standby store on the manager host, and
// every slice keeps an in-memory log of its emitted events, truncated when
// the downstream slice checkpoints. After a host failure, lost slices
// restart from their last checkpoint and upstreams replay the logged
// suffix; per-channel sequence numbers deduplicate re-emissions, giving
// exactly-once processing across crashes.
struct CheckpointConfig {
  bool enabled = false;
  SimDuration interval = seconds(30);
};

struct EngineConfig {
  // Output batching period of every slice: emitted events buffer locally
  // and ship on this cadence (dominant steady-state delay component; the
  // EP operator effectively waits for the slowest M slice's flush).
  SimDuration flush_interval = millis(75);
  CheckpointConfig checkpoints{};
  // Host probe period (heartbeats to the manager).
  SimDuration probe_interval = seconds(5);
  // Pacing of the coordinator's migration steps: each control action waits
  // up to this long, modeling the manager's orchestration loop granularity.
  SimDuration control_tick = millis(50);
  // Unused: the engine owns no worker pool, and nothing in src/, bench/,
  // tests/ or examples/ reads or writes this field. It stays only because
  // the end-to-end benchmark (perfbench/e2e.cpp) assigns it, and goes with
  // the benchmark change of ROADMAP item 2.
  std::size_t worker_threads = 1;
  // Run every control-plane exchange (migration protocol, checkpoint
  // shipping, recovery orchestration) over net::ReliableChannel:
  // ack/retransmit with exponential backoff makes the coordinator survive
  // lossy/duplicating/reordering links. Off by default: with no channel the
  // wire traffic (and thus all timing) is byte-identical to the raw engine.
  // Probes are deliberately excluded either way — their silence is the
  // failure detector's signal.
  bool reliable_control = false;
  net::ReliableChannelConfig reliable{};
  // Incremental-precopy strategy: at most this many dirty-delta rounds ship
  // before the final stop-and-copy (the engine/precopy-rounds-bounded
  // invariant), and deltas are diffed at this page granularity. At least
  // one round always runs, so the Engine constructor rejects 0.
  std::size_t precopy_rounds = 3;
  std::size_t precopy_page_bytes = 64;
  cluster::CostModel cost;
};

// How an elastic operation ended. Anything but kCompleted leaves the slice
// where the abort semantics put it: a migrated slice still on the source
// (kAbortedDstFailed with the slice resumed), on the destination (a source
// crash that raced the state transfer counts as kCompleted), or lost and
// handed to recovery; a split aborted before its cut-over leaves routing as
// it was (kAbortedDstFailed: the child's host died; kAbortedSrcFailed: the
// parent's did).
enum class MigrationOutcome {
  kCompleted,
  kRejected,         // invalid or stale request; nothing happened
  kAbortedSrcFailed, // source (split: parent) host died mid-protocol
  kAbortedDstFailed, // destination (split: child) host died mid-protocol
};

[[nodiscard]] const char* to_string(MigrationOutcome outcome);

// Coordinator-side protocol position of an in-flight migration
// (paper §IV-A, Figure 3). Namespace-scoped so the transition-legality
// relation is checkable from tests as well as from the engine itself.
enum class MigrationStep {
  kCreateReplica,    // awaiting CreateReplicaAck from dst
  kDuplication,      // awaiting StartDuplicationAcks from upstreams
  kTransfer,         // freeze sent; awaiting ActivatedAck from dst
  kDirectoryUpdate,  // awaiting DirectoryUpdateAcks from all hosts
  kTeardown,         // awaiting TeardownAck from src
  kAborting,         // awaiting AbortMigrationAck / AbortReplicaAck
  // Strategy-specific steps, appended so the 0-5 indices above stay aligned
  // with the migration_spec state order (tests/test_analysis.cpp pins it).
  kPark,             // stop-and-restart: awaiting redirect acks + drain
  kPrecopy,          // incremental-precopy: awaiting this round's PrecopyAck
};

[[nodiscard]] const char* to_string(MigrationStep step);

// The legal coordinator transitions of the buffered-replay (paper) protocol,
// including the abort edges taken when a participant host dies mid-protocol
// and the kAborting -> kDirectoryUpdate edge (an ActivatedAck racing an
// abort means the move actually completed).
[[nodiscard]] bool migration_transition_legal(MigrationStep from,
                                              MigrationStep to);

// Contract-layer assertion of the relation above (no-op in default builds);
// every coordinator step-change funnels through the strategy-aware overload,
// which checks the transition against the strategy's own spec table.
void assert_migration_transition(MigrationId id, SliceId slice,
                                 MigrationStep from, MigrationStep to);
void assert_migration_transition(const MigrationStrategy& strategy,
                                 MigrationId id, SliceId slice,
                                 MigrationStep from, MigrationStep to);

// ---- fine-grained elasticity: key-level slice split / merge -----------------

// A split refines one slice's key coverage by a bit: the parent keeps one
// half, a fresh child slice takes the other. A merge is the inverse: a
// retiree's coverage and state fold back into its coverage-sibling
// survivor. See PROTOCOL.md for the cut-over sequence. Migrations, splits
// and merges are the three kinds of one elastic operation: they share the
// coordinator's queue, report, callback and step hook.
enum class ElasticKind { kMigrate, kSplit, kMerge };

[[nodiscard]] const char* to_string(ElasticKind kind);

// Coordinator-side protocol position of an in-flight split.
enum class SplitStep {
  kCreateChild,  // replica + directory registration for the child
  kCutOver,      // atomic routing flip (transient within one callback)
  kDrain,        // parent draining to the cut; awaiting SplitStateMessage
  kActivate,     // child restoring from the captured half
  kAborting,     // child host died pre-cut-over; tearing the replica down
};

// Coordinator-side protocol position of an in-flight merge.
enum class MergeStep {
  kCutOver,       // atomic routing flip (transient within one callback)
  kDrainRetiree,  // retiree draining to its final vector; awaiting capture
  kAbsorb,        // survivor absorbing the retiree's state
  kTeardown,      // retiring the drained retiree instance
};

[[nodiscard]] const char* to_string(SplitStep step);
[[nodiscard]] const char* to_string(MergeStep step);

// Legal coordinator transitions (checked via the contract layer on every
// step change, like the migration state machine).
[[nodiscard]] bool split_transition_legal(SplitStep from, SplitStep to);
[[nodiscard]] bool merge_transition_legal(MergeStep from, MergeStep to);

void assert_split_transition(MigrationId id, SliceId slice, SplitStep from,
                             SplitStep to);
void assert_merge_transition(MigrationId id, SliceId slice, MergeStep from,
                             MergeStep to);

// Outcome and timeline of one elastic operation, whatever its kind.
struct ElasticReport {
  MigrationId id;
  ElasticKind kind = ElasticKind::kMigrate;
  SliceId slice;  // moved slice / split parent / merge survivor
  SliceId other;  // split child / merge retiree
  HostId src;     // migration source
  HostId dst;     // migration destination / split child's host
  // Name of the protocol that ran a migration (a strategy row's name(), so
  // the view outlives every report); empty for splits/merges.
  std::string_view strategy;
  MigrationOutcome outcome = MigrationOutcome::kCompleted;
  SimTime requested{};
  SimTime frozen{};     // migration: processing stopped on the source host
  SimTime activated{};  // migration: processing resumed on the destination
  SimTime cutover{};    // split/merge: routing flipped (start of the drain)
  // The operation is over: old slice torn down and directory converged, the
  // split child live, the merge retiree torn down -- or the rejection or
  // abort was reported.
  SimTime finished{};
  std::size_t state_bytes = 0;
  // Protocol byte accounting of a migration (the tradeoff axes of
  // fig_migration_strategies): the final state transfer as shipped
  // (== state_bytes for a full copy, the dirty-page total for a delta one),
  // the pre-copy rounds, and the shadow-mirror duplicates sent while this
  // move was in flight.
  std::size_t transfer_bytes = 0;
  std::size_t precopy_bytes = 0;
  std::size_t duplicate_bytes = 0;
  std::size_t moved = 0;  // state entries split off (splits only)

  [[nodiscard]] SimDuration total_duration() const {
    return finished - requested;
  }
  [[nodiscard]] SimDuration interruption() const { return activated - frozen; }
  [[nodiscard]] std::size_t bytes_shipped() const {
    return transfer_bytes + precopy_bytes + duplicate_bytes;
  }
};

using ElasticCallback = std::function<void(const ElasticReport&)>;

class Engine {
 public:
  // `manager_host` identifies the dedicated host carrying the coordinator's
  // control endpoint (not an engine worker host).
  Engine(sim::Simulator& simulator, net::Network& network, HostId manager_host,
         EngineConfig config, std::uint64_t seed);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- cluster membership ----
  void add_host(cluster::Host& host);
  // Host must hold no slices.
  void remove_host(HostId host);
  [[nodiscard]] bool has_host(HostId host) const;
  [[nodiscard]] std::vector<HostId> hosts() const;

  // ---- deployment ----
  // Deploys the topology once. `placement` maps operator name to one HostId
  // per slice (vector size must equal the operator's slice count).
  void deploy(
      const Topology& topology,
      const std::unordered_map<std::string, std::vector<HostId>>& placement);

  // ---- data ----
  void inject(std::string_view op, std::size_t slice_index, PayloadPtr payload);

  // ---- elasticity mechanism ----
  // Migrations, splits and merges run one at a time on one coordinator:
  // queued migrations start before queued splits/merges (the enforcer
  // minimizes their number; serializing them bounds interference), and
  // each family starts in request order. Every callback fires exactly once
  // and carries the outcome: an invalid or stale request is rejected
  // through it (kRejected), and a participant crash mid-protocol aborts or
  // rolls the operation forward instead of wedging the queue.
  //
  // Migrates `slice` to `dst` with the paper's buffered-replay protocol.
  void migrate(SliceId slice, HostId dst, ElasticCallback callback);
  // Strategy-selecting overload.
  void migrate(SliceId slice, HostId dst, MigrationStrategyKind strategy,
               ElasticCallback callback);
  // Splits `parent`'s key coverage in two: the parent keeps one half and a
  // fresh child slice hosted on `dst` takes the other.
  void split_slice(SliceId parent, HostId dst, ElasticCallback callback);
  // Inverse of split_slice: `retiree`'s coverage and state fold back into
  // its coverage-sibling `survivor`, and the retiree slice is torn down.
  void merge_slices(SliceId survivor, SliceId retiree,
                    ElasticCallback callback);
  // Queued plus in-flight elastic operations of every kind.
  [[nodiscard]] std::size_t pending_ops() const {
    return queue_.size() + (current_ ? 1 : 0);
  }
  [[nodiscard]] std::uint64_t splits_completed() const {
    return splits_completed_;
  }
  [[nodiscard]] std::uint64_t merges_completed() const {
    return merges_completed_;
  }
  // Deployment seed (deterministic per-slice timer phases derive from it).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  // Key coverage currently routed to `slice` (throws for unknown slices).
  [[nodiscard]] KeyCoverage slice_coverage(SliceId slice) const;
  // Chaos hook: fired when the in-flight elastic operation enters a step;
  // `step` matches to_string() of the kind's step enum (MigrationStep,
  // SplitStep, MergeStep; a migration's kPrecopy fires once per round). The
  // hook may fail hosts -- the crash-at-every-step torture tests do exactly
  // that.
  void on_elastic_step(
      std::function<void(const ElasticReport&, std::string_view)> hook) {
    step_hook_ = std::move(hook);
  }
  // Testing seam: the next split cut-over "forgets" to refine the parent's
  // coverage, leaving parent and child overlapping — the key-coverage
  // completeness contract must trip (checked builds only).
  bool testing_corrupt_split_plan = false;
  // Testing seam: issue one pre-copy round past the strategy's bound — the
  // precopy-rounds-bounded contract must trip (checked builds only).
  bool testing_force_extra_precopy_round = false;
  // Testing seam: forces the source slice back to kActive right before the
  // coordinator processes a stop-and-restart ActivatedAck — the
  // stop-restart-no-dual-active contract must trip (checked builds only).
  bool testing_force_src_active_on_activate = false;
  // Shadow-mirror duplicate traffic (bytes) sent by all hosts since deploy;
  // the coordinator differences it around each move for the report.
  void note_duplicate_bytes(std::size_t bytes) {
    duplicate_bytes_total_ += bytes;
  }

  // ---- probes ----
  // All engine hosts start sending HostProbe heartbeats to `target`.
  void enable_probes(net::Endpoint target);

  // ---- reliable control plane (requires config.reliable_control) ----
  // Fires when a control-plane peer exhausted its retry budget (the
  // reliable channel gave up on it). The HostId is resolved from the peer
  // endpoint; wire this to the failure detector so unreachable peers are
  // convicted by evidence instead of waiting out the probe silence.
  void on_control_unreachable(std::function<void(HostId)> callback) {
    control_unreachable_ = std::move(callback);
  }
  [[nodiscard]] bool reliable_control_enabled() const {
    return config_.reliable_control;
  }
  // Aggregated reliable-channel statistics (coordinator + all live host
  // runtimes); zeroes when reliable_control is off.
  [[nodiscard]] net::ReliableStats reliable_stats() const;

  // ---- passive replication (requires config.checkpoints.enabled) ----
  // Abrupt host failure: every slice on the host is lost (its runtime is
  // quarantined so in-flight CPU work dies harmlessly). Returns the lost
  // slices; recover each with recover_slice().
  std::vector<SliceId> fail_host(HostId host);

  // Restores a lost slice on `dst` from its last checkpoint and asks the
  // upstream logs (and the external injection log) to replay the suffix.
  // A slice with no checkpoint yet bootstraps from scratch: the retained
  // logs are complete precisely because no checkpoint ever truncated them,
  // so a full replay reconstructs the state.
  void recover_slice(SliceId slice, HostId dst, std::function<void()> done);

  // True when the slice's directory primary is dead or no longer holds an
  // instance of the slice (i.e. it needs recover_slice to run again).
  [[nodiscard]] bool slice_lost(SliceId slice) const;

  // Standby-store endpoint slices ship checkpoints to.
  [[nodiscard]] net::Endpoint checkpoint_store_endpoint() const {
    return control_endpoint_;
  }
  [[nodiscard]] bool has_checkpoint(SliceId slice) const {
    return checkpoints_.contains(slice);
  }

  // ---- introspection ----
  [[nodiscard]] const StaticConfig& static_config() const { return *static_; }
  [[nodiscard]] HostId slice_host(SliceId slice) const;
  [[nodiscard]] SliceId slice_id(std::string_view op,
                                 std::size_t slice_index) const;
  [[nodiscard]] std::vector<SliceId> slices_on(HostId host) const;
  [[nodiscard]] SliceRuntime* slice_runtime(SliceId slice);
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

 private:
  // One queued or in-flight elastic operation: its report and callback,
  // its kind's coordinator step, and that step's outstanding-ack scratch.
  struct ElasticOp {
    ElasticReport report;
    ElasticCallback callback;
    // Migration protocol; set at migrate() and never null for a migration.
    const MigrationStrategy* strategy = nullptr;
    // Protocol position of the coordinator, one per kind; determines the
    // correct abort or roll-forward action when a participant host dies.
    MigrationStep step = MigrationStep::kCreateReplica;
    SplitStep split_step = SplitStep::kCreateChild;
    MergeStep merge_step = MergeStep::kCutOver;
    // Every step change goes through these so the state-machine contracts
    // see it against the kind's spec table (a migration's: the strategy's
    // own); illegal transitions throw in checked builds.
    void set_step(MigrationStep next) {
      assert_migration_transition(*strategy, report.id, report.slice, step,
                                  next);
      step = next;
    }
    void set_step(SplitStep next) {
      assert_split_transition(report.id, report.slice, split_step, next);
      split_step = next;
    }
    void set_step(MergeStep next) {
      assert_merge_transition(report.id, report.slice, merge_step, next);
      merge_step = next;
    }
    [[nodiscard]] const char* step_name() const;
    // Unwinding an abort handshake: no further protocol step may fire.
    [[nodiscard]] bool aborting() const;

    // Migration: catch-up vector of the replica, the in-flight pre-copy
    // round (1-based; 0 before the first), and the engine-wide
    // duplicate-bytes counter at the move's start (operations are
    // serialized, so the difference at the finish is this move's).
    std::vector<std::pair<SliceId, SeqNo>> catchup;
    std::size_t round = 0;
    std::size_t dup_bytes_base = 0;
    // Outstanding acks tracked as sets (not counters) so a dead host can be
    // struck from the wait without wedging the protocol: a migration's
    // duplication acks and directory acks, a split's directory acks (its
    // child replica's ack sets create_acked).
    std::set<SliceId> pending_dup_slices;
    std::set<HostId> pending_update_hosts;
    bool create_acked = false;
    // While aborting: the host whose ack resolves a migration's abort, and
    // the outcome to report (first failure wins).
    HostId abort_peer;
    MigrationOutcome abort_outcome = MigrationOutcome::kCompleted;
    // Split: the parent's post-cut-over coverage and the child's. Merge:
    // where the retiree drains.
    KeyCoverage parent_cov;
    KeyCoverage child_cov;
    HostId retiree_host;
  };

  // Roll-forward record of a slice mid split/merge (checkpointed clusters
  // only): if the slice's host dies before its next checkpoint proves the
  // capture/absorb durable (coverage_epoch >= epoch), recovery re-drives the
  // slice's leg of the protocol — holds are re-installed from `cutover` and
  // the deterministic replay reproduces the identical capture.
  struct RollForward {
    enum class Role { kSplitParent, kMergeSurvivor, kMergeRetiree };
    Role role = Role::kSplitParent;
    MigrationId transition{};
    std::uint64_t epoch = 0;  // coverage epoch the pending capture produces
    SliceId other{};          // split: child; merge: the opposite slice
    KeyCoverage cov{};        // split: child coverage (for re-capture)
    std::vector<std::pair<SliceId, SeqNo>> cutover{};
    // Merge survivor: the retiree's captured state, once shipped.
    std::shared_ptr<const std::vector<std::byte>> state{};
    std::vector<WireEvent> log{};
    bool state_ready = false;
  };

  // Starts queued operations while none is in flight: migrations first,
  // then splits/merges, each family FIFO. A new request tries its own
  // family only (a new migration never re-evaluates a split/merge deferred
  // behind a roll-forward record; a new split/merge starts even when a
  // re-entrant callback left migrations queued), as does a spent
  // roll-forward record (kTransitions).
  enum class Family { kAny, kMigrations, kTransitions };
  void start_next(Family family = Family::kAny);
  enum class Admission { kStart, kReject, kNoop, kDefer };
  // Re-validates a dequeued operation against current cluster state (the
  // request may have queued behind operations that changed it).
  Admission admit(ElasticOp& op);
  // The in-flight operation ended: report it and start the next one.
  void finish(MigrationOutcome outcome);
  // Fires the callback of an operation that is over (or never started).
  void conclude(ElasticOp op, MigrationOutcome outcome);
  void begin_migration();
  void begin_split();
  void begin_merge();
  void split_cutover();
  // Restores the split child from its captured half on the child's host.
  void activate_split_child();
  // Split/merge capture traffic; also arrives as duplicates from re-driven
  // legs with no operation in flight. Returns true when consumed.
  bool handle_capture_control(const net::Message* msg);
  // Acks of the in-flight operation, routed by its kind.
  void handle_op_control(const net::Message* msg);
  // Unwedges the in-flight operation after `host` died: abort it, strike
  // the host from its ack sets, or leave it to roll forward.
  void handle_host_failure(HostId host);
  // Starts `slice`'s leg of the in-flight split/merge from `roll` (role,
  // other slice, cut vector; the id and epoch are filled in here) and, on
  // checkpointed clusters, keeps the record for redrive_rollforward.
  void start_leg(SliceId slice, RollForward roll);
  // Re-drive the pending protocol leg of a just-recovered slice.
  void redrive_rollforward(SliceId slice);
  void drive_leg(SliceRuntime& rt, const RollForward& roll);
  // Fires the step hook for the in-flight operation's current step; returns
  // false when the hook failed a host and the operation is no longer the
  // same one.
  bool fire_step();
  // True while `id` is the in-flight operation and is not aborting.
  [[nodiscard]] bool op_live(MigrationId id) const;
  [[nodiscard]] std::vector<std::pair<SliceId, SeqNo>> capture_cut_vector(
      SliceId slice);
  [[nodiscard]] StaticConfig::OperatorInfo& mutable_op_of(SliceId slice);
  void after_directory_acks();
  // Tells every host that `slice` now lives on `host`; an operation's
  // update (valid `op`) asks each host to ack.
  void broadcast_location(SliceId slice, HostId host, MigrationId op = {});
  // The in-flight operation awaits a directory ack from every live host.
  void await_directory_acks();
  // A directory ack came in from `host`, or `host` died: after the last
  // one a migration tears down and a split (replica acked) cuts over.
  void strike_directory_ack(HostId host);
  void on_control(const net::Delivery& delivery);
  void send_freeze();
  // Advance past the duplication/park round: into the first pre-copy round
  // for a pre-copying strategy, straight to the freeze otherwise.
  void advance_after_duplication();
  // Issue the next pre-copy round (task.round already bumped by caller via
  // set_step); enforces the precopy-rounds-bounded invariant.
  void start_precopy_round();
  // Stop-and-restart abort repair: the source resumed but the events
  // redirected since the park went only to the now-dead replica. Re-send
  // them from the upstream-backup logs and the external injection log.
  void repair_redirected_channels(SliceId slice,
                                  const std::vector<std::pair<SliceId, SeqNo>>&
                                      processed);
  void step_after_tick(std::function<void()> fn);
  // Runs `fn` after one control tick, unless the in-flight operation was
  // aborted or replaced meanwhile.
  void op_step(std::function<void()> fn);
  void send_control(HostId host, net::MessagePtr msg, std::size_t bytes = 96);
  // A reliable channel (the coordinator's or a host runtime's) exhausted
  // its retry budget toward `peer`; resolve to a HostId and escalate.
  void notify_control_give_up(net::Endpoint peer);
  [[nodiscard]] std::vector<SliceId> upstream_slices(SliceId slice) const;
  [[nodiscard]] std::vector<SliceId> downstream_slices(SliceId slice) const;
  // Record the regenerated-stream base per consumer for a multi-input slice
  // about to recover (no-op for single-input slices, whose replay preserves
  // the original numbering).
  void register_recovery_rebases(SliceId slice);
  // Rewind a recovering slice's restored channel watermarks below the
  // regenerated-stream base of any upstream in recovery_rebases_.
  [[nodiscard]] std::vector<std::pair<SliceId, SeqNo>> clamp_to_rebases(
      SliceId slice, std::vector<std::pair<SliceId, SeqNo>> processed) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  EngineConfig config_;
  Rng rng_;
  HostId manager_host_;
  net::Endpoint control_endpoint_;
  // Non-null iff config_.reliable_control: owns the control endpoint's
  // binding and retransmits coordinator control traffic.
  std::unique_ptr<net::ReliableChannel> control_channel_;
  std::function<void(HostId)> control_unreachable_;
  // Endpoint -> host for give-up escalation. Append-only: endpoints are
  // never reused, and a stale entry for a removed host resolves to a HostId
  // the detector already convicted (or stopped watching).
  std::map<net::Endpoint, HostId> control_peers_;

  std::shared_ptr<const StaticConfig> static_;
  // Same object as static_, mutated only inside an atomic cut-over callback
  // (the engine runs on the simulator thread alone, so no reader can
  // observe a half-applied fan change).
  std::shared_ptr<StaticConfig> mutable_static_;
  std::unordered_map<HostId, std::unique_ptr<HostRuntime>> host_runtimes_;
  // Authoritative directory at the coordinator.
  std::unordered_map<SliceId, SliceLocation> directory_;
  bool deployed_ = false;
  std::uint64_t next_slice_ = 1;
  std::uint64_t next_migration_ = 1;
  std::uint64_t seed_ = 0;
  std::uint64_t splits_completed_ = 0;
  std::uint64_t merges_completed_ = 0;

  std::deque<ElasticOp> queue_;
  std::optional<ElasticOp> current_;
  std::map<SliceId, RollForward> rollforward_;
  std::function<void(const ElasticReport&, std::string_view)> step_hook_;
  // Mirror-duplication wire bytes since engine start; per-migration figures
  // are differences of snapshots (migrations are serialized).
  std::size_t duplicate_bytes_total_ = 0;
  std::optional<net::Endpoint> probe_target_;
  // Per-slice sequence counters of the external injection channel.
  std::unordered_map<SliceId, SeqNo> next_inject_seq_;

  // Passive replication: standby checkpoint store + external-channel log
  // + in-flight recoveries. Quarantined runtimes of failed hosts stay
  // alive so their pending CPU-job callbacks die harmlessly.
  struct StoredCheckpoint {
    std::shared_ptr<const std::vector<std::byte>> state;
    std::vector<std::pair<SliceId, SeqNo>> processed;
    std::vector<std::pair<SliceId, SeqNo>> out_seqs;
    std::vector<WireEvent> log;  // output backlog at the cut
    // Coverage epoch of the state (bumped by every completed split capture
    // or merge absorb); restored so a recovered slice's epoch stays
    // comparable against RollForward::epoch.
    std::uint64_t coverage_epoch = 0;
  };
  std::unordered_map<SliceId, StoredCheckpoint> checkpoints_;
  std::unordered_map<SliceId, std::deque<WireEvent>> inject_log_;
  std::unordered_map<SliceId, std::function<void()>> recoveries_;
  // Watermarks of each slice's most recent recovery replay request. When
  // several slices recover concurrently, one activated earlier may have
  // broadcast its request before a co-recovering upstream was live; the
  // upstream re-receives these on activation so its restored log can serve
  // them (duplicate replays are deduplicated by the channel protocol).
  std::unordered_map<SliceId, std::vector<std::pair<SliceId, SeqNo>>>
      pending_replays_;
  // Output-stream rebases of recovered multi-input slices, upstream ->
  // (consumer -> regenerated first sequence number). A recovered
  // multi-input slice regenerates its post-cut output with fresh sequence
  // numbers starting at its checkpoint's out_seqs. Live consumers are
  // rewound by the recovery's directory update, but a consumer that is
  // itself mid-recovery restores channel watermarks that still count the
  // OLD stream; those are clamped to the regenerated base on restore (see
  // clamp_to_rebases), otherwise regenerated events numbered at or below
  // the stale watermark are deduplicated although their content was never
  // processed. An entry expires when the consumer's next checkpoint
  // reaches the base, proving it has advanced in the new numbering.
  std::map<SliceId, std::map<SliceId, SeqNo>> recovery_rebases_;
  std::vector<std::unique_ptr<HostRuntime>> failed_runtimes_;

  friend class HostRuntime;
  friend class SliceRuntime;
};

}  // namespace esh::engine
