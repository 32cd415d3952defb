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

namespace esh {
class ThreadPool;
}

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
  // Real worker threads for M's batched matching (Engine::worker_pool):
  // each batch's match_batch call fans out over the pool. The count includes
  // the simulator thread; 0 or 1 keeps matching inline. Simulated results
  // are bit-identical for every value -- only wall-clock changes.
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
  // invariant), and deltas are diffed at this page granularity.
  std::size_t precopy_rounds = 3;
  std::size_t precopy_page_bytes = 64;
  cluster::CostModel cost;
};

// How a migration ended. Anything but kCompleted leaves the slice where the
// abort semantics put it: still on the source (kAbortedDstFailed with the
// slice resumed), on the destination (a source crash that raced the state
// transfer counts as kCompleted), or lost and handed to recovery.
enum class MigrationOutcome {
  kCompleted,
  kRejected,         // invalid slice/destination; nothing happened
  kAbortedSrcFailed, // source host died mid-protocol
  kAbortedDstFailed, // destination host died mid-protocol
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
// survivor. See PROTOCOL.md for the cut-over sequence.
enum class TransitionKind { kSplit, kMerge };

[[nodiscard]] const char* to_string(TransitionKind kind);

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

struct TransitionReport {
  MigrationId id;
  TransitionKind kind = TransitionKind::kSplit;
  SliceId parent;  // split parent / merge survivor
  SliceId child;   // split child / merge retiree
  bool completed = false;  // false: rejected or aborted
  SimTime requested{};
  SimTime cutover{};    // routing flipped (start of the drain)
  SimTime finished{};
  std::size_t moved = 0;  // state entries split off (splits only)
};

using TransitionCallback = std::function<void(const TransitionReport&)>;

struct MigrationReport {
  MigrationId id;
  SliceId slice;
  HostId src;
  HostId dst;
  // Name of the protocol that ran the move (a registry singleton's name(),
  // so the view outlives every report).
  std::string_view strategy = "buffered-replay";
  MigrationOutcome outcome = MigrationOutcome::kCompleted;
  SimTime requested{};
  SimTime frozen{};     // processing stopped on the source host
  SimTime activated{};  // processing resumed on the destination host
  SimTime completed{};  // old slice torn down, directory converged
  std::size_t state_bytes = 0;
  // Protocol byte accounting (the tradeoff axes of fig_migration_strategies):
  // the final state transfer as shipped (== state_bytes for a full copy,
  // the dirty-page total for a delta one), the pre-copy rounds, and the
  // shadow-mirror duplicates sent while this move was in flight.
  std::size_t transfer_bytes = 0;
  std::size_t precopy_bytes = 0;
  std::size_t duplicate_bytes = 0;

  [[nodiscard]] SimDuration total_duration() const {
    return completed - requested;
  }
  [[nodiscard]] SimDuration interruption() const { return activated - frozen; }
  [[nodiscard]] std::size_t bytes_shipped() const {
    return transfer_bytes + precopy_bytes + duplicate_bytes;
  }
};

using MigrationCallback = std::function<void(const MigrationReport&)>;

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
  // Migrates `slice` to `dst`. Migrations are executed one at a time in
  // request order (the enforcer minimizes their number; serializing them
  // bounds interference). The callback always fires exactly once and carries
  // the outcome: an unknown slice or destination is rejected through the
  // callback (kRejected), and a source/destination crash mid-protocol aborts
  // the move cleanly instead of wedging the queue.
  void migrate(SliceId slice, HostId dst, MigrationCallback callback);
  // Strategy-selecting overload; the two-argument form runs the paper's
  // buffered-replay protocol, so every existing caller is unchanged.
  void migrate(SliceId slice, HostId dst, MigrationStrategyKind strategy,
               MigrationCallback callback);
  [[nodiscard]] std::size_t pending_migrations() const {
    return migration_queue_.size() + (current_migration_ ? 1 : 0);
  }

  // ---- fine-grained elasticity: key-level split / merge ----
  // Splits `parent`'s key coverage in two: the parent keeps one half and a
  // fresh child slice hosted on `dst` takes the other. Serialized with
  // migrations on the same coordinator (one elastic operation in flight at
  // a time). The callback fires exactly once; invalid arguments reject
  // through it (completed=false).
  void split_slice(SliceId parent, HostId dst, TransitionCallback callback);
  // Inverse of split_slice: `retiree`'s coverage and state fold back into
  // its coverage-sibling `survivor`, and the retiree slice is torn down.
  void merge_slices(SliceId survivor, SliceId retiree,
                    TransitionCallback callback);
  [[nodiscard]] std::size_t pending_transitions() const {
    return transition_queue_.size() + (current_transition_ ? 1 : 0);
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
  // Chaos hook: fired after every coordinator step change of an in-flight
  // split or merge; `step` matches to_string(SplitStep/MergeStep). The hook
  // may fail hosts, which is exactly what the torture tests do.
  void on_elastic_step(
      std::function<void(const TransitionReport&, std::string_view)> hook) {
    elastic_step_hook_ = std::move(hook);
  }
  // Testing seam: the next split cut-over "forgets" to refine the parent's
  // coverage, leaving parent and child overlapping — the key-coverage
  // completeness contract must trip (checked builds only).
  bool testing_corrupt_split_plan = false;
  // Chaos hook: fired when the coordinator of an in-flight migration enters
  // a step (`step` matches to_string(MigrationStep); kPrecopy fires once per
  // round). The hook may fail hosts — the crash-at-every-step torture tests
  // do exactly that.
  void on_migration_step(
      std::function<void(const MigrationReport&, std::string_view)> hook) {
    migration_step_hook_ = std::move(hook);
  }
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
  [[nodiscard]] std::uint64_t migrations_completed() const {
    return migrations_completed_;
  }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  // Worker pool for M's batched matching; nullptr when
  // config.worker_threads <= 1. MHandler::on_batch_start fans its
  // match_batch across it and joins before any result is committed on the
  // simulator thread.
  [[nodiscard]] ThreadPool* worker_pool() { return worker_pool_.get(); }

 private:
  struct MigrationTask {
    // Protocol position of the coordinator; determines the correct abort
    // action when the source or destination host dies.
    using Step = MigrationStep;
    MigrationReport report;
    MigrationCallback callback;
    // Protocol of this move; set at migrate() and never null afterwards.
    const MigrationStrategy* strategy = nullptr;
    std::vector<std::pair<SliceId, SeqNo>> catchup;
    Step step = Step::kCreateReplica;
    // Every step change goes through here so the state-machine contract
    // sees it against the strategy's own spec table (illegal transitions
    // throw in checked builds).
    void set_step(Step next) {
      assert_migration_transition(*strategy, report.id, report.slice, step,
                                  next);
      step = next;
    }
    // Incremental precopy: the in-flight round (1-based; 0 before the first)
    // and the delta bytes acknowledged so far.
    std::size_t round = 0;
    std::size_t precopy_bytes = 0;
    // Engine-wide duplicate-bytes counter at the move's start (migrations
    // are serialized, so the difference at completion is this move's).
    std::size_t dup_bytes_base = 0;
    // Outstanding acks tracked as sets (not counters) so a dead host can be
    // struck from the wait without wedging the protocol.
    std::set<SliceId> pending_dup_slices;
    std::set<HostId> pending_update_hosts;
    // While kAborting: the host whose ack resolves the abort, and the
    // outcome to report (first failure wins).
    HostId abort_peer;
    MigrationOutcome abort_outcome = MigrationOutcome::kCompleted;
  };

  // One in-flight split or merge, serialized with migrations: the
  // coordinator runs at most one elastic operation (of either family) at a
  // time, migrations first.
  struct TransitionTask {
    TransitionReport report;
    TransitionCallback callback;
    HostId dst;               // split: child host (replaced if it dies)
    HostId retiree_host;      // merge: where the retiree drains
    KeyCoverage parent_cov;   // split: parent's post-cut-over coverage
    KeyCoverage child_cov;    // split: child's coverage
    KeyCoverage merged_cov;   // merge: survivor's post-cut-over coverage
    SplitStep split_step = SplitStep::kCreateChild;
    MergeStep merge_step = MergeStep::kCutOver;
    void set_split_step(SplitStep next) {
      assert_split_transition(report.id, report.parent, split_step, next);
      split_step = next;
    }
    void set_merge_step(MergeStep next) {
      assert_merge_transition(report.id, report.parent, merge_step, next);
      merge_step = next;
    }
    // kCreateChild: outstanding directory acks (dead hosts are struck).
    std::set<HostId> pending_update_hosts;
    bool create_acked = false;
  };

  // Roll-forward record of a slice mid split/merge (checkpointed clusters
  // only): if the slice's host dies before its next checkpoint proves the
  // capture/absorb durable (coverage_epoch >= epoch), recovery re-drives the
  // slice's leg of the protocol — holds are re-installed from `cutover` and
  // the deterministic replay reproduces the identical capture.
  struct RollForward {
    enum class Role { kSplitParent, kMergeSurvivor, kMergeRetiree };
    Role role = Role::kSplitParent;
    MigrationId transition;
    std::uint64_t epoch = 0;  // coverage epoch the pending capture produces
    SliceId other;            // split: child; merge: the opposite slice
    KeyCoverage cov;          // split: child coverage (for re-capture)
    std::vector<std::pair<SliceId, SeqNo>> cutover;
    // Merge survivor: the retiree's captured state, once shipped.
    std::shared_ptr<const std::vector<std::byte>> state;
    std::vector<WireEvent> log;
    bool state_ready = false;
  };

  void start_next_migration();
  void finish_migration(MigrationOutcome outcome);
  void start_next_transition();
  void finish_transition(bool completed);
  void begin_split_transition();
  void begin_merge_transition();
  void split_cutover();
  // Split/merge control traffic is dispatched before the migration block in
  // on_control; returns true when the message was consumed.
  bool handle_transition_control(const net::Message* msg);
  void handle_transition_host_failure(HostId host);
  // Re-drive the pending protocol leg of a just-recovered slice (see
  // RollForward).
  void redrive_rollforward(SliceId slice);
  bool fire_elastic_step(std::string_view step);
  [[nodiscard]] std::vector<std::pair<SliceId, SeqNo>> capture_cut_vector(
      SliceId slice);
  [[nodiscard]] StaticConfig::OperatorInfo& mutable_op_of(SliceId slice);
  void handle_host_failure(HostId host);
  void after_directory_acks();
  void broadcast_location(SliceId slice, HostId host);
  void on_control(const net::Delivery& delivery);
  void send_freeze();
  // Fires the migration chaos hook for the current step; returns false when
  // the hook failed a host and the migration is no longer the same one.
  bool fire_migration_step();
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
  void migration_step(std::function<void()> fn);
  void send_control(net::Endpoint to, net::MessagePtr msg,
                    std::size_t bytes = 96);
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
  std::unique_ptr<ThreadPool> worker_pool_;
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
  // (the simulator is single-threaded; worker pools only run inside
  // on_batch_start, which joins before returning, so no reader can observe
  // a half-applied fan change).
  std::shared_ptr<StaticConfig> mutable_static_;
  std::unordered_map<HostId, std::unique_ptr<HostRuntime>> host_runtimes_;
  // Authoritative directory at the coordinator.
  std::unordered_map<SliceId, SliceLocation> directory_;
  bool deployed_ = false;
  std::uint64_t next_slice_ = 1;
  std::uint64_t next_migration_ = 1;
  std::uint64_t migrations_completed_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t splits_completed_ = 0;
  std::uint64_t merges_completed_ = 0;

  std::deque<MigrationTask> migration_queue_;
  std::optional<MigrationTask> current_migration_;
  std::deque<TransitionTask> transition_queue_;
  std::optional<TransitionTask> current_transition_;
  std::map<SliceId, RollForward> rollforward_;
  std::function<void(const TransitionReport&, std::string_view)>
      elastic_step_hook_;
  std::function<void(const MigrationReport&, std::string_view)>
      migration_step_hook_;
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
