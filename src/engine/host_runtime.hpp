// Per-host runtime: owns the operator slices placed on one host, moves
// events between the network and the host CPU scheduler, and executes the
// host-side legs of the migration protocol (replica buffering, catch-up
// freeze, state restore).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/host.hpp"
#include "cluster/probes.hpp"
#include "common/contracts.hpp"
#include "common/keyspace.hpp"
#include "common/rng.hpp"
#include "engine/event.hpp"
#include "engine/handler.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/simulator.hpp"

namespace esh::engine {

class Engine;
class HostRuntime;

// Immutable deployment-wide configuration: operators, slice identities and
// DAG shape. Shared by every host (the paper's "static configuration").
struct StaticConfig {
  struct OperatorInfo {
    OperatorId id;
    std::string name;
    std::vector<SliceId> slices;
    // Key coverage of each slice, parallel to `slices`. Deploy-time slices
    // start with modulo coverage {base = N, bucket = i, depth = 0}; a split
    // refines one entry by a bit and appends the child's, a merge erases
    // the retiree's and widens the survivor's. The entries always tile the
    // key space exactly (the key-coverage-complete invariant).
    std::vector<KeyCoverage> coverages;
    std::uint32_t coverage_base = 0;  // deploy-time slice count (fixed)
    // False until the operator's first split: hash routing keeps the
    // original modulo fast path — byte-for-byte identical behavior to the
    // pre-elasticity engine — for never-split operators.
    bool refined = false;
    HandlerFactory factory;
    std::vector<std::uint32_t> upstream_ops;  // indices into `operators`

    // Hash-routing target for `key` under the current coverage set.
    [[nodiscard]] SliceId route(std::uint64_t key) const;
  };
  struct SliceInfo {
    std::uint32_t op_index = 0;
    std::uint32_t slice_index = 0;
  };

  std::vector<OperatorInfo> operators;
  std::unordered_map<std::string, std::uint32_t> op_by_name;
  std::unordered_map<SliceId, SliceInfo> slice_infos;

  [[nodiscard]] const OperatorInfo& op_of(SliceId id) const;
  [[nodiscard]] const SliceInfo& info_of(SliceId id) const;
  [[nodiscard]] std::uint32_t index_of(std::string_view name) const;
};

// Where a slice lives right now, from one host's point of view. While a
// migration's duplication phase is active the shadow host receives a copy
// of every event; in park mode (stop-and-restart) it receives the events
// *instead of* the primary, which drains to a natural freeze.
struct SliceLocation {
  HostId primary;
  HostId shadow;  // invalid when no duplication is active
  bool redirect = false;  // park mode: shadow replaces primary as receiver
};

// One operator slice instance on a host.
class SliceRuntime final : public Context {
 public:
  enum class State {
    kActive,
    kInactiveReplica,  // buffering duplicated events, awaiting state
    kFreezePending,    // freeze requested, catching up
    kFrozen,           // state serialization / transfer in progress
    kRetired,
  };

  SliceRuntime(HostRuntime& host, SliceId id, std::unique_ptr<Handler> handler,
               State initial_state);
  ~SliceRuntime() override;

  [[nodiscard]] SliceId id() const { return id_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] Handler& handler() { return *handler_; }
  [[nodiscard]] const Handler& handler() const { return *handler_; }

  // Data path -----------------------------------------------------------
  void on_wire_event(const WireEvent& event);
  void flush_outputs();

  // Migration (source-host side) -----------------------------------------
  struct FreezeSpec {
    MigrationId migration;
    std::vector<std::pair<SliceId, SeqNo>> catchup;
    HostId dst_host;
    net::Endpoint reply_to;
    // Merge retiree capture: instead of shipping a StateTransferMessage to
    // dst_host, the freeze job sends a MergeStateMessage (full state +
    // flattened backup log) to reply_to and the slice stays frozen until
    // the coordinator tears it down.
    bool merge_capture = false;
    // Incremental pre-copy final transfer: ship only the pages changed
    // since the last pre-copy round (the replica holds the baseline).
    bool delta = false;
  };
  void request_freeze(FreezeSpec spec);

  // One incremental pre-copy round (source side): serialize while active,
  // diff against the previous round's image, ship the dirty pages to
  // `dst_host`. Ignored when the slice is no longer active (abort raced).
  void run_precopy(MigrationId migration, std::size_t round, HostId dst_host,
                   net::Endpoint reply_to);
  // Replica side: patch the stored baseline with one round's pages and ack
  // the coordinator with the shipped byte count.
  void store_precopy(const PrecopyStateMessage& msg);

  // Migration abort: cancel a pending freeze and resume processing.
  // Returns false when the slice already froze (its state — with every
  // event since the freeze dropped locally — belongs to the replica now),
  // or is not in a resumable state; the caller must hand it to recovery.
  [[nodiscard]] bool unfreeze();

  // Stop-and-restart abort only: a fully-frozen PARKED source is not stale —
  // it froze at its exact catch-up point and every later event went to the
  // (now dead) replica, where the upstream logs can replay it. Returns the
  // slice to active processing; the caller replays the redirected suffix
  // above the slice's dispatch watermarks. Requires state() == kFrozen.
  void thaw();

  // Next sequence number this slice would assign on its channel to
  // `target` (the duplication start point reported to the coordinator).
  [[nodiscard]] SeqNo next_seq_for(SliceId target) const;

  // Passive replication (upstream backup) ---------------------------------
  // Drops logged events for `downstream` at or below `upto`.
  void truncate_log(SliceId downstream, SeqNo upto);
  // Re-sends logged events for `downstream` above `above` (post-recovery).
  void replay_log(SliceId downstream, SeqNo above);
  // A recovered upstream regenerates its output from `base` on, but the
  // regenerated sequence numbers may map content differently than the
  // original run. Rewind the channel to `base` and drop buffered originals
  // at or above it; the regenerated stream replaces them (content-level
  // duplicates are deduplicated by the handlers).
  void reset_channel(SliceId upstream, SeqNo base);
  // Serializes state and ships a checkpoint to the standby store.
  void checkpoint(net::Endpoint store);
  [[nodiscard]] std::size_t logged_events() const;

  // Migration (destination-host side) -------------------------------------
  void activate(const StateTransferMessage& msg);

  void retire();

  // Key-level split / merge (fine-grained elasticity) ----------------------
  struct SplitSpec {
    MigrationId transition;
    SliceId child;
    KeyCoverage child_cov;
    // Cut-over vector: per upstream channel, the first post-cut-over seq.
    std::vector<std::pair<SliceId, SeqNo>> cutover;
    net::Endpoint reply_to;
  };
  struct AbsorbSpec {
    MigrationId transition;
    SliceId retiree;
    std::vector<std::pair<SliceId, SeqNo>> cutover;
    net::Endpoint reply_to;
  };
  // Parent side of a split: hold every cut-over channel at its cut; once
  // all pre-cut-over events have been dispatched, split off the child's
  // half of the state in one write job and ship it to the coordinator.
  void begin_split(SplitSpec spec);
  // Survivor side of a merge: hold channels at the cut; absorb the
  // retiree's captured state once both the drain and the state are in.
  void begin_absorb(AbsorbSpec spec);
  void deliver_absorb_state(
      std::shared_ptr<const std::vector<std::byte>> state,
      std::vector<WireEvent> log);
  // Installs cut-over holds before activation (recovery of a slice that
  // died mid-transition): replayed events at or past a hold stay queued
  // until the re-driven capture or absorb releases them.
  void preinstall_holds(const std::vector<std::pair<SliceId, SeqNo>>& holds);
  // Bumped at every completed split capture / merge absorb; a checkpoint
  // at or past a pending transition's epoch proves its capture durable.
  [[nodiscard]] std::uint64_t coverage_epoch() const { return coverage_epoch_; }
  // Adopted-log maintenance (upstream backup inherited from merged-away
  // slices; channel identity is the retired origin, not this slice).
  void truncate_adopted(SliceId origin, SliceId downstream, SeqNo upto);
  void replay_adopted(SliceId origin, SliceId downstream, SeqNo above);

  // Introspection ---------------------------------------------------------
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_;
  }
  [[nodiscard]] std::size_t net_bytes_sent() const { return net_bytes_sent_; }

  // Context ----------------------------------------------------------------
  void emit(std::string_view op, Routing routing, PayloadPtr payload) override;
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] std::size_t slice_index() const override;
  [[nodiscard]] std::size_t slice_count(std::string_view op) const override;
  [[nodiscard]] std::vector<std::uint32_t> fan_indices(
      std::string_view op) const override;

#if ESH_INVARIANTS_ENABLED
  // Seeded-fault seam for tests/test_contracts.cpp: breaks the channel's
  // expected/last_dispatched relation so the next delivery trips the
  // gap-freedom invariant. Compiled only in checked builds.
  void testing_corrupt_channel(SliceId from) {
    auto& channel = in_[from];
    channel.last_dispatched = channel.expected + 1;
  }

  // Seeded-fault seam: forces the lifecycle state to kActive behind the
  // set_state funnel, simulating a source that kept serving after its
  // checkpoint shipped — the stop-restart-no-dual-active invariant at the
  // coordinator's ActivatedAck site must catch it.
  void testing_force_active() { state_ = State::kActive; }
#endif

 private:
  struct ChannelIn {
    SeqNo expected = 1;               // next seq to deliver (active mode)
    std::map<SeqNo, PayloadPtr> pending;
    SeqNo last_dispatched = 0;        // timestamp-vector component
    // True between a recovery rewind (reset_channel lowering `expected`
    // below last_dispatched + 1) and the first post-rewind delivery; the
    // gap-freedom contract exempts exactly that window. Written in every
    // build so checked and default builds execute identical state updates.
    bool rewound = false;
    // Split/merge cut-over hold: while non-zero, events at or past it stay
    // pending — a split parent / merge survivor must not process any
    // post-cut-over event before its capture (resp. absorb) job runs.
    SeqNo hold = 0;
  };

  // Every lifecycle change funnels through here so the state-machine
  // contract sees it (illegal transitions throw in checked builds).
  void set_state(State next);

  void deliver_in_order(SliceId from, ChannelIn& channel);
  // Submits one event as its own CPU job, with its own cost and lock mode.
  void dispatch(PayloadPtr payload);
  void process(PayloadPtr payload);
  void check_freeze();
  void do_freeze();
  // Split/merge drain gate: submits the capture (split) or absorb (merge)
  // write job once every cut-over channel has dispatched its full pre-cut
  // prefix (and, for a merge, the retiree's state has arrived).
  void check_transition_drain();
  void run_split_capture();
  void run_absorb();
  void release_holds();
  // Flattens out_log_ then adopted_log_ in deterministic order (checkpoint
  // and state-transfer wire format).
  void append_flattened_logs(std::vector<WireEvent>& out) const;
  void start_flush_timer();
  void start_checkpoint_timer();

  HostRuntime& host_;
  SliceId id_;
  std::unique_ptr<Handler> handler_;
  State state_;

  std::unordered_map<SliceId, ChannelIn> in_;
  // Replica buffering: raw per-channel maps (reordered lazily on activate).
  std::unordered_map<SliceId, std::map<SeqNo, PayloadPtr>> replica_buffer_;

  std::unordered_map<SliceId, SeqNo> next_out_seq_;
  std::unordered_map<SliceId, std::vector<WireEvent>> out_buffer_;
  std::size_t out_buffer_events_ = 0;
  // Upstream backup: emitted events retained until the downstream slice
  // checkpoints past them (only populated when checkpoints are enabled).
  bool logging_ = false;
  std::unordered_map<SliceId, std::deque<WireEvent>> out_log_;
  std::unique_ptr<sim::PeriodicTimer> checkpoint_timer_;

  std::optional<FreezeSpec> freeze_spec_;

  // Incremental pre-copy image. On the source: the serialized state as of
  // the last shipped round (the diff baseline). On the replica: the
  // accumulated baseline the final delta transfer patches. A slice is only
  // ever one side of a migration, so one buffer serves both roles.
  std::vector<std::byte> precopy_image_;

  // In-flight split/merge leg on this slice (at most one at a time; the
  // coordinator serializes elastic operations engine-wide).
  std::optional<SplitSpec> split_spec_;
  std::optional<AbsorbSpec> absorb_spec_;
  std::shared_ptr<const std::vector<std::byte>> absorb_state_;
  std::vector<WireEvent> absorb_log_;
  bool absorb_state_ready_ = false;
  bool capture_submitted_ = false;
  std::uint64_t coverage_epoch_ = 0;
  // Upstream-backup logs adopted from merged-away slices, keyed by the
  // retired origin slice, then the downstream target. Kept apart from
  // out_log_ so per-channel truncation and replay stay exact (the events
  // carry the origin's channel identity, not this slice's).
  std::map<SliceId, std::map<SliceId, std::deque<WireEvent>>> adopted_log_;

  std::uint64_t events_processed_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::size_t net_bytes_sent_ = 0;

  std::unique_ptr<sim::PeriodicTimer> flush_timer_;
  friend class HostRuntime;
};

[[nodiscard]] const char* to_string(SliceRuntime::State state);

// Incremental pre-copy page diffing (byte-exact by construction; pinned by
// tests/test_migration_strategies.cpp). `diff_pages` walks `next` in
// fixed-size chunks and emits every chunk that is absent from, longer or
// shorter than, or different from the same offsets of `base`.
[[nodiscard]] std::vector<StatePage> diff_pages(
    const std::vector<std::byte>& base, const std::vector<std::byte>& next,
    std::size_t page_bytes);
// Rebuilds the full image: resize `base` to `full_bytes` (truncating or
// zero-padding), then overwrite the shipped pages at their offsets.
[[nodiscard]] std::vector<std::byte> apply_pages(
    std::vector<std::byte> base, std::size_t full_bytes,
    const std::vector<StatePage>& pages);

// Legal slice lifecycle transitions: freeze only from active, activation
// only from a buffering replica, retirement from anywhere (failure and
// teardown paths), and the self-edges the protocol re-enters (a repeated
// freeze request, retiring an already-retired slice).
[[nodiscard]] bool slice_transition_legal(SliceRuntime::State from,
                                          SliceRuntime::State to);

// Contract-layer assertion of the relation above (no-op in default builds).
void assert_slice_transition(SliceId slice, SliceRuntime::State from,
                             SliceRuntime::State to);

// Host-side runtime: message dispatch, slice registry, probes.
class HostRuntime {
 public:
  HostRuntime(Engine& engine, cluster::Host& cpu);
  ~HostRuntime();
  HostRuntime(const HostRuntime&) = delete;
  HostRuntime& operator=(const HostRuntime&) = delete;

  [[nodiscard]] HostId host_id() const { return cpu_.id(); }
  [[nodiscard]] cluster::Host& cpu() { return cpu_; }
  [[nodiscard]] net::Endpoint endpoint() const { return endpoint_; }
  [[nodiscard]] Engine& engine() { return engine_; }

  // Deployment-time (configuration distribution; not latency-critical).
  void add_slice(SliceId id, SliceRuntime::State initial_state);
  void set_directory(const std::unordered_map<SliceId, SliceLocation>& dir);
  void set_host_endpoint(HostId host, net::Endpoint endpoint);
  void update_location(SliceId slice, SliceLocation location);

  [[nodiscard]] bool has_slice(SliceId id) const;
  [[nodiscard]] SliceRuntime* slice(SliceId id);
  [[nodiscard]] std::size_t slice_count() const { return slices_.size(); }
  [[nodiscard]] std::vector<SliceId> slice_ids() const;

  // Delivers an externally-injected event (virtual channel; see
  // kExternalChannel) to the local instance of the destination slice.
  void deliver_external(const WireEvent& event);

  // Sends a batch of events toward the (logical) destination slice of each
  // event, honoring primary + shadow duplication. Called by slices.
  void send_events(SliceId from_slice,
                   std::unordered_map<SliceId, std::vector<WireEvent>> by_dest,
                   std::size_t* bytes_accum);

  // Point-to-point sends used by the migration protocol.
  void send_to_host(HostId host, net::MessagePtr msg, std::size_t bytes);
  void send_control(net::Endpoint to, net::MessagePtr msg, std::size_t bytes);

  // Probes.
  [[nodiscard]] cluster::HostProbe collect_probe(SimDuration window);
  void enable_probes(net::Endpoint target, SimDuration interval);
  void disable_probes();

  // Reliable control plane (non-null iff EngineConfig::reliable_control).
  [[nodiscard]] net::ReliableChannel* control_channel() const {
    return channel_.get();
  }
  // Cancels all pending retransmissions and releases the endpoint binding.
  // Called when this host is declared failed so the quarantined runtime's
  // channel cannot keep escalating give-ups against live peers.
  void shutdown_control_channel() { channel_.reset(); }

  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_events_; }

 private:
  void on_delivery(const net::Delivery& delivery);
  void handle_control(const net::Delivery& delivery);
  void handle_create_replica(const CreateReplicaRequest& req);
  void handle_start_duplication(const StartDuplicationRequest& req);
  void handle_freeze(const FreezeRequest& req);
  void handle_precopy(const PrecopyRequest& req);
  void handle_precopy_state(const PrecopyStateMessage& msg);
  void handle_state_transfer(const StateTransferMessage& msg);
  void handle_directory_update(const DirectoryUpdateMessage& msg);
  void handle_teardown(const TeardownRequest& req);
  void handle_restore(const RestoreFromCheckpointMessage& msg);
  void handle_abort_migration(const AbortMigrationRequest& req);
  void handle_abort_replica(const AbortReplicaRequest& req);

  // Retires a slice and removes it from the registry. Unlike teardown this
  // tolerates pending CPU work: the runtime is quarantined (not destroyed)
  // so in-flight job callbacks die harmlessly.
  void evict_slice(SliceId id);

  Engine& engine_;
  cluster::Host& cpu_;
  net::Endpoint endpoint_;
  // Non-null iff EngineConfig::reliable_control: owns endpoint_'s binding
  // and retransmits this host's control traffic. Data-plane batches and
  // probes bypass it (probes stay lossy on purpose: silence is the failure
  // detector's signal).
  std::unique_ptr<net::ReliableChannel> channel_;
  std::unordered_map<SliceId, std::unique_ptr<SliceRuntime>> slices_;
  std::vector<std::unique_ptr<SliceRuntime>> retired_slices_;
  std::unordered_map<SliceId, SliceLocation> directory_;
  std::unordered_map<HostId, net::Endpoint> host_endpoints_;
  std::uint64_t dropped_events_ = 0;

  // Probe accounting.
  double last_host_busy_us_ = 0.0;
  std::unordered_map<SliceId, double> last_slice_busy_us_;
  std::unordered_map<SliceId, std::size_t> last_slice_net_bytes_;
  SimTime last_probe_time_{0};
  net::Endpoint probe_target_;
  std::unique_ptr<sim::PeriodicTimer> probe_timer_;

  friend class SliceRuntime;
  friend class Engine;
};

}  // namespace esh::engine
