// Event model of the stream-processing engine. Events flow through a DAG
// of operators (paper §III); each event travels on a logical *channel*
// identified by the sending slice, carrying a per-channel sequence number
// assigned at emission. Sequence numbers are the backbone of the migration
// protocol: they let a replica discard events the original slice already
// processed and let receivers restore order across host moves.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/probes.hpp"
#include "common/types.hpp"
#include "net/network.hpp"

namespace esh::engine {

// Application payload carried by an event. Immutable and shared: broadcast
// to N slices costs one allocation.
struct Payload {
  virtual ~Payload() = default;
  // Serialized size used for network transfer accounting.
  [[nodiscard]] virtual std::size_t bytes() const = 0;
};
using PayloadPtr = std::shared_ptr<const Payload>;

// An event as it appears on the wire between two slices.
struct WireEvent {
  SliceId from;  // logical sending slice (channel key; stable across moves)
  SliceId to;    // logical destination slice
  SeqNo seq = kNoSeqNo;
  PayloadPtr payload;
};

// Channel key used for events injected from outside the DAG (publishers /
// subscribers pushing into source slices). External injection is sequenced
// like any upstream channel so the migration protocol's duplication and
// catch-up logic covers it: no push is lost while a source slice moves.
inline constexpr SliceId kExternalChannel{std::uint64_t{1} << 62};

// A flushed batch of events from one host to one destination slice's host.
// Batching amortizes per-message overhead and models the pipelined
// buffering of the real engine (the dominant component of steady-state
// notification delay).
struct EventBatchMessage final : net::Message {
  std::vector<WireEvent> events;
};

// `slice`'s entry in a per-channel sequence vector, or `fallback` when it
// has none.
[[nodiscard]] inline SeqNo seq_of(
    const std::vector<std::pair<SliceId, SeqNo>>& seqs, SliceId slice,
    SeqNo fallback = 0) {
  for (const auto& [id, seq] : seqs) {
    if (id == slice) return seq;
  }
  return fallback;
}

// One consistent cut of a slice, taken by a write job after every in-flight
// job of the slice: what a migration ships, a checkpoint stores and a
// recovery restores (paper §III and §IV-A). Sorted vectors, so the cut never
// depends on hash-table layout.
struct SliceSnapshot {
  // Serialized handler state; null for a bootstrap restore (no checkpoint
  // yet: the handler starts fresh and a full log replay rebuilds it).
  std::shared_ptr<const std::vector<std::byte>> state{};
  // Input watermarks: per channel, the last sequence number dispatched.
  std::vector<std::pair<SliceId, SeqNo>> processed{};
  // Output counters: per downstream slice, the next sequence number.
  std::vector<std::pair<SliceId, SeqNo>> out_seqs{};
  // Upstream-backup log, flattened: emitted events no downstream checkpoint
  // covers yet, each keeping its channel (from, to) — adopted channels of
  // merged-away slices included. Needed when this slice and a downstream
  // fail together: the restored instance must replay events it emitted
  // before the cut, which it cannot regenerate.
  std::vector<WireEvent> log{};
  // Bumped by every completed split capture or merge absorb; a checkpoint at
  // or past a pending capture's epoch proves that capture durable.
  std::uint64_t coverage_epoch = 0;

  // Modeled wire size: the state plus 64 bytes per logged event.
  [[nodiscard]] std::size_t bytes() const {
    return (state ? state->size() : 0) + 64 * log.size();
  }
};

// ---- control plane ----------------------------------------------------------

// Control messages exchanged between the migration coordinator (manager
// host) and host runtimes. See engine/engine.cpp for the protocol flow.

struct CreateReplicaRequest final : net::Message {
  MigrationId migration;
  SliceId slice;
  net::Endpoint reply_to;
};

struct CreateReplicaAck final : net::Message {
  MigrationId migration;
};

// Sent to every host holding an upstream slice of the migrating slice:
// start duplicating events for `slice` to the shadow host.
struct StartDuplicationRequest final : net::Message {
  MigrationId migration;
  SliceId slice;        // migrating slice
  HostId shadow_host;   // where the replica lives
  net::Endpoint reply_to;
  // Park mode (stop-and-restart strategy): send events for `slice`
  // exclusively to the shadow host instead of mirroring them — the source
  // sees nothing past the park point and drains to a natural freeze.
  bool redirect = false;
};

// One ack per upstream slice: the next sequence number it will assign on
// its channel to the migrating slice. All events >= next_seq are duplicated.
struct StartDuplicationAck final : net::Message {
  MigrationId migration;
  SliceId upstream_slice;
  SeqNo next_seq = kNoSeqNo;
};

// Instructs the source host to freeze the slice once it has dispatched all
// events below the catch-up vector, then serialize and ship its state.
struct FreezeRequest final : net::Message {
  MigrationId migration;
  SliceId slice;
  // Catch-up vector: for each upstream channel, the first duplicated seq.
  std::vector<std::pair<SliceId, SeqNo>> catchup;
  HostId dst_host;
  net::Endpoint reply_to;
  // Incremental pre-copy: ship only the pages changed since the last
  // pre-copy round; the replica patches the baseline it already holds.
  bool delta = false;
};

// One contiguous run of changed bytes in a serialized slice image, at page
// granularity (EngineConfig::precopy_page_bytes). `offset` is the byte
// position in the full image, so patching needs no page-size agreement.
struct StatePage {
  std::size_t offset = 0;
  std::vector<std::byte> bytes;
};

// Coordinator -> source host: run one pre-copy round for `slice` — serialize
// its state while it keeps serving, diff against the previous round's image,
// and ship the dirty pages to `dst_host`.
struct PrecopyRequest final : net::Message {
  MigrationId migration;
  SliceId slice;
  std::size_t round = 0;  // 1-based
  HostId dst_host;
  net::Endpoint reply_to;  // coordinator endpoint, forwarded for the ack
};

// Source host -> destination host: the dirty pages of one pre-copy round
// (round 1 carries the full baseline). The replica patches its stored image.
struct PrecopyStateMessage final : net::Message {
  MigrationId migration;
  SliceId slice;
  std::size_t round = 0;
  std::size_t full_bytes = 0;  // size of the full image after this round
  std::vector<StatePage> pages;
  net::Endpoint reply_to;  // coordinator endpoint
};

// Destination host -> coordinator: the round's pages are applied. `bytes`
// is the payload size shipped, so the coordinator can stop early on an
// empty delta and account per-strategy transfer totals.
struct PrecopyAck final : net::Message {
  MigrationId migration;
  SliceId slice;
  std::size_t round = 0;
  std::size_t bytes = 0;
};

// Serialized slice state shipped from the old to the new host. Its size
// drives the transfer time on the simulated network.
struct StateTransferMessage final : net::Message {
  MigrationId migration;
  SliceId slice;
  // The frozen slice's cut. Its state is null when `delta` is set: then
  // only the pages dirtied since the last pre-copy round travel, and the
  // replica rebuilds the full image of `full_bytes` bytes from its stored
  // baseline plus `pages`. The upstream-backup log travels with the state,
  // so the new instance can serve replay requests for events only the old
  // (gone) instance had logged.
  SliceSnapshot snapshot;
  bool delta = false;
  std::size_t full_bytes = 0;
  std::vector<StatePage> pages;
  SimTime frozen_at{};
  net::Endpoint reply_to;
};

struct ActivatedAck final : net::Message {
  MigrationId migration;
  SliceId slice;
  SimTime frozen_at{};
  SimTime activated_at{};
  std::size_t state_bytes = 0;
  // Bytes the final StateTransferMessage actually shipped: equal to
  // `state_bytes` for a full transfer, the dirty-page total for a delta one.
  std::size_t transfer_bytes = 0;
};

// Broadcast after activation: the slice now lives (only) on `host`;
// duplication for it stops.
struct DirectoryUpdateMessage final : net::Message {
  MigrationId migration;  // invalid for non-migration updates
  SliceId slice;
  HostId host;
  net::Endpoint reply_to;  // invalid when no ack needed
  // Recovery updates only (invalid migration id). A recovered slice with a
  // single input channel replays it in order and regenerates exactly the
  // original (sequence, content) stream, so downstream per-channel
  // deduplication stays correct. With two or more input channels the
  // replayed inputs may interleave differently than the original run — the
  // same sequence number can carry different content — and the engine sets
  // `reset_channels`: downstreams rewind the channel from `slice` to its
  // restored output base (absent from `out_bases` = bootstrap = base 1)
  // and accept the regenerated stream afresh. Content-level duplicates of
  // the re-delivered prefix are absorbed by idempotent operator handlers.
  bool reset_channels = false;
  std::vector<std::pair<SliceId, SeqNo>> out_bases;
};

struct DirectoryUpdateAck final : net::Message {
  MigrationId migration;
  HostId from_host;
};

struct TeardownRequest final : net::Message {
  MigrationId migration;
  SliceId slice;
  net::Endpoint reply_to;
};

// ---- migration abort (destination or source host died mid-flight) ----

// Sent to the *source* host when the destination died mid-migration: resume
// the slice if it has not shipped its state yet (the replica and its
// buffered duplicates died with the destination).
struct AbortMigrationRequest final : net::Message {
  MigrationId migration;
  SliceId slice;
  net::Endpoint reply_to;
  // Stop-and-restart: a fully-frozen source may thaw back to active (it
  // froze at its exact park point; the redirected suffix replays from the
  // upstream logs). Buffered-replay leaves this false — there the frozen
  // state belongs to the replica and the slice must go through recovery.
  bool thaw_frozen = false;
};

// `resumed` is false when the slice had already frozen and shipped its
// state and the request did not allow a thaw: the local copy is treated as
// stale and the slice must go through recovery.
struct AbortMigrationAck final : net::Message {
  MigrationId migration;
  SliceId slice;
  bool resumed = false;
  // The slice resumed from a COMPLETED freeze (thaw_frozen granted): every
  // event above the dispatch watermarks was dropped locally while frozen
  // and must be replayed, whichever strategy was aborting.
  bool thawed = false;
  // When resumed: the slice's per-channel dispatch watermarks. A
  // stop-and-restart abort uses them to replay the redirected suffix (events
  // parked at the dead replica) from the upstream-backup logs; a thawed
  // pre-copy abort replays the suffix dropped during the final freeze.
  std::vector<std::pair<SliceId, SeqNo>> processed;
};

// Sent to the *destination* host when the source died mid-migration: tear
// down the inactive replica. If the state transfer raced ahead and the
// replica already activated, it reports so and stays — the migration
// actually completed.
struct AbortReplicaRequest final : net::Message {
  MigrationId migration;
  SliceId slice;
  net::Endpoint reply_to;
};

struct AbortReplicaAck final : net::Message {
  MigrationId migration;
  SliceId slice;
  bool was_active = false;
};

struct TeardownAck final : net::Message {
  MigrationId migration;
};

// ---- slice split / merge (fine-grained elasticity) ----
//
// A split refines one M slice's key coverage by one bit: the parent keeps
// half, a fresh child slice takes the other half. The coordinator flips the
// routing tables atomically (the cut-over), the parent drains its channels
// to the captured cut-over sequence numbers, splits off the child's half of
// its state in one write job, and the child activates from that state like
// a checkpoint restore. A merge is the inverse: the retiree drains, ships
// its full state to the coordinator, and the survivor absorbs it. See
// PROTOCOL.md for the full sequence.

// Parent host -> coordinator: the drained parent captured the child's half
// of its state. `moved` is the number of subscriptions split off;
// `coverage_epoch` is the parent's epoch after the capture (checkpoints at
// or past it prove the capture is durable).
struct SplitStateMessage final : net::Message {
  MigrationId transition;
  SliceId parent;
  SliceId child;
  std::shared_ptr<const std::vector<std::byte>> state;
  std::size_t moved = 0;
  std::uint64_t coverage_epoch = 0;
};

// Retiree host -> coordinator: the drained retiree's cut (the survivor
// absorbs its state and adopts its upstream-backup log).
struct MergeStateMessage final : net::Message {
  MigrationId transition;
  SliceId retiree;
  SliceSnapshot snapshot;
};

// Coordinator -> survivor host: absorb the retiree's captured state. The
// survivor may still be draining to its cut-over; the absorb runs once both
// the drain and this state have arrived.
struct MergeAbsorbRequest final : net::Message {
  MigrationId transition;
  SliceId survivor;
  SliceId retiree;
  SliceSnapshot snapshot;
  net::Endpoint reply_to;
};

struct MergeAbsorbAck final : net::Message {
  MigrationId transition;
  SliceId survivor;
  std::uint64_t coverage_epoch = 0;
};

// Periodic probe from a host runtime to the manager (paper §IV-B).
struct ProbeMessage final : net::Message {
  cluster::HostProbe probe;
};

// ---- passive replication ------------------------------------------------------

// Periodic checkpoint shipped to the standby store on the manager host.
struct CheckpointMessage final : net::Message {
  SliceId slice;
  SliceSnapshot snapshot;
};

// Broadcast after a checkpoint is stored: upstreams may drop logged events
// at or below the watermark for this slice.
struct CheckpointNoticeMessage final : net::Message {
  SliceId slice;
  std::vector<std::pair<SliceId, SeqNo>> processed;
};

// Restores a lost slice on a new host from its last checkpoint.
struct RestoreFromCheckpointMessage final : net::Message {
  SliceId slice;
  SliceSnapshot snapshot;
  // Cut-over holds of a pending split/merge the restored slice is mid-way
  // through: installed before the replica buffer drains, so replayed events
  // at or past a hold stay queued until the re-driven capture releases them.
  std::vector<std::pair<SliceId, SeqNo>> holds;
  net::Endpoint reply_to;
};

// Asks every upstream slice on the receiving host to re-send its logged
// events for `slice` above the checkpoint watermarks.
struct ReplayRequest final : net::Message {
  SliceId slice;
  std::vector<std::pair<SliceId, SeqNo>> processed;
};

}  // namespace esh::engine
