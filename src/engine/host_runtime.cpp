#include "engine/host_runtime.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analysis/protocol_spec.hpp"
#include "common/det.hpp"
#include "common/log.hpp"
#include "engine/engine.hpp"

namespace esh::engine {

const char* to_string(SliceRuntime::State state) {
  switch (state) {
    case SliceRuntime::State::kActive: return "active";
    case SliceRuntime::State::kInactiveReplica: return "inactive-replica";
    case SliceRuntime::State::kFreezePending: return "freeze-pending";
    case SliceRuntime::State::kFrozen: return "frozen";
    case SliceRuntime::State::kRetired: return "retired";
  }
  return "unknown";
}

bool slice_transition_legal(SliceRuntime::State from, SliceRuntime::State to) {
  // Edge list (with per-edge rationale) lives in the declarative table in
  // src/analysis/protocol_spec.cpp, shared with the model checker and docs.
  return analysis::slice_lifecycle_spec().legal(static_cast<std::size_t>(from),
                                                static_cast<std::size_t>(to));
}

void assert_slice_transition([[maybe_unused]] SliceId slice,
                             [[maybe_unused]] SliceRuntime::State from,
                             [[maybe_unused]] SliceRuntime::State to) {
  ESH_STATE_MACHINE_ASSERT(
      "engine", "slice-state-legal", slice_transition_legal(from, to),
      ::esh::contracts::Detail{}.slice(slice).transition(to_string(from),
                                                         to_string(to)));
}

// ---- pre-copy page diffing ---------------------------------------------------

namespace {

std::size_t total_bytes(const std::vector<StatePage>& pages) {
  std::size_t bytes = 0;
  for (const StatePage& page : pages) bytes += page.bytes.size();
  return bytes;
}

}  // namespace

std::vector<StatePage> diff_pages(const std::vector<std::byte>& base,
                                  const std::vector<std::byte>& next,
                                  std::size_t page_bytes) {
  if (page_bytes == 0) page_bytes = 1;
  std::vector<StatePage> out;
  for (std::size_t off = 0; off < next.size(); off += page_bytes) {
    const std::size_t len = std::min(page_bytes, next.size() - off);
    // A page ships when the baseline has nothing (or a different length —
    // a trailing partial chunk that grew or shrank) at these offsets, or
    // the bytes differ. Everything else is reconstructed from the baseline.
    const std::size_t base_len =
        off >= base.size() ? 0 : std::min(page_bytes, base.size() - off);
    const bool same =
        base_len == len &&
        std::equal(next.begin() + static_cast<std::ptrdiff_t>(off),
                   next.begin() + static_cast<std::ptrdiff_t>(off + len),
                   base.begin() + static_cast<std::ptrdiff_t>(off));
    if (same) continue;
    StatePage page;
    page.offset = off;
    page.bytes.assign(next.begin() + static_cast<std::ptrdiff_t>(off),
                      next.begin() + static_cast<std::ptrdiff_t>(off + len));
    out.push_back(std::move(page));
  }
  return out;
}

std::vector<std::byte> apply_pages(std::vector<std::byte> base,
                                   std::size_t full_bytes,
                                   const std::vector<StatePage>& pages) {
  base.resize(full_bytes);  // truncate a shrunk image, zero-pad a grown one
  for (const StatePage& page : pages) {
    if (page.offset + page.bytes.size() > base.size()) {
      throw std::logic_error{"apply_pages: page outside the full image"};
    }
    std::copy(page.bytes.begin(), page.bytes.end(),
              base.begin() + static_cast<std::ptrdiff_t>(page.offset));
  }
  return base;
}

// ---- StaticConfig ------------------------------------------------------------

const StaticConfig::OperatorInfo& StaticConfig::op_of(SliceId id) const {
  return operators.at(info_of(id).op_index);
}

const StaticConfig::SliceInfo& StaticConfig::info_of(SliceId id) const {
  auto it = slice_infos.find(id);
  if (it == slice_infos.end()) {
    throw std::logic_error{"StaticConfig: unknown slice"};
  }
  return it->second;
}

std::uint32_t StaticConfig::index_of(std::string_view name) const {
  auto it = op_by_name.find(name);
  if (it == op_by_name.end()) {
    throw std::logic_error{"StaticConfig: unknown operator"};
  }
  return it->second;
}

SliceId StaticConfig::OperatorInfo::route(std::uint64_t key) const {
  // Linear scan: operators have a handful of slices, and the coverage set
  // tiles the key space exactly, so the first hit is the only hit.
  for (std::size_t i = 0; i < coverages.size(); ++i) {
    if (coverages[i].covers(key)) return slices[i];
  }
  throw std::logic_error{"OperatorInfo::route: key not covered"};
}

// ---- SliceRuntime ------------------------------------------------------------

SliceRuntime::SliceRuntime(HostRuntime& host, SliceId id,
                           std::unique_ptr<Handler> handler,
                           State initial_state)
    : host_(host), id_(id), handler_(std::move(handler)), state_(initial_state) {
  logging_ = host_.engine().config().checkpoints.enabled;
  if (state_ == State::kActive) {
    start_flush_timer();
    start_checkpoint_timer();
  }
}

SliceRuntime::~SliceRuntime() = default;

void SliceRuntime::set_state(State next) {
  assert_slice_transition(id_, state_, next);
  state_ = next;
}

void SliceRuntime::start_flush_timer() {
  auto& engine = host_.engine();
  const auto period = engine.config().flush_interval;
  // Deterministic per-slice phase so slices do not flush in lockstep. A
  // seeded hash of the slice id — not the shared RNG stream — keeps every
  // slice's phase independent of how many timers started before it, so
  // creating a slice mid-run (split child, recovery) never rephases the
  // rest of the cluster.
  const auto phase = micros(static_cast<std::int64_t>(
      key_mix64(engine.seed() ^ id_.value()) %
      static_cast<std::uint64_t>(period.count())));
  flush_timer_ = std::make_unique<sim::PeriodicTimer>(
      engine.simulator(), phase + micros(1), period, [this] { flush_outputs(); });
}

void SliceRuntime::on_wire_event(const WireEvent& event) {
  switch (state_) {
    case State::kRetired:
    case State::kFrozen:
      // A frozen slice's inbound events are duplicated to its replica;
      // dropping here loses nothing.
      ++duplicates_dropped_;
      return;
    case State::kInactiveReplica: {
      // Raw buffering: reordering and deduplication happen at activation,
      // once the timestamp vector is known.
      replica_buffer_[event.from].emplace(event.seq, event.payload);
      return;
    }
    case State::kActive:
    case State::kFreezePending:
      break;
  }
  ChannelIn& channel = in_[event.from];
  if (event.seq < channel.expected) {
    ++duplicates_dropped_;
    return;
  }
  if (channel.pending.empty() && channel.deliverable(event.seq)) {
    // In-order arrival (the common case): dispatch without a round trip
    // through the reorder buffer.
    check_gap_free(event.from, channel);
    advance(channel, event.payload);
  } else {
    channel.pending.emplace(event.seq, event.payload);
    deliver_in_order(event.from, channel);
  }
  if (state_ == State::kFreezePending) check_freeze();
  if (split_spec_ || absorb_spec_) check_transition_drain();
}

void SliceRuntime::deliver_in_order(SliceId from, ChannelIn& channel) {
  check_gap_free(from, channel);
  while (!channel.pending.empty() &&
         channel.deliverable(channel.pending.begin()->first)) {
    auto node = channel.pending.extract(channel.pending.begin());
    advance(channel, std::move(node.mapped()));
  }
}

void SliceRuntime::check_gap_free([[maybe_unused]] SliceId from,
                                  [[maybe_unused]] const ChannelIn& channel)
    const {
  // Gap-freedom: every sequence number below `expected` has been dispatched
  // exactly once, so the two cursors stay locked together. The one legal
  // exception is the window right after a recovery rewind (reset_channel),
  // marked by `rewound` and closed by the first post-rewind delivery.
  ESH_INVARIANT("engine", "channel-gap-free",
                channel.rewound ||
                    channel.expected == channel.last_dispatched + 1,
                ::esh::contracts::Detail{}
                    .slice(id_)
                    .expected(channel.last_dispatched + 1)
                    .actual(channel.expected)
                    .note("input channel from slice " +
                          std::to_string(from.value())));
}

void SliceRuntime::advance(ChannelIn& channel, PayloadPtr payload) {
  channel.last_dispatched = channel.expected;
  ++channel.expected;
  channel.rewound = false;  // cursors re-locked by this delivery
  dispatch(std::move(payload));
}

void SliceRuntime::dispatch(PayloadPtr payload) {
  const double cost = handler_->cost_units(payload);
  const cluster::LockMode mode = handler_->lock_mode(payload);
  auto job = [this, payload = std::move(payload)]() mutable {
    if (state_ == State::kRetired) return;
    process(std::move(payload));
  };
  static_assert(sim::Callback::stores_inline<decltype(job)>);
  host_.cpu().submit(id_, mode, cost, std::move(job));
}

void SliceRuntime::process(PayloadPtr payload) {
  ++events_processed_;
  handler_->on_event(*this, payload);
}

void SliceRuntime::emit(std::string_view op, Routing routing,
                        PayloadPtr payload) {
  const auto& cfg = host_.engine().static_config();
  const auto& target_op = cfg.operators.at(cfg.index_of(op));
  const auto& slices = target_op.slices;
  if (slices.empty()) {
    throw std::logic_error{"emit: operator has no slices"};
  }
  auto queue_to = [&](SliceId target) {
    ChannelOut& out = out_[target];
    const SeqNo seq = out.next_seq++;
    out.buffer.push_back(WireEvent{id_, target, seq, payload});
    ++out_buffer_events_;
    if (logging_) {
      // Upstream backup: retained until the downstream checkpoints.
      log_[{id_, target}].push_back(WireEvent{id_, target, seq, payload});
    }
  };
  switch (routing.kind()) {
    case Routing::Kind::kToIndex:
      queue_to(slices.at(routing.index()));
      break;
    case Routing::Kind::kBroadcast:
      for (SliceId target : slices) queue_to(target);
      break;
    case Routing::Kind::kHash:
      // Never-split operators keep the original modulo rule (byte-identical
      // to the pre-elasticity engine); refined operators route through the
      // coverage set flipped atomically at each cut-over.
      queue_to(target_op.refined ? target_op.route(routing.key())
                                 : slices[routing.key() % slices.size()]);
      break;
  }
}

SimTime SliceRuntime::now() const {
  return host_.engine().simulator().now();
}

std::size_t SliceRuntime::slice_index() const {
  return host_.engine().static_config().info_of(id_).slice_index;
}

std::size_t SliceRuntime::slice_count(std::string_view op) const {
  const auto& cfg = host_.engine().static_config();
  return cfg.operators.at(cfg.index_of(op)).slices.size();
}

std::vector<std::uint32_t> SliceRuntime::fan_indices(
    std::string_view op) const {
  const auto& cfg = host_.engine().static_config();
  return cfg.operators.at(cfg.index_of(op)).fan;
}

void SliceRuntime::flush_outputs() {
  if (out_buffer_events_ == 0) return;
#if ESH_INVARIANTS_ENABLED
  // state_bytes-style accounting: the running event counter must equal the
  // sum of the per-target buffers it summarizes.
  std::size_t buffered = 0;
  out_.for_each([&buffered](SliceId, const ChannelOut& out) {
    buffered += out.buffer.size();
  });
  ESH_INVARIANT("engine", "out-buffer-accounting",
                buffered == out_buffer_events_,
                ::esh::contracts::Detail{}
                    .slice(id_)
                    .expected(out_buffer_events_)
                    .actual(buffered));
#endif
  out_buffer_events_ = 0;
  out_.for_each([this](SliceId target, ChannelOut& out) {
    if (!out.buffer.empty()) host_.stage_events(target, out.buffer);
  });
  host_.send_staged(&net_bytes_sent_);
}

SeqNo SliceRuntime::next_seq_for(SliceId target) const {
  const ChannelOut* out = out_.find(target);
  return out == nullptr ? SeqNo{1} : out->next_seq;
}

void SliceRuntime::start_checkpoint_timer() {
  if (!logging_) return;
  auto& engine = host_.engine();
  const auto period = engine.config().checkpoints.interval;
  // Same per-slice hash phase as the flush timer (different period, so the
  // two timers de-phase naturally); see start_flush_timer for why this is
  // a hash of the slice id and not a shared-RNG draw.
  const auto phase = micros(static_cast<std::int64_t>(
      key_mix64(engine.seed() ^ id_.value()) %
      static_cast<std::uint64_t>(period.count())));
  checkpoint_timer_ = std::make_unique<sim::PeriodicTimer>(
      engine.simulator(), phase + micros(1), period,
      [this] { checkpoint(host_.engine().checkpoint_store_endpoint()); });
}

void SliceRuntime::truncate_log(SliceId origin, SliceId downstream,
                                SeqNo upto) {
  auto it = log_.find({origin, downstream});
  if (it == log_.end()) return;
  auto& log = it->second;
  while (!log.empty() && log.front().seq <= upto) log.pop_front();
}

void SliceRuntime::replay_logs(
    SliceId downstream,
    const std::vector<std::pair<SliceId, SeqNo>>& processed) {
  const auto replay = [&](SliceId origin, const std::deque<WireEvent>& log) {
    const SeqNo above = seq_of(processed, origin);
    std::vector<WireEvent> resend;
    for (const WireEvent& event : log) {
      if (event.seq > above) resend.push_back(event);
    }
    if (!resend.empty()) {
      host_.stage_events(downstream, resend);
      host_.send_staged(&net_bytes_sent_);
    }
  };
  if (auto own = log_.find({id_, downstream}); own != log_.end()) {
    replay(id_, own->second);
  }
  // The map orders channels by origin first, so adopted channels replay in
  // ascending origin order.
  for (const auto& [channel, log] : log_) {
    if (channel.second == downstream && channel.first != id_) {
      replay(channel.first, log);
    }
  }
}

void SliceRuntime::reset_channel(SliceId upstream, SeqNo base) {
  ChannelIn* found = in_.find(upstream);
  if (found == nullptr) return;
  ChannelIn& channel = *found;
  // Buffered events at or above the base are originals from the old
  // instance whose sequence numbers no longer mean the same content.
  std::erase_if(channel.pending,
                [base](const auto& entry) { return entry.first >= base; });
  if (channel.expected > base) {
    channel.expected = base;
    channel.rewound = true;  // gap-freedom exemption until next delivery
  }
}

void SliceRuntime::checkpoint(net::Endpoint store) {
  if (state_ != State::kActive) return;
  const auto& cost_model = host_.engine().config().cost;
  const double cost =
      500.0 + cost_model.state_serialize_units_per_byte *
                  static_cast<double>(handler_->state_bytes());
  // Consistent cut: the RW job runs after in-flight work, so the state
  // matches the dispatched-events watermark exactly (as in migration).
  host_.cpu().submit(id_, cluster::LockMode::kWrite, cost, [this, store] {
    if (state_ != State::kActive) return;
    auto msg = std::make_shared<CheckpointMessage>();
    msg->slice = id_;
    msg->snapshot = capture();
    const std::size_t bytes = msg->snapshot.bytes();
    host_.send_control(store, std::move(msg), bytes);
  });
}

std::vector<std::pair<SliceId, SeqNo>> SliceRuntime::watermarks() const {
  std::vector<std::pair<SliceId, SeqNo>> out;
  in_.for_each([&out](SliceId from, const ChannelIn& channel) {
    out.emplace_back(from, channel.last_dispatched);
  });
  return out;
}

SliceSnapshot SliceRuntime::capture() const {
  SliceSnapshot snapshot;
  BinaryWriter writer;
  handler_->serialize_state(writer);
  snapshot.state =
      std::make_shared<const std::vector<std::byte>>(std::move(writer).take());
  snapshot.processed = watermarks();
  out_.for_each([&snapshot](SliceId target, const ChannelOut& out) {
    snapshot.out_seqs.emplace_back(target, out.next_seq);
  });
  for (const auto& [channel, log] : log_) {
    snapshot.log.insert(snapshot.log.end(), log.begin(), log.end());
  }
  snapshot.coverage_epoch = coverage_epoch_;
  return snapshot;
}

void SliceRuntime::restore(const SliceSnapshot& snapshot) {
  if (snapshot.state) {
    BinaryReader reader{*snapshot.state};
    handler_->restore_state(reader);
  }
  coverage_epoch_ = snapshot.coverage_epoch;
  for (const auto& [from, last] : snapshot.processed) {
    auto& channel = in_[from];
    channel.expected = last + 1;
    channel.last_dispatched = last;
  }
  for (const auto& [target, next] : snapshot.out_seqs) {
    out_[target].next_seq = next;
  }
  // Replay requests for pre-cut events are served from here now.
  log_.clear();
  adopt_log(snapshot.log);
}

void SliceRuntime::adopt_log(const std::vector<WireEvent>& log) {
  for (const WireEvent& event : log) {
    log_[{event.from, event.to}].push_back(event);
  }
}

std::size_t SliceRuntime::logged_events() const {
  std::size_t total = 0;
  for (const auto& [channel, log] : log_) total += log.size();
  return total;
}

void SliceRuntime::request_freeze(FreezeSpec spec) {
  if (state_ != State::kActive && state_ != State::kFreezePending) {
    throw std::logic_error{"request_freeze: slice not active"};
  }
  freeze_spec_ = std::move(spec);
  set_state(State::kFreezePending);
  check_freeze();
}

bool SliceRuntime::unfreeze() {
  switch (state_) {
    case State::kActive:
      // The freeze request never arrived (or was lost): nothing to undo.
      freeze_spec_.reset();
      return true;
    case State::kFreezePending:
      freeze_spec_.reset();
      set_state(State::kActive);
      return true;
    case State::kFrozen:
    case State::kInactiveReplica:
    case State::kRetired:
      return false;
  }
  return false;
}

void SliceRuntime::thaw() {
  if (state_ != State::kFrozen) {
    throw std::logic_error{"thaw: slice not frozen"};
  }
  freeze_spec_.reset();
  set_state(State::kActive);
  // do_freeze stopped the flush timer; processing resumes, so restart it.
  start_flush_timer();
}

void SliceRuntime::check_freeze() {
  if (state_ != State::kFreezePending || !freeze_spec_) return;
  // Catch-up condition (paper Figure 3, step 3): every event below the
  // duplication start must have been dispatched locally, so the union of
  // (processed here) + (duplicated to the replica) has no gap.
  for (const auto& [channel_id, first_duplicated] : freeze_spec_->catchup) {
    const ChannelIn* channel = in_.find(channel_id);
    const SeqNo expected = channel == nullptr ? SeqNo{1} : channel->expected;
    if (expected < first_duplicated) return;
  }
  do_freeze();
}

void SliceRuntime::do_freeze() {
  set_state(State::kFrozen);
  if (flush_timer_) flush_timer_->stop();

  const auto& cost_model = host_.engine().config().cost;
  const double cost =
      1000.0 + cost_model.state_serialize_units_per_byte *
                   static_cast<double>(handler_->state_bytes());
  // kWrite: runs after every in-flight job of this slice completes, so the
  // serialized state reflects exactly the dispatched-events watermark.
  host_.cpu().submit(id_, cluster::LockMode::kWrite, cost, [this] {
    if (state_ != State::kFrozen) return;  // aborted before serialization
    // Ship whatever the final processing jobs emitted before the state is
    // captured; the output sequence counters must cover these events.
    flush_outputs();
    SliceSnapshot snapshot = capture();
    if (freeze_spec_->merge_capture) {
      // Merge retiree: the cut goes to the coordinator (which forwards it
      // to the survivor); the slice stays frozen here until the coordinator
      // tears it down.
      auto msg = std::make_shared<MergeStateMessage>();
      msg->transition = freeze_spec_->migration;
      msg->retiree = id_;
      msg->snapshot = std::move(snapshot);
      const std::size_t bytes = msg->snapshot.bytes();
      host_.send_control(freeze_spec_->reply_to, std::move(msg), bytes);
      return;
    }
    auto msg = std::make_shared<StateTransferMessage>();
    msg->migration = freeze_spec_->migration;
    msg->slice = id_;
    if (freeze_spec_->delta) {
      // Incremental pre-copy final transfer: only the pages dirtied since
      // the last round travel; the replica patches its stored baseline.
      msg->delta = true;
      msg->full_bytes = snapshot.state->size();
      msg->pages = diff_pages(precopy_image_, *snapshot.state,
                              host_.engine().config().precopy_page_bytes);
      snapshot.state.reset();
    }
    msg->snapshot = std::move(snapshot);
    msg->frozen_at = host_.engine().simulator().now();
    msg->reply_to = freeze_spec_->reply_to;
    const std::size_t bytes = total_bytes(msg->pages) + msg->snapshot.bytes();
    host_.send_to_host(freeze_spec_->dst_host, std::move(msg), bytes);
  });
}

void SliceRuntime::run_precopy(MigrationId migration, std::size_t round,
                               HostId dst_host, net::Endpoint reply_to) {
  if (state_ != State::kActive) return;
  const auto& cost_model = host_.engine().config().cost;
  const double cost =
      500.0 + cost_model.state_serialize_units_per_byte *
                  static_cast<double>(handler_->state_bytes());
  // kWrite, like a checkpoint cut: the image reflects exactly the
  // dispatched-events watermark, and the slice resumes serving right after.
  host_.cpu().submit(
      id_, cluster::LockMode::kWrite, cost,
      [this, migration, round, dst_host, reply_to] {
        if (state_ != State::kActive) return;  // abort or freeze raced
        BinaryWriter writer;
        handler_->serialize_state(writer);
        std::vector<std::byte> image = std::move(writer).take();
        auto msg = std::make_shared<PrecopyStateMessage>();
        msg->migration = migration;
        msg->slice = id_;
        msg->round = round;
        msg->full_bytes = image.size();
        msg->pages = diff_pages(precopy_image_, image,
                                host_.engine().config().precopy_page_bytes);
        msg->reply_to = reply_to;
        const std::size_t bytes = 64 + total_bytes(msg->pages);
        // The shipped image becomes the diff baseline of the next round —
        // and of the final delta transfer in do_freeze.
        precopy_image_ = std::move(image);
        host_.send_to_host(dst_host, std::move(msg), bytes);
      });
}

void SliceRuntime::store_precopy(const PrecopyStateMessage& msg) {
  // Patch the accumulated baseline in place; the final delta transfer
  // (HostRuntime::handle_state_transfer) patches the same buffer once more
  // and restores from it.
  precopy_image_ =
      apply_pages(std::move(precopy_image_), msg.full_bytes, msg.pages);
  auto ack = std::make_shared<PrecopyAck>();
  ack->migration = msg.migration;
  ack->slice = id_;
  ack->round = msg.round;
  ack->bytes = total_bytes(msg.pages);
  host_.send_control(msg.reply_to, std::move(ack), 64);
}

void SliceRuntime::activate(SliceSnapshot snapshot, MigrationId migration,
                            SimTime frozen_at, net::Endpoint reply_to,
                            std::size_t transfer_bytes) {
  if (state_ != State::kInactiveReplica) {
    throw std::logic_error{"activate: slice is not an inactive replica"};
  }
  const std::size_t state_bytes =
      snapshot.state ? snapshot.state->size() : 0;
  const auto& cost_model = host_.engine().config().cost;
  const double cost =
      1000.0 + cost_model.state_deserialize_units_per_byte *
                   static_cast<double>(state_bytes);
  host_.cpu().submit(
      id_, cluster::LockMode::kWrite, cost,
      [this, snapshot = std::move(snapshot), migration, frozen_at, reply_to,
       state_bytes, transfer_bytes] {
        if (state_ != State::kInactiveReplica) return;  // aborted meanwhile
        restore(snapshot);
        set_state(State::kActive);
        start_flush_timer();
        start_checkpoint_timer();
        host_.update_location(id_, SliceLocation{host_.host_id(), HostId{}});

        // Drain the replica buffer: drop events the original processed,
        // deliver the rest in order.
        auto buffered = std::move(replica_buffer_);
        replica_buffer_.clear();
        // Sorted: drain order decides cross-channel dispatch interleaving.
        for (const SliceId from : sorted_keys(buffered)) {
          auto& events = buffered.at(from);
          ChannelIn& channel = in_[from];
          for (auto& [seq, payload] : events) {
            if (seq < channel.expected) {
              ++duplicates_dropped_;
              continue;
            }
            channel.pending.emplace(seq, std::move(payload));
          }
          deliver_in_order(from, channel);
        }

        auto ack = std::make_shared<ActivatedAck>();
        ack->migration = migration;
        ack->slice = id_;
        ack->frozen_at = frozen_at;
        ack->activated_at = host_.engine().simulator().now();
        ack->state_bytes = state_bytes;
        ack->transfer_bytes = transfer_bytes;
        host_.send_control(reply_to, std::move(ack), 64);
      });
}

void SliceRuntime::retire() {
  set_state(State::kRetired);
  if (flush_timer_) flush_timer_->stop();
  if (checkpoint_timer_) checkpoint_timer_->stop();
  in_.clear();
  replica_buffer_.clear();
  precopy_image_.clear();
  // Unflushed output dies with the slice; its sequence counters stay.
  out_.for_each([](SliceId, ChannelOut& out) { out.buffer.clear(); });
  out_buffer_events_ = 0;
  log_.clear();
  split_spec_.reset();
  absorb_spec_.reset();
  absorb_.reset();
  capture_submitted_ = false;
}

// ---- key-level split / merge -------------------------------------------------

void SliceRuntime::begin_split(SplitSpec spec) {
  if (state_ != State::kActive) {
    throw std::logic_error{"begin_split: slice not active"};
  }
  split_spec_ = std::move(spec);
  capture_submitted_ = false;
  for (const auto& [channel_id, cut] : split_spec_->cutover) {
    in_[channel_id].hold = cut;
  }
  check_transition_drain();
}

void SliceRuntime::begin_absorb(AbsorbSpec spec) {
  if (state_ != State::kActive) {
    throw std::logic_error{"begin_absorb: slice not active"};
  }
  absorb_spec_ = std::move(spec);
  capture_submitted_ = false;
  for (const auto& [channel_id, cut] : absorb_spec_->cutover) {
    in_[channel_id].hold = cut;
  }
  check_transition_drain();
}

void SliceRuntime::deliver_absorb_state(SliceSnapshot retiree) {
  absorb_ = std::move(retiree);
  check_transition_drain();
}

void SliceRuntime::preinstall_holds(
    const std::vector<std::pair<SliceId, SeqNo>>& holds) {
  for (const auto& [channel_id, cut] : holds) {
    in_[channel_id].hold = cut;
  }
}

void SliceRuntime::check_transition_drain() {
  if (capture_submitted_) return;
  if (!split_spec_ && !absorb_spec_) return;
  const auto& cutover =
      split_spec_ ? split_spec_->cutover : absorb_spec_->cutover;
  // Drained when every cut-over channel has dispatched its full pre-cut
  // prefix: expected == cut (holds stop delivery exactly there).
  for (const auto& [channel_id, cut] : cutover) {
    const ChannelIn* channel = in_.find(channel_id);
    const SeqNo expected = channel == nullptr ? SeqNo{1} : channel->expected;
    if (expected < cut) return;
  }
  if (absorb_spec_ && !absorb_) return;
  capture_submitted_ = true;
  if (split_spec_) {
    run_split_capture();
  } else {
    run_absorb();
  }
}

void SliceRuntime::run_split_capture() {
  const auto& cost_model = host_.engine().config().cost;
  // Serializing roughly half the store; the kWrite lock makes the capture
  // run after every in-flight pre-cut job, so the state it sees is exactly
  // the pre-cut-over prefix.
  const double cost =
      1000.0 + cost_model.state_serialize_units_per_byte *
                   static_cast<double>(handler_->state_bytes() / 2);
  host_.cpu().submit(id_, cluster::LockMode::kWrite, cost, [this] {
    if (state_ != State::kActive || !split_spec_) return;
    // Ship pre-capture emissions first: the child must not see matches the
    // parent produced for events it will never hold.
    flush_outputs();
    auto msg = std::make_shared<SplitStateMessage>();
    msg->transition = split_spec_->transition;
    msg->parent = id_;
    msg->child = split_spec_->child;
    BinaryWriter writer;
    msg->moved = handler_->split_state(split_spec_->child_cov, writer);
    msg->state = std::make_shared<const std::vector<std::byte>>(
        std::move(writer).take());
    ++coverage_epoch_;
    msg->coverage_epoch = coverage_epoch_;
    const std::size_t bytes = msg->state->size() + 64;
    host_.send_control(split_spec_->reply_to, std::move(msg), bytes);
    split_spec_.reset();
    capture_submitted_ = false;
    release_holds();
  });
}

void SliceRuntime::run_absorb() {
  const auto& cost_model = host_.engine().config().cost;
  const double cost =
      1000.0 + cost_model.state_deserialize_units_per_byte *
                   static_cast<double>(absorb_->state ? absorb_->state->size()
                                                      : 0);
  host_.cpu().submit(id_, cluster::LockMode::kWrite, cost, [this] {
    if (state_ != State::kActive || !absorb_spec_) return;
    flush_outputs();
    if (absorb_->state && !absorb_->state->empty()) {
      BinaryReader reader{*absorb_->state};
      handler_->absorb_state(reader);
    }
    // Adopt the retiree's backup log (and any logs it had itself adopted):
    // replay requests for its pre-merge output are served from here now.
    adopt_log(absorb_->log);
    ++coverage_epoch_;
    auto ack = std::make_shared<MergeAbsorbAck>();
    ack->transition = absorb_spec_->transition;
    ack->survivor = id_;
    ack->coverage_epoch = coverage_epoch_;
    host_.send_control(absorb_spec_->reply_to, std::move(ack), 64);
    absorb_spec_.reset();
    absorb_.reset();
    capture_submitted_ = false;
    release_holds();
  });
}

void SliceRuntime::release_holds() {
  // Ascending: release order decides cross-channel dispatch interleaving.
  in_.for_each([this](SliceId channel_id, ChannelIn& channel) {
    if (channel.hold == 0) return;
    channel.hold = 0;
    deliver_in_order(channel_id, channel);
  });
}

// ---- HostRuntime -------------------------------------------------------------

HostRuntime::HostRuntime(Engine& engine, cluster::Host& cpu)
    : engine_(engine), cpu_(cpu) {
  endpoint_ = engine_.network().new_endpoint();
  if (engine_.config().reliable_control) {
    channel_ = std::make_unique<net::ReliableChannel>(
        engine_.simulator(), engine_.network(), endpoint_, cpu_.id(),
        [this](const net::Delivery& d) { on_delivery(d); },
        engine_.config().reliable);
    channel_->on_give_up([this](net::Endpoint peer) {
      engine_.notify_control_give_up(peer);
    });
  } else {
    engine_.network().bind(endpoint_, cpu_.id(),
                           [this](const net::Delivery& d) { on_delivery(d); });
  }
}

HostRuntime::~HostRuntime() {
  probe_timer_.reset();
  channel_.reset();  // unbinds endpoint_ when reliable
  if (engine_.network().bound(endpoint_)) {
    engine_.network().unbind(endpoint_);
  }
}

void HostRuntime::add_slice(SliceId id, SliceRuntime::State initial_state) {
  if (slices_.contains(id)) {
    throw std::logic_error{"HostRuntime::add_slice: duplicate slice"};
  }
  const auto& cfg = engine_.static_config();
  const auto& info = cfg.info_of(id);
  auto handler = cfg.operators.at(info.op_index).factory(info.slice_index);
  slices_[id] =
      std::make_unique<SliceRuntime>(*this, id, std::move(handler), initial_state);
}

void HostRuntime::set_directory(
    const std::unordered_map<SliceId, SliceLocation>& dir) {
  directory_ = dir;
}

void HostRuntime::set_host_endpoint(HostId host, net::Endpoint endpoint) {
  host_endpoints_[host] = endpoint;
}

void HostRuntime::update_location(SliceId slice, SliceLocation location) {
  directory_[slice] = location;
}

bool HostRuntime::has_slice(SliceId id) const { return slices_.contains(id); }

SliceRuntime* HostRuntime::slice(SliceId id) {
  auto it = slices_.find(id);
  return it == slices_.end() ? nullptr : it->second.get();
}

std::vector<SliceId> HostRuntime::slice_ids() const {
  // Sorted: callers iterate this to retire/recover slices in order.
  return sorted_keys(slices_);
}

void HostRuntime::deliver_external(const WireEvent& event) {
  auto it = slices_.find(event.to);
  if (it == slices_.end()) {
    ++dropped_events_;
    return;
  }
  it->second->on_wire_event(event);
}

void HostRuntime::stage_events(SliceId dest, std::vector<WireEvent>& events) {
  const auto outbox_for = [this](HostId host) -> std::vector<WireEvent>& {
    auto it = std::lower_bound(
        outbox_.begin(), outbox_.end(), host,
        [](const auto& entry, HostId key) { return entry.first < key; });
    if (it == outbox_.end() || it->first != host) {
      it = outbox_.emplace(it, host, std::vector<WireEvent>{});
    }
    return it->second;
  };
  auto it = directory_.find(dest);
  if (it == directory_.end()) {
    dropped_events_ += events.size();
    events.clear();
    return;
  }
  const SliceLocation& loc = it->second;
  HostId receiver = loc.primary;
  if (loc.shadow.valid() && loc.shadow != loc.primary) {
    if (loc.redirect) {
      // Park mode (stop-and-restart): the shadow replaces the primary as
      // the only receiver, so the source drains to a natural freeze. Not
      // duplicate traffic — the primary send is skipped entirely.
      receiver = loc.shadow;
    } else {
      std::size_t dup_bytes = 0;
      for (const auto& ev : events) {
        dup_bytes += ev.payload->bytes() +
                     engine_.config().cost.event_header_bytes;
      }
      engine_.note_duplicate_bytes(dup_bytes);
      auto& shadow_list = outbox_for(loc.shadow);
      shadow_list.insert(shadow_list.end(), events.begin(), events.end());
    }
  }
  auto& list = outbox_for(receiver);
  list.insert(list.end(), std::make_move_iterator(events.begin()),
              std::make_move_iterator(events.end()));
  events.clear();
}

void HostRuntime::send_staged(std::size_t* bytes_accum) {
  const auto& cost = engine_.config().cost;
  // Ascending host order: send order serializes on this host's NIC.
  for (auto& [host, events] : outbox_) {
    if (events.empty()) continue;
    auto ep_it = host_endpoints_.find(host);
    if (ep_it == host_endpoints_.end()) {
      dropped_events_ += events.size();
      events.clear();
      continue;
    }
    std::size_t bytes = 0;
    for (const auto& ev : events) {
      bytes += ev.payload->bytes() + cost.event_header_bytes;
    }
    auto msg = std::make_shared<EventBatchMessage>();
    msg->events.assign(std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
    events.clear();
    if (bytes_accum != nullptr) *bytes_accum += bytes;
    engine_.network().send(endpoint_, ep_it->second, std::move(msg), bytes);
  }
}

void HostRuntime::send_to_host(HostId host, net::MessagePtr msg,
                               std::size_t bytes) {
  auto it = host_endpoints_.find(host);
  if (it == host_endpoints_.end()) {
    throw std::logic_error{"send_to_host: unknown host endpoint"};
  }
  send_control(it->second, std::move(msg), bytes);
}

void HostRuntime::send_control(net::Endpoint to, net::MessagePtr msg,
                               std::size_t bytes) {
  if (channel_) {
    channel_->send(to, std::move(msg), bytes);
  } else {
    engine_.network().send(endpoint_, to, std::move(msg), bytes);
  }
}

void HostRuntime::on_delivery(const net::Delivery& delivery) {
  if (const auto* batch =
          dynamic_cast<const EventBatchMessage*>(delivery.message.get())) {
    for (const WireEvent& event : batch->events) {
      auto it = slices_.find(event.to);
      if (it == slices_.end()) {
        ++dropped_events_;
        continue;
      }
      it->second->on_wire_event(event);
    }
    return;
  }
  handle_control(delivery);
}

void HostRuntime::handle_control(const net::Delivery& delivery) {
  const net::Message* msg = delivery.message.get();
  if (const auto* req = dynamic_cast<const CreateReplicaRequest*>(msg)) {
    handle_create_replica(*req);
  } else if (const auto* req =
                 dynamic_cast<const StartDuplicationRequest*>(msg)) {
    handle_start_duplication(*req);
  } else if (const auto* req = dynamic_cast<const FreezeRequest*>(msg)) {
    handle_freeze(*req);
  } else if (const auto* precopy = dynamic_cast<const PrecopyRequest*>(msg)) {
    handle_precopy(*precopy);
  } else if (const auto* pages =
                 dynamic_cast<const PrecopyStateMessage*>(msg)) {
    handle_precopy_state(*pages);
  } else if (const auto* transfer =
                 dynamic_cast<const StateTransferMessage*>(msg)) {
    handle_state_transfer(*transfer);
  } else if (const auto* update =
                 dynamic_cast<const DirectoryUpdateMessage*>(msg)) {
    handle_directory_update(*update);
  } else if (const auto* req = dynamic_cast<const TeardownRequest*>(msg)) {
    handle_teardown(*req);
  } else if (const auto* req =
                 dynamic_cast<const AbortMigrationRequest*>(msg)) {
    handle_abort_migration(*req);
  } else if (const auto* req = dynamic_cast<const AbortReplicaRequest*>(msg)) {
    handle_abort_replica(*req);
  } else if (const auto* absorb = dynamic_cast<const MergeAbsorbRequest*>(msg)) {
    SliceRuntime* survivor = slice(absorb->survivor);
    if (survivor == nullptr ||
        survivor->state() != SliceRuntime::State::kActive) {
      // The survivor died (or is mid-recovery); the coordinator re-drives
      // the absorb after its recovery completes.
      ESH_WARN << "HostRuntime: dropping absorb state without a survivor";
    } else {
      survivor->deliver_absorb_state(absorb->snapshot);
    }
  } else if (const auto* notice =
                 dynamic_cast<const CheckpointNoticeMessage*>(msg)) {
    // Upstream backup truncation: every local slice drops logged events
    // the checkpoint already covers, on its own channel and on any adopted
    // channel of a merged-away origin.
    // lint:allow(unordered-iteration): truncation is order-free
    for (auto& [slice_id, runtime] : slices_) {
      for (const auto& [upstream, watermark] : notice->processed) {
        runtime->truncate_log(upstream, notice->slice, watermark);
      }
    }
  } else if (const auto* restore =
                 dynamic_cast<const RestoreFromCheckpointMessage*>(msg)) {
    handle_restore(*restore);
  } else if (const auto* replay = dynamic_cast<const ReplayRequest*>(msg)) {
    // Sorted: replay send order serializes on this host's NIC.
    for (const SliceId slice_id : sorted_keys(slices_)) {
      slices_.at(slice_id)->replay_logs(replay->slice, replay->processed);
    }
  } else {
    ESH_WARN << "HostRuntime: unknown control message";
  }
}

void HostRuntime::handle_restore(const RestoreFromCheckpointMessage& msg) {
  if (!slices_.contains(msg.slice)) {
    add_slice(msg.slice, SliceRuntime::State::kInactiveReplica);
  }
  SliceRuntime* replica = slice(msg.slice);
  if (replica->state() != SliceRuntime::State::kInactiveReplica) {
    // A duplicate restore (e.g. a retried recovery whose first attempt
    // succeeded late) must not clobber the live instance.
    ESH_WARN << "HostRuntime: ignoring restore for non-replica slice";
    return;
  }
  // Recovery is a migration activation without a source: replayed events
  // arriving meanwhile buffer in the replica and dedup against the
  // checkpoint's watermarks. Pending split/merge cut-over holds go in before
  // the replica buffer drains, so replayed post-cut events stay queued until
  // the re-driven capture or absorb releases them.
  replica->preinstall_holds(msg.holds);
  replica->activate(msg.snapshot, MigrationId{}, engine_.simulator().now(),
                    msg.reply_to, 0);
}

void HostRuntime::handle_create_replica(const CreateReplicaRequest& req) {
  add_slice(req.slice, SliceRuntime::State::kInactiveReplica);
  SliceRuntime* replica = slice(req.slice);
  // Replica instantiation (runtime structures + filtering library init)
  // costs CPU before the replica can accept state.
  const double cost = replica->handler().replica_init_units();
  const MigrationId migration = req.migration;
  const net::Endpoint reply_to = req.reply_to;
  cpu_.submit(req.slice, cluster::LockMode::kWrite, cost,
              [this, migration, reply_to] {
                auto ack = std::make_shared<CreateReplicaAck>();
                ack->migration = migration;
                send_control(reply_to, std::move(ack), 64);
              });
}

void HostRuntime::handle_start_duplication(const StartDuplicationRequest& req) {
  auto it = directory_.find(req.slice);
  if (it == directory_.end()) {
    throw std::logic_error{"start_duplication: unknown slice"};
  }
  const auto& cfg = engine_.static_config();
  const auto& target_op = cfg.op_of(req.slice);
  if (req.redirect) {
    // Park mode: output seqs are assigned at emit time, so events sitting in
    // an upstream flush buffer carry pre-flip numbers but would ship to the
    // replica once the flip lands — and the parked source would wait for
    // them at its freeze point forever. Drain those buffers to the primary
    // before flipping; the captured catch-up point is then exact.
    for (const SliceId slice_id : sorted_keys(slices_)) {
      const auto& info = cfg.info_of(slice_id);
      const bool upstream = std::find(target_op.upstream_ops.begin(),
                                      target_op.upstream_ops.end(),
                                      info.op_index) !=
                            target_op.upstream_ops.end();
      if (upstream) slices_.at(slice_id)->flush_outputs();
    }
  }
  it->second.shadow = req.shadow_host;
  it->second.redirect = req.redirect;

  // Ack once per local upstream slice, carrying its channel's duplication
  // start point.
  // Sorted: ack send order serializes on this host's NIC.
  for (const SliceId slice_id : sorted_keys(slices_)) {
    const auto& info = cfg.info_of(slice_id);
    const bool upstream =
        std::find(target_op.upstream_ops.begin(), target_op.upstream_ops.end(),
                  info.op_index) != target_op.upstream_ops.end();
    if (!upstream) continue;
    auto ack = std::make_shared<StartDuplicationAck>();
    ack->migration = req.migration;
    ack->upstream_slice = slice_id;
    ack->next_seq = slices_.at(slice_id)->next_seq_for(req.slice);
    send_control(req.reply_to, std::move(ack), 64);
  }
}

void HostRuntime::handle_freeze(const FreezeRequest& req) {
  SliceRuntime* target = slice(req.slice);
  if (target == nullptr) {
    throw std::logic_error{"freeze: slice not on this host"};
  }
  SliceRuntime::FreezeSpec spec{req.migration, req.catchup, req.dst_host,
                                req.reply_to};
  spec.delta = req.delta;
  target->request_freeze(std::move(spec));
}

void HostRuntime::handle_precopy(const PrecopyRequest& req) {
  SliceRuntime* target = slice(req.slice);
  if (target == nullptr ||
      target->state() != SliceRuntime::State::kActive) {
    // The migration aborted (or the freeze raced ahead) while this round
    // was in flight; the coordinator's abort matrix owns the cleanup.
    ESH_WARN << "HostRuntime: dropping pre-copy round for inactive slice";
    return;
  }
  target->run_precopy(req.migration, req.round, req.dst_host, req.reply_to);
}

void HostRuntime::handle_precopy_state(const PrecopyStateMessage& msg) {
  SliceRuntime* replica = slice(msg.slice);
  if (replica == nullptr ||
      replica->state() != SliceRuntime::State::kInactiveReplica) {
    // Leftover of an aborted migration; without a replica there is nobody
    // to patch (and nobody expecting the ack).
    ESH_WARN << "HostRuntime: dropping pre-copy state without a replica";
    return;
  }
  replica->store_precopy(msg);
}

void HostRuntime::handle_state_transfer(const StateTransferMessage& msg) {
  SliceRuntime* replica = slice(msg.slice);
  if (replica == nullptr ||
      replica->state() != SliceRuntime::State::kInactiveReplica) {
    // Leftover of an aborted migration: the replica was torn down before
    // the (in-flight) state arrived. The slice recovers from checkpoint.
    ESH_WARN << "HostRuntime: dropping state transfer without a replica";
    return;
  }
  SliceSnapshot snapshot = msg.snapshot;
  std::size_t transfer_bytes = snapshot.state ? snapshot.state->size() : 0;
  if (msg.delta) {
    // Rebuild the full image from the pre-copy baseline plus the final
    // dirty pages; the restore then runs exactly as a full transfer's would
    // (byte-identical by diff_pages/apply_pages construction).
    snapshot.state = std::make_shared<const std::vector<std::byte>>(
        apply_pages(std::exchange(replica->precopy_image_, {}),
                    msg.full_bytes, msg.pages));
    transfer_bytes = total_bytes(msg.pages);
  }
  replica->activate(std::move(snapshot), msg.migration, msg.frozen_at,
                    msg.reply_to, transfer_bytes);
}

void HostRuntime::handle_directory_update(const DirectoryUpdateMessage& msg) {
  directory_[msg.slice] = SliceLocation{msg.host, HostId{}};
  if (!msg.migration.valid() && msg.reset_channels) {
    // Recovery of a multi-input slice: it will regenerate its post-cut
    // output with fresh (possibly re-interleaved) sequence numbers. Rewind
    // every local input channel from it to the restored output base so the
    // regenerated stream is accepted.
    // lint:allow(unordered-iteration): local channel rewinds, order-free
    for (auto& [slice_id, runtime] : slices_) {
      // Absent from out_bases: bootstrap recovery regenerates from scratch.
      runtime->reset_channel(msg.slice, seq_of(msg.out_bases, slice_id, 1));
    }
  }
  if (msg.reply_to.valid()) {
    auto ack = std::make_shared<DirectoryUpdateAck>();
    ack->migration = msg.migration;
    ack->from_host = host_id();
    send_control(msg.reply_to, std::move(ack), 64);
  }
}

void HostRuntime::handle_teardown(const TeardownRequest& req) {
  auto it = slices_.find(req.slice);
  if (it == slices_.end()) {
    throw std::logic_error{"teardown: slice not on this host"};
  }
  it->second->retire();
  if (cpu_.has_pending_work(req.slice)) {
    throw std::logic_error{"teardown: slice still has CPU work"};
  }
  cpu_.forget_slice(req.slice);
  last_slice_busy_us_.erase(req.slice);
  last_slice_net_bytes_.erase(req.slice);
  slices_.erase(it);
  auto ack = std::make_shared<TeardownAck>();
  ack->migration = req.migration;
  send_control(req.reply_to, std::move(ack), 64);
}

void HostRuntime::evict_slice(SliceId id) {
  auto it = slices_.find(id);
  if (it == slices_.end()) return;
  it->second->retire();
  if (!cpu_.has_pending_work(id)) {
    cpu_.forget_slice(id);
  }
  last_slice_busy_us_.erase(id);
  last_slice_net_bytes_.erase(id);
  // In-flight CPU jobs may still hold a pointer to the runtime; quarantine
  // it instead of destroying it.
  retired_slices_.push_back(std::move(it->second));
  slices_.erase(it);
}

void HostRuntime::handle_abort_migration(const AbortMigrationRequest& req) {
  SliceRuntime* target = slice(req.slice);
  bool resumed = false;
  bool thawed = false;
  if (target != nullptr) {
    resumed = target->unfreeze();
    if (!resumed && req.thaw_frozen &&
        target->state() == SliceRuntime::State::kFrozen) {
      // The frozen source is exact at its freeze watermark, so it resumes
      // in place; the coordinator replays the dropped suffix.
      target->thaw();
      resumed = true;
      thawed = true;
    }
    if (!resumed) {
      // Already frozen: every event since the freeze was dropped locally
      // (duplicated only to the now-dead replica), so the local copy is
      // stale. Evict it; the coordinator hands the slice to recovery.
      evict_slice(req.slice);
    }
  }
  auto ack = std::make_shared<AbortMigrationAck>();
  ack->migration = req.migration;
  ack->slice = req.slice;
  ack->resumed = resumed;
  ack->thawed = thawed;
  if (resumed && target != nullptr) {
    // Dispatch watermarks of the resumed slice: a stop-and-restart abort
    // replays the redirected suffix (lost with the dead replica) from the
    // upstream-backup logs above exactly these marks. Sorted: the ack's
    // contents must not depend on hash-table layout.
    ack->processed = target->watermarks();
  }
  send_control(req.reply_to, std::move(ack), 64);
}

void HostRuntime::handle_abort_replica(const AbortReplicaRequest& req) {
  SliceRuntime* replica = slice(req.slice);
  const bool was_active =
      replica != nullptr && replica->state() == SliceRuntime::State::kActive;
  if (replica != nullptr && !was_active) {
    evict_slice(req.slice);
  }
  auto ack = std::make_shared<AbortReplicaAck>();
  ack->migration = req.migration;
  ack->slice = req.slice;
  ack->was_active = was_active;
  send_control(req.reply_to, std::move(ack), 64);
}

cluster::HostProbe HostRuntime::collect_probe(SimDuration window) {
  cluster::HostProbe probe;
  probe.host = host_id();
  probe.window_start = last_probe_time_;
  probe.window_end = engine_.simulator().now();
  probe.cpu = cpu_.utilization(last_host_busy_us_, window);
  last_host_busy_us_ = cpu_.busy_core_us_now();
  const double capacity = static_cast<double>(cpu_.spec().cores) *
                          static_cast<double>(window.count());
  const auto& cfg = engine_.static_config();
  // Sorted: the probe's slice vector feeds the enforcer's placement math.
  for (const SliceId id : sorted_keys(slices_)) {
    const auto& runtime = slices_.at(id);
    cluster::SliceProbe sp;
    sp.slice = id;
    sp.op = cfg.operators.at(cfg.info_of(id).op_index).id;
    const double busy = cpu_.slice_busy_core_us_now(id);
    sp.cpu = (busy - last_slice_busy_us_[id]) / capacity;
    last_slice_busy_us_[id] = busy;
    sp.state_bytes = runtime->handler().state_bytes();
    const std::size_t net_now = runtime->net_bytes_sent();
    // Per-slice NIC counters only grow; a shrink means the probe window
    // accounting went backwards.
    ESH_INVARIANT("engine", "probe-counters-monotonic",
                  net_now >= last_slice_net_bytes_[id],
                  ::esh::contracts::Detail{}
                      .slice(id)
                      .host(host_id())
                      .expected(last_slice_net_bytes_[id])
                      .actual(net_now));
    sp.net_bytes = net_now - last_slice_net_bytes_[id];
    last_slice_net_bytes_[id] = net_now;
    probe.slices.push_back(sp);
  }
  last_probe_time_ = probe.window_end;
  return probe;
}

void HostRuntime::enable_probes(net::Endpoint target, SimDuration interval) {
  probe_target_ = target;
  last_probe_time_ = engine_.simulator().now();
  last_host_busy_us_ = cpu_.busy_core_us_now();
  probe_timer_ = std::make_unique<sim::PeriodicTimer>(
      engine_.simulator(), interval, [this, interval] {
        auto msg = std::make_shared<ProbeMessage>();
        msg->probe = collect_probe(interval);
        const std::size_t bytes = 64 + 32 * msg->probe.slices.size();
        // Probes deliberately bypass the reliable channel: a retransmitted
        // heartbeat would mask exactly the silence (and the latency) the
        // failure detector exists to observe.
        engine_.network().send(endpoint_, probe_target_, std::move(msg),
                               bytes);
      });
}

void HostRuntime::disable_probes() { probe_timer_.reset(); }

}  // namespace esh::engine
