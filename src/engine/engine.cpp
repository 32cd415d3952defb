#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/protocol_spec.hpp"
#include "common/det.hpp"
#include "common/log.hpp"

namespace esh::engine {

const char* to_string(MigrationOutcome outcome) {
  switch (outcome) {
    case MigrationOutcome::kCompleted: return "completed";
    case MigrationOutcome::kRejected: return "rejected";
    case MigrationOutcome::kAbortedSrcFailed: return "aborted-src-failed";
    case MigrationOutcome::kAbortedDstFailed: return "aborted-dst-failed";
  }
  return "unknown";
}

const char* to_string(MigrationStep step) {
  switch (step) {
    case MigrationStep::kCreateReplica: return "create-replica";
    case MigrationStep::kDuplication: return "duplication";
    case MigrationStep::kTransfer: return "transfer";
    case MigrationStep::kDirectoryUpdate: return "directory-update";
    case MigrationStep::kTeardown: return "teardown";
    case MigrationStep::kAborting: return "aborting";
    case MigrationStep::kPark: return "park";
    case MigrationStep::kPrecopy: return "precopy";
  }
  return "unknown";
}

bool migration_transition_legal(MigrationStep from, MigrationStep to) {
  // Edge list (and the why of each edge) lives in the declarative table in
  // src/analysis/protocol_spec.cpp — the same table the model checker and
  // docs/SPEC_CATALOG.md are built from.
  return analysis::migration_spec().legal(static_cast<std::size_t>(from),
                                          static_cast<std::size_t>(to));
}

void assert_migration_transition([[maybe_unused]] MigrationId id,
                                 [[maybe_unused]] SliceId slice,
                                 [[maybe_unused]] MigrationStep from,
                                 [[maybe_unused]] MigrationStep to) {
  ESH_STATE_MACHINE_ASSERT(
      "engine", "migration-step-legal", migration_transition_legal(from, to),
      ::esh::contracts::Detail{}
          .slice(slice)
          .transition(to_string(from), to_string(to))
          .note("migration " + std::to_string(id.value())));
}

void assert_migration_transition([[maybe_unused]] const MigrationStrategy&
                                     strategy,
                                 [[maybe_unused]] MigrationId id,
                                 [[maybe_unused]] SliceId slice,
                                 [[maybe_unused]] MigrationStep from,
                                 [[maybe_unused]] MigrationStep to) {
#if ESH_INVARIANTS_ENABLED
  // Each strategy checks the shared-enum transition against its own spec
  // table; spec_index maps to the table's state order and sends steps a
  // strategy never uses out of range, which legal() rejects.
  const bool legal =
      strategy.spec().legal(strategy.spec_index(from), strategy.spec_index(to));
  const auto detail = ::esh::contracts::Detail{}
                          .slice(slice)
                          .transition(to_string(from), to_string(to))
                          .note("migration " + std::to_string(id.value()) +
                                " via " + std::string{strategy.name()});
  // One literal assert site per strategy so each spec table's invariant name
  // is greppable back to the code that enforces it.
  switch (strategy.kind()) {
    case MigrationStrategyKind::kBufferedReplay:
      ESH_STATE_MACHINE_ASSERT("engine", "migration-step-legal", legal,
                               detail);
      return;
    case MigrationStrategyKind::kStopAndRestart:
      ESH_STATE_MACHINE_ASSERT("engine", "stop-restart-step-legal", legal,
                               detail);
      return;
    case MigrationStrategyKind::kIncrementalPrecopy:
      ESH_STATE_MACHINE_ASSERT("engine", "precopy-step-legal", legal, detail);
      return;
  }
#endif
}

const char* to_string(ElasticKind kind) {
  switch (kind) {
    case ElasticKind::kMigrate: return "migrate";
    case ElasticKind::kSplit: return "split";
    case ElasticKind::kMerge: return "merge";
  }
  return "unknown";
}

const char* to_string(SplitStep step) {
  switch (step) {
    case SplitStep::kCreateChild: return "create-child";
    case SplitStep::kCutOver: return "cut-over";
    case SplitStep::kDrain: return "drain";
    case SplitStep::kActivate: return "activate";
    case SplitStep::kAborting: return "aborting";
  }
  return "unknown";
}

const char* to_string(MergeStep step) {
  switch (step) {
    case MergeStep::kCutOver: return "cut-over";
    case MergeStep::kDrainRetiree: return "drain-retiree";
    case MergeStep::kAbsorb: return "absorb";
    case MergeStep::kTeardown: return "teardown";
  }
  return "unknown";
}

bool split_transition_legal(SplitStep from, SplitStep to) {
  return analysis::split_spec().legal(static_cast<std::size_t>(from),
                                      static_cast<std::size_t>(to));
}

bool merge_transition_legal(MergeStep from, MergeStep to) {
  return analysis::merge_spec().legal(static_cast<std::size_t>(from),
                                      static_cast<std::size_t>(to));
}

void assert_split_transition([[maybe_unused]] MigrationId id,
                             [[maybe_unused]] SliceId slice,
                             [[maybe_unused]] SplitStep from,
                             [[maybe_unused]] SplitStep to) {
  ESH_STATE_MACHINE_ASSERT(
      "engine", "split-step-legal", split_transition_legal(from, to),
      ::esh::contracts::Detail{}
          .slice(slice)
          .transition(to_string(from), to_string(to))
          .note("transition " + std::to_string(id.value())));
}

void assert_merge_transition([[maybe_unused]] MigrationId id,
                             [[maybe_unused]] SliceId slice,
                             [[maybe_unused]] MergeStep from,
                             [[maybe_unused]] MergeStep to) {
  ESH_STATE_MACHINE_ASSERT(
      "engine", "merge-step-legal", merge_transition_legal(from, to),
      ::esh::contracts::Detail{}
          .slice(slice)
          .transition(to_string(from), to_string(to))
          .note("transition " + std::to_string(id.value())));
}

Engine::Engine(sim::Simulator& simulator, net::Network& network,
               HostId manager_host, EngineConfig config, std::uint64_t seed)
    : simulator_(simulator),
      network_(network),
      config_(config),
      rng_(seed),
      manager_host_(manager_host) {
  // precopy_spec has no duplication -> transfer edge: a pre-copy migration
  // runs at least one round.
  if (config_.precopy_rounds == 0) {
    throw std::invalid_argument{"Engine: precopy_rounds must be at least 1"};
  }
  seed_ = seed;
  control_endpoint_ = network_.new_endpoint();
  if (config_.reliable_control) {
    control_channel_ = std::make_unique<net::ReliableChannel>(
        simulator_, network_, control_endpoint_, manager_host_,
        [this](const net::Delivery& d) { on_control(d); }, config_.reliable);
    control_channel_->on_give_up(
        [this](net::Endpoint peer) { notify_control_give_up(peer); });
  } else {
    network_.bind(control_endpoint_, manager_host_,
                  [this](const net::Delivery& d) { on_control(d); });
  }
}

Engine::~Engine() {
  host_runtimes_.clear();
  control_channel_.reset();  // unbinds the control endpoint when reliable
  if (network_.bound(control_endpoint_)) {
    network_.unbind(control_endpoint_);
  }
}

void Engine::add_host(cluster::Host& host) {
  const HostId id = host.id();
  if (host_runtimes_.contains(id)) {
    throw std::logic_error{"Engine::add_host: host already added"};
  }
  auto runtime = std::make_unique<HostRuntime>(*this, host);
  // Configuration distribution: the new host learns every peer endpoint and
  // the current directory; peers learn the new host.
  // lint:allow(unordered-iteration): local endpoint-table writes, order-free
  for (auto& [other_id, other] : host_runtimes_) {
    other->set_host_endpoint(id, runtime->endpoint());
    runtime->set_host_endpoint(other_id, other->endpoint());
  }
  runtime->set_host_endpoint(id, runtime->endpoint());
  runtime->set_directory(directory_);
  if (probe_target_) {
    runtime->enable_probes(*probe_target_, config_.probe_interval);
  }
  control_peers_[runtime->endpoint()] = id;
  host_runtimes_[id] = std::move(runtime);
}

void Engine::remove_host(HostId host) {
  auto it = host_runtimes_.find(host);
  if (it == host_runtimes_.end()) {
    throw std::logic_error{"Engine::remove_host: unknown host"};
  }
  if (it->second->slice_count() != 0) {
    throw std::logic_error{"Engine::remove_host: host still holds slices"};
  }
  host_runtimes_.erase(it);
}

bool Engine::has_host(HostId host) const {
  return host_runtimes_.contains(host);
}

std::vector<HostId> Engine::hosts() const {
  // Sorted: callers (placement, recovery orchestration) branch on this
  // order, so it must not depend on hash-table layout.
  return sorted_keys(host_runtimes_);
}

void Engine::deploy(
    const Topology& topology,
    const std::unordered_map<std::string, std::vector<HostId>>& placement) {
  if (deployed_) {
    throw std::logic_error{"Engine::deploy: already deployed"};
  }
  auto cfg = std::make_shared<StaticConfig>();
  for (std::uint32_t i = 0; i < topology.operators.size(); ++i) {
    const OperatorSpec& spec = topology.operators[i];
    if (spec.slices == 0 || !spec.factory) {
      throw std::invalid_argument{"deploy: operator needs slices and factory"};
    }
    if (cfg->op_by_name.contains(spec.name)) {
      throw std::invalid_argument{"deploy: duplicate operator name"};
    }
    StaticConfig::OperatorInfo info;
    info.id = OperatorId{i};
    info.name = spec.name;
    info.factory = spec.factory;
    for (std::uint32_t s = 0; s < spec.slices; ++s) {
      const SliceId slice{next_slice_++};
      info.slices.push_back(slice);
      info.fan.push_back(s);
      // Deploy-time coverage is plain modulo: slice s covers key % N == s.
      info.coverages.push_back(
          KeyCoverage{static_cast<std::uint32_t>(spec.slices), s, 0, 0});
      cfg->slice_infos[slice] = StaticConfig::SliceInfo{i, s};
    }
    info.coverage_base = static_cast<std::uint32_t>(spec.slices);
    cfg->op_by_name[spec.name] = i;
    cfg->operators.push_back(std::move(info));
  }
  for (const DagEdge& edge : topology.edges) {
    const auto from = cfg->op_by_name.find(edge.from);
    const auto to = cfg->op_by_name.find(edge.to);
    if (from == cfg->op_by_name.end() || to == cfg->op_by_name.end()) {
      throw std::invalid_argument{"deploy: edge references unknown operator"};
    }
    cfg->operators[to->second].upstream_ops.push_back(from->second);
  }

  // Resolve and validate the whole placement before mutating any engine
  // state: a failed deploy leaves the engine untouched and retryable.
  std::unordered_map<SliceId, SliceLocation> resolved;
  for (const auto& op : cfg->operators) {
    auto it = placement.find(op.name);
    if (it == placement.end() || it->second.size() != op.slices.size()) {
      throw std::invalid_argument{
          "deploy: placement must give one host per slice of every operator"};
    }
    for (std::size_t s = 0; s < op.slices.size(); ++s) {
      const HostId host = it->second[s];
      if (!host_runtimes_.contains(host)) {
        throw std::invalid_argument{"deploy: placement host not added"};
      }
      resolved[op.slices[s]] = SliceLocation{host, HostId{}};
    }
  }

  // Commit. mutable_static_ aliases the same object: split/merge cut-overs
  // refine it in place (atomically within one simulator callback).
  mutable_static_ = std::move(cfg);
  static_ = mutable_static_;
  directory_ = std::move(resolved);
  // lint:allow(unordered-iteration): local directory writes, order-free
  for (auto& [id, runtime] : host_runtimes_) {
    runtime->set_directory(directory_);
  }
  // Sorted: arming order no longer matters for timer phasing (each slice's
  // timers carry a seed-derived phase), but keeping it deterministic by
  // construction costs nothing.
  for (const SliceId slice : sorted_keys(directory_)) {
    host_runtimes_.at(directory_.at(slice).primary)
        ->add_slice(slice, SliceRuntime::State::kActive);
  }
  deployed_ = true;
}

void Engine::inject(std::string_view op, std::size_t slice_index,
                    PayloadPtr payload) {
  const SliceId slice = slice_id(op, slice_index);
  const SliceLocation& loc = directory_.at(slice);
  // External pushes ride a sequence-numbered virtual channel, duplicated to
  // the shadow during migration exactly like slice-to-slice traffic.
  auto [it, inserted] = next_inject_seq_.try_emplace(slice, 1);
  WireEvent event{kExternalChannel, slice, it->second++, std::move(payload)};
  if (config_.checkpoints.enabled) {
    inject_log_[slice].push_back(event);
  }
  if (loc.redirect && loc.shadow.valid() && loc.shadow != loc.primary) {
    // Park mode (stop-and-restart): the replica is the only receiver; the
    // primary drains what it already holds and freezes.
    host_runtimes_.at(loc.shadow)->deliver_external(event);
    return;
  }
  host_runtimes_.at(loc.primary)->deliver_external(event);
  if (loc.shadow.valid() && loc.shadow != loc.primary) {
    note_duplicate_bytes(event.payload->bytes() +
                         config_.cost.event_header_bytes);
    host_runtimes_.at(loc.shadow)->deliver_external(event);
  }
}

std::vector<SliceId> Engine::fail_host(HostId host) {
  if (!config_.checkpoints.enabled) {
    throw std::logic_error{"fail_host requires checkpoints to be enabled"};
  }
  auto it = host_runtimes_.find(host);
  if (it == host_runtimes_.end()) {
    throw std::invalid_argument{"fail_host: unknown host"};
  }
  std::vector<SliceId> lost;
  for (SliceId slice : it->second->slice_ids()) {
    it->second->slice(slice)->retire();  // pending CPU jobs die harmlessly
    // Only slices the directory still places here are lost: a mid-migration
    // replica (primary elsewhere) dies without losing anything.
    const auto loc = directory_.find(slice);
    if (loc != directory_.end() && loc->second.primary == host) {
      // A split child mid-split is owned by the coordinator
      // (handle_host_failure re-drives it onto a replacement host); keep it
      // out of the generic recovery sweep so it is not restored twice.
      if (current_ && current_->report.kind == ElasticKind::kSplit &&
          slice == current_->report.other) {
        continue;
      }
      lost.push_back(slice);
    }
  }
  it->second->disable_probes();
  // Tear down the dead host's reliable channel first: otherwise its
  // retransmission timers keep firing post-quarantine and eventually report
  // LIVE peers unreachable from the corpse's point of view.
  it->second->shutdown_control_channel();
  if (network_.bound(it->second->endpoint())) {
    network_.unbind(it->second->endpoint());  // in-flight messages drop
  }
  // Drop the coordinator's own unacked traffic toward the corpse: its
  // endpoint is gone, so every retry is wasted simulated bandwidth (and a
  // redundant give-up escalation later).
  if (control_channel_) control_channel_->forget_peer(it->second->endpoint());
  // Quarantine the runtime: CPU-job callbacks may still reference it.
  failed_runtimes_.push_back(std::move(it->second));
  host_runtimes_.erase(it);
  std::sort(lost.begin(), lost.end());
  // Record regenerated-stream bases for every lost multi-input slice NOW,
  // before any restore message is built: a consumer co-recovering in the
  // same sweep must see the clamp in its restore watermarks, and the order
  // in which the manager issues recover_slice calls is placement-driven.
  for (const SliceId slice : lost) register_recovery_rebases(slice);
  // Unwedge the in-flight elastic operation if the dead host participated
  // in it.
  handle_host_failure(host);
  return lost;
}

bool Engine::slice_lost(SliceId slice) const {
  const auto it = directory_.find(slice);
  if (it == directory_.end()) return false;
  const auto host_it = host_runtimes_.find(it->second.primary);
  return host_it == host_runtimes_.end() ||
         !host_it->second->has_slice(slice);
}

void Engine::recover_slice(SliceId slice, HostId dst,
                           std::function<void()> done) {
  if (!directory_.contains(slice)) {
    throw std::invalid_argument{"recover_slice: unknown slice"};
  }
  if (!host_runtimes_.contains(dst)) {
    throw std::invalid_argument{"recover_slice: unknown destination host"};
  }
  recoveries_[slice] = std::move(done);
  directory_[slice] = SliceLocation{dst, HostId{}};
  auto msg = std::make_shared<RestoreFromCheckpointMessage>();
  msg->slice = slice;
  msg->reply_to = control_endpoint_;
  std::size_t bytes = 96;
  if (auto cp = checkpoints_.find(slice); cp != checkpoints_.end()) {
    msg->snapshot = cp->second;
    bytes = msg->snapshot.bytes();
  }
  // Mid-split/merge recovery: install the cut-over holds before the replica
  // drains, so replayed post-cut events stay queued until the re-driven
  // capture or absorb releases them (see RollForward).
  if (auto pending = rollforward_.find(slice); pending != rollforward_.end()) {
    msg->holds = pending->second.cutover;
  }
  // Co-recovery with a regenerated upstream: restored channel watermarks
  // still counting the old stream rewind to the regenerated base, so the
  // replayed suffix is accepted instead of deduplicated (see
  // recovery_rebases_).
  msg->snapshot.processed =
      clamp_to_rebases(slice, std::move(msg->snapshot.processed));
  // No checkpoint: bootstrap restore with null state and zero watermarks.
  // The retained logs are complete precisely because no checkpoint ever
  // truncated them, so the full replay rebuilds the state from scratch.
  send_control(dst, std::move(msg), bytes);
}

SliceId Engine::slice_id(std::string_view op, std::size_t slice_index) const {
  if (!static_) {
    throw std::logic_error{"Engine: not deployed yet"};
  }
  // Scan by slice_index rather than position: merges erase entries from
  // `slices`, so positions shift while indices stay stable.
  const auto& info = static_->operators.at(static_->index_of(op));
  for (const SliceId slice : info.slices) {
    if (static_->info_of(slice).slice_index == slice_index) return slice;
  }
  throw std::out_of_range{"slice_id: no slice with that index"};
}

KeyCoverage Engine::slice_coverage(SliceId slice) const {
  const auto& op = static_->op_of(slice);
  for (std::size_t i = 0; i < op.slices.size(); ++i) {
    if (op.slices[i] == slice) return op.coverages.at(i);
  }
  throw std::invalid_argument{"slice_coverage: slice not routed"};
}

StaticConfig::OperatorInfo& Engine::mutable_op_of(SliceId slice) {
  return mutable_static_->operators.at(static_->info_of(slice).op_index);
}

HostId Engine::slice_host(SliceId slice) const {
  auto it = directory_.find(slice);
  if (it == directory_.end()) {
    throw std::logic_error{"slice_host: unknown slice"};
  }
  return it->second.primary;
}

std::vector<SliceId> Engine::slices_on(HostId host) const {
  std::vector<SliceId> out;
  // lint:allow(unordered-iteration): result is sorted below
  for (const auto& [slice, loc] : directory_) {
    if (loc.primary == host) out.push_back(slice);
  }
  std::sort(out.begin(), out.end());
  return out;
}

SliceRuntime* Engine::slice_runtime(SliceId slice) {
  auto it = directory_.find(slice);
  if (it == directory_.end()) return nullptr;
  auto host_it = host_runtimes_.find(it->second.primary);
  if (host_it == host_runtimes_.end()) return nullptr;
  return host_it->second->slice(slice);
}

void Engine::enable_probes(net::Endpoint target) {
  probe_target_ = target;
  // Sorted: probe-timer scheduling order decides same-tick probe ties.
  for (const HostId id : sorted_keys(host_runtimes_)) {
    host_runtimes_.at(id)->enable_probes(target, config_.probe_interval);
  }
}

// ---- elastic-operation coordination -----------------------------------------

namespace {

// requested <= frozen <= activated <= cutover <= finished, skipping every
// phase the operation never reached (its stamp stays zero): a migration
// aborted before its ActivatedAck has no frozen/activated, a split or
// merge has none at all and no cutover if it ended before the flip.
[[maybe_unused]] bool report_ordered(const ElasticReport& r) {
  SimTime last = r.requested;
  for (const SimTime phase : {r.frozen, r.activated, r.cutover, r.finished}) {
    if (phase == SimTime{}) continue;
    if (phase < last) return false;
    last = phase;
  }
  return r.finished >= r.requested;
}

// A coordinator request {operation id, slice, reply-to} of type `Req`.
template <typename Req>
std::shared_ptr<Req> op_request(MigrationId id, SliceId slice,
                                net::Endpoint reply_to) {
  auto req = std::make_shared<Req>();
  req->migration = id;
  req->slice = slice;
  req->reply_to = reply_to;
  return req;
}

}  // namespace

const char* Engine::ElasticOp::step_name() const {
  switch (report.kind) {
    case ElasticKind::kMigrate: return to_string(step);
    case ElasticKind::kSplit: return to_string(split_step);
    case ElasticKind::kMerge: return to_string(merge_step);
  }
  return "unknown";
}

bool Engine::ElasticOp::aborting() const {
  switch (report.kind) {
    case ElasticKind::kMigrate: return step == MigrationStep::kAborting;
    case ElasticKind::kSplit: return split_step == SplitStep::kAborting;
    case ElasticKind::kMerge: return false;  // merges never abort
  }
  return false;
}

void Engine::migrate(SliceId slice, HostId dst, ElasticCallback callback) {
  migrate(slice, dst, MigrationStrategyKind::kBufferedReplay,
          std::move(callback));
}

void Engine::migrate(SliceId slice, HostId dst, MigrationStrategyKind strategy,
                     ElasticCallback callback) {
  ElasticOp op;
  op.strategy = &strategy_for(strategy);
  op.report.strategy = op.strategy->name();
  op.report.id = MigrationId{next_migration_++};
  op.report.slice = slice;
  op.report.dst = dst;
  op.report.requested = simulator_.now();
  op.callback = std::move(callback);
  const auto dir_it = directory_.find(slice);
  if (dir_it == directory_.end() || !host_runtimes_.contains(dst)) {
    // Invalid request: reject through the callback so callers learn the
    // outcome the same way they learn any other.
    conclude(std::move(op), MigrationOutcome::kRejected);
    return;
  }
  op.report.src = dir_it->second.primary;
  if (op.report.src == dst) {
    // Degenerate migration: report immediately.
    op.report.frozen = op.report.activated = simulator_.now();
    conclude(std::move(op), MigrationOutcome::kCompleted);
    return;
  }
  queue_.push_back(std::move(op));
  start_next(Family::kMigrations);
}

void Engine::split_slice(SliceId parent, HostId dst, ElasticCallback callback) {
  ElasticOp op;
  op.report.id = MigrationId{next_migration_++};
  op.report.kind = ElasticKind::kSplit;
  op.report.slice = parent;
  op.report.dst = dst;
  op.report.requested = simulator_.now();
  op.callback = std::move(callback);
  queue_.push_back(std::move(op));
  start_next(Family::kTransitions);
}

void Engine::merge_slices(SliceId survivor, SliceId retiree,
                          ElasticCallback callback) {
  ElasticOp op;
  op.report.id = MigrationId{next_migration_++};
  op.report.kind = ElasticKind::kMerge;
  op.report.slice = survivor;
  op.report.other = retiree;
  op.report.requested = simulator_.now();
  op.callback = std::move(callback);
  queue_.push_back(std::move(op));
  start_next(Family::kTransitions);
}

void Engine::start_next(Family family) {
  const auto is_migration = [](const ElasticOp& op) {
    return op.report.kind == ElasticKind::kMigrate;
  };
  while (!current_) {
    auto it = queue_.end();
    if (family != Family::kTransitions) {
      it = std::find_if(queue_.begin(), queue_.end(), is_migration);
    }
    if (it == queue_.end() && family != Family::kMigrations) {
      it = std::find_if_not(queue_.begin(), queue_.end(), is_migration);
    }
    if (it == queue_.end()) return;
    ElasticOp op = std::move(*it);
    queue_.erase(it);
    switch (admit(op)) {
      case Admission::kDefer:
        queue_.push_front(std::move(op));
        return;
      case Admission::kReject:
        conclude(std::move(op), MigrationOutcome::kRejected);
        continue;
      case Admission::kNoop:
        op.report.frozen = op.report.activated = simulator_.now();
        conclude(std::move(op), MigrationOutcome::kCompleted);
        continue;
      case Admission::kStart:
        break;
    }
    current_ = std::move(op);
    // Each begin fires the step hook last; the hook may fail hosts, ending
    // this operation re-entrantly (the loop re-checks current_).
    switch (current_->report.kind) {
      case ElasticKind::kMigrate: begin_migration(); break;
      case ElasticKind::kSplit: begin_split(); break;
      case ElasticKind::kMerge: begin_merge(); break;
    }
  }
}

Engine::Admission Engine::admit(ElasticOp& op) {
  // Coverage of a slice under the CURRENT routing, or nullptr when the
  // slice is not routed (merged away / never deployed).
  const auto coverage_of = [this](SliceId slice) -> const KeyCoverage* {
    if (!static_ || !static_->slice_infos.contains(slice)) return nullptr;
    const auto& info = static_->op_of(slice);
    for (std::size_t i = 0; i < info.slices.size(); ++i) {
      if (info.slices[i] == slice) return &info.coverages[i];
    }
    return nullptr;
  };
  ElasticReport& r = op.report;
  switch (r.kind) {
    case ElasticKind::kMigrate: {
      // The slice may have moved or been lost to a crash, or the
      // destination host may have died.
      const auto dir_it = directory_.find(r.slice);
      const HostId src =
          dir_it == directory_.end() ? HostId{} : dir_it->second.primary;
      const auto src_it = host_runtimes_.find(src);
      if (src_it == host_runtimes_.end() ||
          !src_it->second->has_slice(r.slice) ||
          !host_runtimes_.contains(r.dst)) {
        return Admission::kReject;
      }
      r.src = src;
      return src == r.dst ? Admission::kNoop : Admission::kStart;
    }
    case ElasticKind::kSplit: {
      SliceRuntime* parent = slice_runtime(r.slice);
      const KeyCoverage* cov = coverage_of(r.slice);
      if (parent == nullptr || cov == nullptr ||
          !host_runtimes_.contains(r.dst) ||
          !parent->handler().supports_split() || cov->depth >= 62) {
        return Admission::kReject;
      }
      if (rollforward_.contains(r.slice)) {
        // An earlier capture on this slice is not yet proven durable, and
        // re-driving two stacked captures after a crash is unsupported.
        // Force the durability boundary and retry when it lands.
        parent->checkpoint(control_endpoint_);
        return Admission::kDefer;
      }
      return Admission::kStart;
    }
    case ElasticKind::kMerge: {
      SliceRuntime* survivor = slice_runtime(r.slice);
      SliceRuntime* retiree = slice_runtime(r.other);
      const KeyCoverage* surv_cov = coverage_of(r.slice);
      const KeyCoverage* ret_cov = coverage_of(r.other);
      if (survivor == nullptr || retiree == nullptr || surv_cov == nullptr ||
          ret_cov == nullptr || r.slice == r.other ||
          !survivor->handler().supports_split() ||
          !surv_cov->sibling_of(*ret_cov)) {
        return Admission::kReject;
      }
      if (rollforward_.contains(r.slice) || rollforward_.contains(r.other)) {
        survivor->checkpoint(control_endpoint_);
        retiree->checkpoint(control_endpoint_);
        return Admission::kDefer;
      }
      return Admission::kStart;
    }
  }
  return Admission::kReject;
}

void Engine::finish(MigrationOutcome outcome) {
  ElasticOp op = std::move(*current_);
  current_.reset();
  if (op.report.kind == ElasticKind::kMigrate) {
    // Operations are serialized, so every duplicate byte since the
    // snapshot belongs to this move.
    op.report.duplicate_bytes = duplicate_bytes_total_ - op.dup_bytes_base;
  }
  conclude(std::move(op), outcome);
  start_next();
}

void Engine::conclude(ElasticOp op, MigrationOutcome outcome) {
  ElasticReport& r = op.report;
  r.outcome = outcome;
  r.finished = simulator_.now();
  ESH_INVARIANT("engine", "migration-report-ordered", report_ordered(r),
                ::esh::contracts::Detail{}
                    .slice(r.slice)
                    .expected("requested <= frozen <= activated <= cutover "
                              "<= finished (unreached phases zero)")
                    .actual(std::to_string(r.requested.count()) + "/" +
                            std::to_string(r.frozen.count()) + "/" +
                            std::to_string(r.activated.count()) + "/" +
                            std::to_string(r.cutover.count()) + "/" +
                            std::to_string(r.finished.count()))
                    .note(std::string{to_string(r.kind)} + " " +
                          std::to_string(r.id.value())));
  if (outcome == MigrationOutcome::kCompleted) {
    if (r.kind == ElasticKind::kSplit) ++splits_completed_;
    if (r.kind == ElasticKind::kMerge) ++merges_completed_;
  }
  if (op.callback) op.callback(r);
}

bool Engine::fire_step() {
  if (!current_) return false;
  if (!step_hook_) return true;
  // The hook may fail hosts (the crash-at-every-step torture tests do
  // exactly that), which can abort or finish the operation re-entrantly;
  // tell the caller whether the one it was driving is still current.
  const MigrationId id = current_->report.id;
  step_hook_(current_->report, current_->step_name());
  return current_ && current_->report.id == id;
}

bool Engine::op_live(MigrationId id) const {
  return current_ && current_->report.id == id && !current_->aborting();
}

// ---- migration --------------------------------------------------------------

void Engine::begin_migration() {
  current_->dup_bytes_base = duplicate_bytes_total_;
  op_step([this] {
    const ElasticReport& r = current_->report;
    send_control(r.dst, op_request<CreateReplicaRequest>(r.id, r.slice,
                                                         control_endpoint_));
  });
  fire_step();
}

void Engine::advance_after_duplication() {
  ElasticOp& op = *current_;
  if (op.strategy->precopy()) {
    op.set_step(MigrationStep::kPrecopy);
    start_precopy_round();
  } else {
    op.set_step(MigrationStep::kTransfer);
    op_step([this] { send_freeze(); });
    fire_step();
  }
}

void Engine::start_precopy_round() {
  ElasticOp& op = *current_;
  ++op.round;
  ESH_INVARIANT("engine", "precopy-rounds-bounded",
                op.round <= op.strategy->precopy_rounds(config_),
                ::esh::contracts::Detail{}
                    .slice(op.report.slice)
                    .expected("round <= " + std::to_string(
                                  op.strategy->precopy_rounds(config_)))
                    .actual(std::to_string(op.round))
                    .note("migration " +
                          std::to_string(op.report.id.value())));
  op_step([this] {
    const ElasticOp& op = *current_;
    auto req = std::make_shared<PrecopyRequest>();
    req->migration = op.report.id;
    req->slice = op.report.slice;
    req->round = op.round;
    req->dst_host = op.report.dst;
    req->reply_to = control_endpoint_;
    send_control(op.report.src, std::move(req));
  });
  fire_step();
}

void Engine::after_directory_acks() {
  ElasticOp& op = *current_;
  if (!host_runtimes_.contains(op.report.src)) {
    // The source died after activation: nothing left to tear down, the
    // slice is safe on the destination.
    finish(MigrationOutcome::kCompleted);
    return;
  }
  op.set_step(MigrationStep::kTeardown);
  op_step([this] {
    const ElasticReport& r = current_->report;
    send_control(r.src, op_request<TeardownRequest>(r.id, r.slice,
                                                    control_endpoint_));
  });
  fire_step();
}

// ---- split / merge ----------------------------------------------------------

std::vector<std::pair<SliceId, SeqNo>> Engine::capture_cut_vector(
    SliceId slice) {
  // Per live upstream channel, the first post-cut-over sequence number,
  // read in-process at the cut-over instant (the atomic routing flip the
  // real engine achieves with a synchronized table swap). A lost upstream
  // contributes no entry: an upstream crash concurrent with a cut-over is
  // out of scope (see PROTOCOL.md).
  std::vector<std::pair<SliceId, SeqNo>> cut;
  for (const SliceId up : upstream_slices(slice)) {
    SliceRuntime* rt = slice_runtime(up);
    if (rt == nullptr) continue;
    cut.emplace_back(up, rt->next_seq_for(slice));
  }
  if (auto it = next_inject_seq_.find(slice); it != next_inject_seq_.end()) {
    cut.emplace_back(kExternalChannel, it->second);
  }
  return cut;
}

void Engine::begin_split() {
  ElasticOp& op = *current_;
  ElasticReport& r = op.report;
  // Allocate the child identity: fresh SliceId, slice_index one past the
  // operator's current maximum. Indices stay sparse after merges — routing
  // goes by coverage and downstream completion by fan membership, so only
  // uniqueness matters.
  StaticConfig::OperatorInfo& info = mutable_op_of(r.slice);
  const std::uint32_t op_index = static_->info_of(r.slice).op_index;
  std::uint32_t child_index = 0;
  for (const SliceId s : info.slices) {
    child_index = std::max(child_index, static_->info_of(s).slice_index + 1);
  }
  const SliceId child{next_slice_++};
  r.other = child;
  mutable_static_->slice_infos[child] =
      StaticConfig::SliceInfo{op_index, child_index};
  const KeyCoverage parent_now = slice_coverage(r.slice);
  op.parent_cov = parent_now.split_parent();
  op.child_cov = parent_now.split_child();
  // Replica + directory registration precede the cut-over, so every event
  // ever routed to the child is either buffered by the replica or delivered
  // after activation.
  directory_[child] = SliceLocation{r.dst, HostId{}};
  send_control(r.dst, op_request<CreateReplicaRequest>(r.id, child,
                                                       control_endpoint_));
  await_directory_acks();
  broadcast_location(child, r.dst, r.id);
  fire_step();
}

void Engine::split_cutover() {
  ElasticOp& op = *current_;
  const ElasticReport& r = op.report;
  op.set_step(SplitStep::kCutOver);
  StaticConfig::OperatorInfo& info = mutable_op_of(r.slice);
  std::size_t pos = info.slices.size();
  for (std::size_t i = 0; i < info.slices.size(); ++i) {
    if (info.slices[i] == r.slice) pos = i;
  }
  if (testing_corrupt_split_plan) {
    // Seeded fault: "forget" to refine the parent, leaving parent and child
    // overlapping. The completeness contract below must trip.
    testing_corrupt_split_plan = false;
  } else {
    info.coverages.at(pos) = op.parent_cov;
  }
  info.slices.push_back(r.other);
  info.coverages.push_back(op.child_cov);
  info.fan.push_back(static_->info_of(r.other).slice_index);
  info.refined = true;
  ESH_INVARIANT("engine", "key-coverage-complete",
                coverage_complete(info.coverages, info.coverage_base),
                ::esh::contracts::Detail{}
                    .slice(r.slice)
                    .note("split cut-over of operator " + info.name));
  op.report.cutover = simulator_.now();
  start_leg(r.slice, RollForward{.role = RollForward::Role::kSplitParent,
                                 .other = r.other,
                                 .cov = op.child_cov,
                                 .cutover = capture_cut_vector(r.slice)});
  op.set_step(SplitStep::kDrain);
  fire_step();
}

void Engine::activate_split_child() {
  const ElasticReport& r = current_->report;
  recover_slice(r.other, r.dst, [this, id = r.id] {
    if (op_live(id)) finish(MigrationOutcome::kCompleted);
  });
}

void Engine::begin_merge() {
  ElasticOp& op = *current_;
  const SliceId survivor = op.report.slice;
  const SliceId retiree = op.report.other;
  op.retiree_host = directory_.at(retiree).primary;
  const KeyCoverage merged_cov = slice_coverage(survivor).merged();
  // Cut vectors and the routing flip happen at one simulated instant, so
  // order within this callback is immaterial: no event moves in between.
  const auto survivor_cut = capture_cut_vector(survivor);
  const auto retiree_final = capture_cut_vector(retiree);
  StaticConfig::OperatorInfo& info = mutable_op_of(survivor);
  std::size_t surv_pos = info.slices.size();
  std::size_t ret_pos = info.slices.size();
  for (std::size_t i = 0; i < info.slices.size(); ++i) {
    if (info.slices[i] == survivor) surv_pos = i;
    if (info.slices[i] == retiree) ret_pos = i;
  }
  info.coverages.at(surv_pos) = merged_cov;
  info.slices.erase(info.slices.begin() + static_cast<std::ptrdiff_t>(ret_pos));
  info.coverages.erase(info.coverages.begin() +
                       static_cast<std::ptrdiff_t>(ret_pos));
  info.fan.erase(info.fan.begin() + static_cast<std::ptrdiff_t>(ret_pos));
  ESH_INVARIANT("engine", "key-coverage-complete",
                coverage_complete(info.coverages, info.coverage_base),
                ::esh::contracts::Detail{}
                    .slice(survivor)
                    .note("merge cut-over of operator " + info.name));
  op.report.cutover = simulator_.now();
  start_leg(survivor, RollForward{.role = RollForward::Role::kMergeSurvivor,
                                  .other = retiree,
                                  .cutover = survivor_cut});
  start_leg(retiree, RollForward{.role = RollForward::Role::kMergeRetiree,
                                 .other = survivor,
                                 .cutover = retiree_final});
  op.set_step(MergeStep::kDrainRetiree);
  fire_step();
}

bool Engine::handle_capture_control(const net::Message* msg) {
  // The in-flight operation when it is `id` of `kind`, else nullptr.
  const auto current = [this](MigrationId id, ElasticKind kind) {
    return current_ && current_->report.id == id &&
                   current_->report.kind == kind
               ? &*current_
               : nullptr;
  };

  if (const auto* cap = dynamic_cast<const SplitStateMessage*>(msg)) {
    if (ElasticOp* split = current(cap->transition, ElasticKind::kSplit);
        split != nullptr && split->split_step == SplitStep::kDrain) {
      ElasticOp& op = *split;
      op.report.moved = cap->moved;
      // The captured half becomes a synthetic checkpoint: the child
      // activates through the ordinary recovery path, channels starting
      // fresh at sequence 1 (empty watermarks ask for a full replay of the
      // post-cut-over traffic the logs / replica buffer hold).
      checkpoints_[op.report.other] = SliceSnapshot{.state = cap->state};
      op.set_step(SplitStep::kActivate);
      activate_split_child();
      fire_step();
      return true;
    }
    // Duplicate from a re-driven parent leg (deterministic replay makes the
    // re-capture byte-identical): refresh the synthetic checkpoint unless
    // the child has checkpointed real progress since.
    if (auto roll = rollforward_.find(cap->parent);
        roll != rollforward_.end() &&
        roll->second.transition == cap->transition) {
      auto existing = checkpoints_.find(cap->child);
      if (existing == checkpoints_.end() ||
          existing->second.processed.empty()) {
        checkpoints_[cap->child] = SliceSnapshot{.state = cap->state};
      }
    }
    return true;
  }

  if (const auto* cap = dynamic_cast<const MergeStateMessage*>(msg)) {
    ElasticOp* merge = current(cap->transition, ElasticKind::kMerge);
    if (merge == nullptr || merge->merge_step != MergeStep::kDrainRetiree) {
      return true;  // stale duplicate from a re-driven retiree leg
    }
    ElasticOp& op = *merge;
    const SliceId survivor = op.report.slice;
    const SliceId retiree = op.report.other;
    // The retiree's routable identity ends here: erase its directory
    // entry and checkpoint so no recovery sweep resurrects a zombie copy.
    directory_.erase(retiree);
    checkpoints_.erase(retiree);
    rollforward_.erase(retiree);
    pending_replays_.erase(retiree);
    if (auto roll = rollforward_.find(survivor);
        roll != rollforward_.end() && roll->second.transition == op.report.id) {
      roll->second.absorb = cap->snapshot;
    }
    op.set_step(MergeStep::kAbsorb);
    // Ship to the survivor's current primary. If the survivor is lost or
    // mid-recovery the request is dropped there — its recovery re-drives
    // the absorb from the RollForward stash instead.
    const auto loc = directory_.find(survivor);
    if (loc != directory_.end() &&
        host_runtimes_.contains(loc->second.primary)) {
      auto req = std::make_shared<MergeAbsorbRequest>();
      req->transition = op.report.id;
      req->survivor = survivor;
      req->retiree = retiree;
      req->snapshot = cap->snapshot;
      req->reply_to = control_endpoint_;
      const std::size_t bytes = cap->snapshot.bytes() + 96;
      send_control(loc->second.primary, std::move(req), bytes);
    }
    fire_step();
    return true;
  }

  if (const auto* ack = dynamic_cast<const MergeAbsorbAck*>(msg)) {
    ElasticOp* merge = current(ack->transition, ElasticKind::kMerge);
    if (merge == nullptr || merge->merge_step != MergeStep::kAbsorb) {
      return true;  // stale duplicate from a re-driven survivor leg
    }
    ElasticOp& op = *merge;
    op.set_step(MergeStep::kTeardown);
    const bool retiree_live = host_runtimes_.contains(op.retiree_host);
    if (retiree_live) {
      send_control(op.retiree_host,
                   op_request<TeardownRequest>(op.report.id, op.report.other,
                                               control_endpoint_));
    }
    if (fire_step() && !retiree_live) finish(MigrationOutcome::kCompleted);
    return true;
  }
  return false;
}

void Engine::start_leg(SliceId slice, RollForward roll) {
  SliceRuntime* rt = slice_runtime(slice);
  roll.transition = current_->report.id;
  roll.epoch = rt->coverage_epoch() + 1;
  if (config_.checkpoints.enabled) rollforward_[slice] = roll;
  drive_leg(*rt, roll);
}

void Engine::redrive_rollforward(SliceId slice) {
  auto it = rollforward_.find(slice);
  if (it == rollforward_.end()) return;
  if (SliceRuntime* rt = slice_runtime(slice)) drive_leg(*rt, it->second);
}

void Engine::drive_leg(SliceRuntime& rt, const RollForward& roll) {
  switch (roll.role) {
    case RollForward::Role::kSplitParent: {
      SliceRuntime::SplitSpec spec;
      spec.transition = roll.transition;
      spec.child = roll.other;
      spec.child_cov = roll.cov;
      spec.cutover = roll.cutover;
      spec.reply_to = control_endpoint_;
      rt.begin_split(std::move(spec));
      return;
    }
    case RollForward::Role::kMergeSurvivor: {
      SliceRuntime::AbsorbSpec spec;
      spec.transition = roll.transition;
      spec.retiree = roll.other;
      spec.cutover = roll.cutover;
      spec.reply_to = control_endpoint_;
      rt.begin_absorb(std::move(spec));
      if (roll.absorb) rt.deliver_absorb_state(*roll.absorb);
      return;
    }
    case RollForward::Role::kMergeRetiree: {
      SliceRuntime::FreezeSpec spec;
      spec.migration = roll.transition;
      spec.catchup = roll.cutover;
      spec.dst_host = HostId{};
      spec.reply_to = control_endpoint_;
      spec.merge_capture = true;
      rt.request_freeze(std::move(spec));
      return;
    }
  }
}

void Engine::broadcast_location(SliceId slice, HostId host, MigrationId op) {
  // Sorted: send order serializes on the manager NIC and decides per-host
  // delivery times.
  for (const HostId id : sorted_keys(host_runtimes_)) {
    auto update = std::make_shared<DirectoryUpdateMessage>();
    update->migration = op;
    update->slice = slice;
    update->host = host;
    if (op.valid()) update->reply_to = control_endpoint_;  // else no ack
    send_control(id, std::move(update));
  }
}

void Engine::await_directory_acks() {
  const std::vector<HostId> ids = sorted_keys(host_runtimes_);
  current_->pending_update_hosts = {ids.begin(), ids.end()};
}

void Engine::strike_directory_ack(HostId host) {
  ElasticOp& op = *current_;
  op.pending_update_hosts.erase(host);
  if (!op.pending_update_hosts.empty()) return;
  if (op.report.kind == ElasticKind::kMigrate) {
    after_directory_acks();
  } else if (op.create_acked) {
    split_cutover();
  }
}

// ---- participant failure ----------------------------------------------------

void Engine::handle_host_failure(HostId host) {
  if (!current_) return;
  ElasticOp& op = *current_;
  const ElasticReport& r = op.report;

  if (r.kind == ElasticKind::kMerge) {
    // Every merge leg re-drives through RollForward after the lost slice
    // recovers; the only coordinator action is resolving a teardown aimed
    // at a host that just died.
    if (op.merge_step == MergeStep::kTeardown && host == op.retiree_host) {
      finish(MigrationOutcome::kCompleted);
    }
    return;
  }

  if (r.kind == ElasticKind::kSplit) {
    if (host == r.dst) {
      switch (op.split_step) {
        case SplitStep::kCreateChild:
          // Nothing routed to the child yet and its replica died with the
          // host: abort the split outright.
          op.set_step(SplitStep::kAborting);
          directory_.erase(r.other);
          mutable_static_->slice_infos.erase(r.other);
          finish(MigrationOutcome::kAbortedDstFailed);
          return;
        case SplitStep::kCutOver:
          return;  // transient within one callback; never observed here
        case SplitStep::kDrain:
        case SplitStep::kActivate: {
          // Post-cut-over the split can only roll forward: re-home the
          // child on a deterministic replacement (smallest live host).
          // Events routed there before the restore lands are
          // dropped-but-logged upstream and replayed after activation.
          const std::vector<HostId> live = hosts();
          if (live.empty()) return;  // no cluster left; nothing to drive
          op.report.dst = live.front();
          directory_[r.other] = SliceLocation{r.dst, HostId{}};
          broadcast_location(r.other, r.dst);
          // The restore went to the dead host; re-issue it.
          if (op.split_step == SplitStep::kActivate) activate_split_child();
          return;
        }
        case SplitStep::kAborting:
          // The abort-replica ack died with the host.
          finish(op.abort_outcome);
          return;
      }
      return;
    }
    const auto parent_loc = directory_.find(r.slice);
    if (parent_loc != directory_.end() && parent_loc->second.primary == host) {
      // Post-cut-over the parent's leg re-drives through RollForward after
      // recovery and the coordinator keeps waiting; an abort in progress
      // awaits its ack from the child's host, unaffected.
      if (op.split_step != SplitStep::kCreateChild) return;
      // Parent lost pre-cut-over: abort, tearing the child replica down.
      op.set_step(SplitStep::kAborting);
      op.abort_outcome = MigrationOutcome::kAbortedSrcFailed;
      send_control(r.dst, op_request<AbortReplicaRequest>(r.id, r.other,
                                                          control_endpoint_));
      return;
    }
    // A third host died: strike it from the outstanding directory-ack set.
    if (op.split_step == SplitStep::kCreateChild) strike_directory_ack(host);
    return;
  }

  // A death during the directory update: the move already completed (a
  // copy lost with the destination is recovery's problem); converge the
  // survivors. While aborting, the abort peer's death resolves the abort
  // (its ack died with it).
  if (op.step == MigrationStep::kDirectoryUpdate) {
    strike_directory_ack(host);
    return;
  }
  if (op.step == MigrationStep::kAborting) {
    if (host == op.abort_peer) finish(op.abort_outcome);
    return;
  }
  const SliceId slice = r.slice;
  if (host == r.dst) {
    switch (op.step) {
      case MigrationStep::kCreateReplica:
        // No duplication started yet; the replica died with the host.
        finish(MigrationOutcome::kAbortedDstFailed);
        return;
      case MigrationStep::kDuplication:
      case MigrationStep::kPrecopy:
        // Upstreams may already duplicate to the dead host: stop them. The
        // source never stopped serving (pre-copy rounds run while active),
        // so nothing else needs repair.
        directory_[slice].shadow = HostId{};
        directory_[slice].redirect = false;
        broadcast_location(slice, r.src);
        finish(MigrationOutcome::kAbortedDstFailed);
        return;
      case MigrationStep::kPark:
      case MigrationStep::kTransfer: {
        // The freeze may or may not have reached the source. Ask it to
        // resume the slice; if the state already shipped (to a dead host),
        // the source reports the slice unusable and it goes to recovery.
        op.set_step(MigrationStep::kAborting);
        op.abort_peer = r.src;
        op.abort_outcome = MigrationOutcome::kAbortedDstFailed;
        auto req =
            op_request<AbortMigrationRequest>(r.id, slice, control_endpoint_);
        // Both new strategies freeze the source only at their final
        // stop-and-copy point, so a frozen source is exact at its freeze
        // watermark: it may thaw in place and have the missing suffix
        // replayed from the upstream logs, instead of being evicted into
        // recovery. Buffered-replay keeps its original abort semantics.
        req->thaw_frozen =
            op.strategy->kind() != MigrationStrategyKind::kBufferedReplay;
        send_control(r.src, std::move(req));
        return;
      }
      case MigrationStep::kTeardown:
        return;  // teardown targets the source; unaffected
      case MigrationStep::kDirectoryUpdate:
      case MigrationStep::kAborting:
        return;  // handled above
    }
    return;
  }

  if (host == r.src) {
    switch (op.step) {
      case MigrationStep::kCreateReplica:
      case MigrationStep::kDuplication:
      case MigrationStep::kPark:
      case MigrationStep::kPrecopy:
      case MigrationStep::kTransfer: {
        // The slice was lost with the source. The replica on dst must be
        // torn down — unless the state transfer raced ahead and it already
        // activated, in which case the migration completed. Ask dst.
        directory_[slice].shadow = HostId{};
        directory_[slice].redirect = false;
        op.set_step(MigrationStep::kAborting);
        op.abort_peer = r.dst;
        op.abort_outcome = MigrationOutcome::kAbortedSrcFailed;
        send_control(r.dst, op_request<AbortReplicaRequest>(
                                r.id, slice, control_endpoint_));
        return;
      }
      case MigrationStep::kTeardown:
        // The dead source was the last protocol participant.
        finish(MigrationOutcome::kCompleted);
        return;
      case MigrationStep::kDirectoryUpdate:
      case MigrationStep::kAborting:
        return;  // handled above
    }
    return;
  }

  // A third host died: strike its upstream slices from the outstanding
  // duplication acks so the protocol does not wait for a host that will
  // never answer. Such an upstream's channel gets no catch-up entry; once
  // recovered, its replayed suffix reaches the replica through shadow
  // duplication (or the park redirect) like any live traffic.
  if (op.step != MigrationStep::kDuplication &&
      op.step != MigrationStep::kPark) {
    return;
  }
  std::erase_if(op.pending_dup_slices, [&](SliceId up) {
    return directory_.at(up).primary == host;
  });
  if (op.pending_dup_slices.empty()) advance_after_duplication();
}

void Engine::send_freeze() {
  const ElasticOp& op = *current_;
  auto req = std::make_shared<FreezeRequest>();
  req->migration = op.report.id;
  req->slice = op.report.slice;
  req->catchup = op.catchup;
  req->dst_host = op.report.dst;
  req->reply_to = control_endpoint_;
  // After pre-copy rounds the replica holds a patched baseline image; the
  // final stop-and-copy ships only the dirty pages against it.
  req->delta = op.round > 0;
  send_control(op.report.src, std::move(req));
}

void Engine::broadcast_replay(
    SliceId slice, const std::vector<std::pair<SliceId, SeqNo>>& processed) {
  auto replay = std::make_shared<ReplayRequest>();
  replay->slice = slice;
  replay->processed = processed;
  // Sorted: send order serializes on the manager NIC.
  for (const HostId id : sorted_keys(host_runtimes_)) {
    send_control(id, replay);
  }
}

void Engine::redeliver_injections(
    SliceId slice, const std::vector<std::pair<SliceId, SeqNo>>& processed) {
  const auto log = inject_log_.find(slice);
  const auto loc = directory_.find(slice);
  if (log == inject_log_.end() || loc == directory_.end()) return;
  const auto host_it = host_runtimes_.find(loc->second.primary);
  if (host_it == host_runtimes_.end()) return;
  const SeqNo above = seq_of(processed, kExternalChannel);
  for (const WireEvent& event : log->second) {
    if (event.seq > above) host_it->second->deliver_external(event);
  }
}

void Engine::step_after_tick(std::function<void()> fn) {
  const auto tick = static_cast<std::uint64_t>(config_.control_tick.count());
  const auto delay =
      tick == 0 ? SimDuration::zero()
                : micros(static_cast<std::int64_t>(rng_.next_below(tick)));
  simulator_.schedule(delay, std::move(fn));
}

void Engine::op_step(std::function<void()> fn) {
  // An operation can be aborted (and a successor started) while a scheduled
  // step is in flight: the guard keeps a stale step from firing into the
  // wrong operation, and from racing an abort handshake (e.g. sending the
  // freeze after the source was already told to resume the slice).
  const MigrationId id = current_->report.id;
  step_after_tick([this, id, fn = std::move(fn)] {
    if (op_live(id)) fn();
  });
}

void Engine::send_control(HostId host, net::MessagePtr msg,
                          std::size_t bytes) {
  const net::Endpoint to = host_runtimes_.at(host)->endpoint();
  if (control_channel_) {
    control_channel_->send(to, std::move(msg), bytes);
  } else {
    network_.send(control_endpoint_, to, std::move(msg), bytes);
  }
}

void Engine::notify_control_give_up(net::Endpoint peer) {
  HostId host{};
  if (peer == control_endpoint_) {
    host = manager_host_;
  } else if (auto it = control_peers_.find(peer); it != control_peers_.end()) {
    host = it->second;
  }
  if (host.valid() && control_unreachable_) {
    control_unreachable_(host);
  }
}

net::ReliableStats Engine::reliable_stats() const {
  net::ReliableStats total;
  auto add = [&total](const net::ReliableStats& s) {
    total.data_sent += s.data_sent;
    total.retransmits += s.retransmits;
    total.acks_sent += s.acks_sent;
    total.delivered += s.delivered;
    total.duplicates_dropped += s.duplicates_dropped;
    total.corrupt_dropped += s.corrupt_dropped;
    total.give_ups += s.give_ups;
  };
  if (control_channel_) add(control_channel_->stats());
  // lint:allow(unordered-iteration): commutative sum, order-free
  for (const auto& [id, runtime] : host_runtimes_) {
    if (runtime->control_channel()) add(runtime->control_channel()->stats());
  }
  return total;
}

std::vector<SliceId> Engine::upstream_slices(SliceId slice) const {
  const auto& op = static_->op_of(slice);
  std::vector<SliceId> out;
  for (std::uint32_t up : op.upstream_ops) {
    const auto& up_op = static_->operators.at(up);
    out.insert(out.end(), up_op.slices.begin(), up_op.slices.end());
  }
  return out;
}

std::vector<SliceId> Engine::downstream_slices(SliceId slice) const {
  const std::uint32_t op_index = static_->info_of(slice).op_index;
  std::vector<SliceId> out;
  for (const auto& op : static_->operators) {
    if (std::find(op.upstream_ops.begin(), op.upstream_ops.end(), op_index) ==
        op.upstream_ops.end()) {
      continue;
    }
    out.insert(out.end(), op.slices.begin(), op.slices.end());
  }
  return out;
}

bool Engine::multi_input(SliceId slice) const {
  return upstream_slices(slice).size() +
             (next_inject_seq_.contains(slice) ? 1 : 0) >
         1;
}

void Engine::register_recovery_rebases(SliceId slice) {
  // Single-input slices replay their one channel in the original order, so
  // the regenerated output keeps the original numbering and downstream
  // dedup stays valid; only multi-input interleavings renumber.
  if (!multi_input(slice)) return;
  std::vector<std::pair<SliceId, SeqNo>> out_bases;
  if (auto cp = checkpoints_.find(slice); cp != checkpoints_.end()) {
    out_bases = cp->second.out_seqs;
  }
  // A consumer absent from out_bases never received anything pre-cut and
  // rewinds to 1, mirroring handle_directory_update's default.
  auto& rebases = recovery_rebases_[slice];
  rebases.clear();
  for (const SliceId down : downstream_slices(slice)) {
    rebases[down] = seq_of(out_bases, down, 1);
  }
}

std::vector<std::pair<SliceId, SeqNo>> Engine::clamp_to_rebases(
    SliceId slice, std::vector<std::pair<SliceId, SeqNo>> processed) const {
  for (auto& [upstream, watermark] : processed) {
    const auto rebase = recovery_rebases_.find(upstream);
    if (rebase == recovery_rebases_.end()) continue;
    const auto entry = rebase->second.find(slice);
    if (entry == rebase->second.end()) continue;
    // The upstream regenerated its stream from `base`; a restored watermark
    // at or past it counts the old numbering and must rewind so the
    // regenerated suffix is replayed and accepted. Content the old
    // watermark did cover is then reprocessed — absorbed downstream, which
    // is at-least-once above the EP boundary.
    if (watermark >= entry->second) watermark = entry->second - 1;
  }
  return processed;
}

void Engine::on_control(const net::Delivery& delivery) {
  const net::Message* msg = delivery.message.get();

  // ---- passive-replication traffic (independent of migrations) ----
  if (const auto* checkpoint = dynamic_cast<const CheckpointMessage*>(msg)) {
    const SliceSnapshot& cut = checkpoint->snapshot;
    checkpoints_[checkpoint->slice] = cut;
    // A checkpoint at or past a pending split/merge capture's coverage
    // epoch proves that capture durable: the roll-forward record is spent,
    // and a transition deferred behind it may start.
    if (auto roll = rollforward_.find(checkpoint->slice);
        roll != rollforward_.end() &&
        cut.coverage_epoch >= roll->second.epoch) {
      rollforward_.erase(roll);
      start_next(Family::kTransitions);
    }
    // A checkpoint whose watermark reaches a recovered upstream's
    // regenerated base proves this consumer advanced in the new numbering;
    // the rebase entry is spent. (Narrow known race: a pre-crash checkpoint
    // still in flight from a now-dead consumer can spend the entry with an
    // old-numbering watermark — it is also the restore point recovery will
    // resume from, so the window is a single checkpoint interval.)
    for (const auto& [upstream, watermark] : cut.processed) {
      const auto rebase = recovery_rebases_.find(upstream);
      if (rebase == recovery_rebases_.end()) continue;
      const auto entry = rebase->second.find(checkpoint->slice);
      if (entry != rebase->second.end() && watermark >= entry->second) {
        rebase->second.erase(entry);
        if (rebase->second.empty()) recovery_rebases_.erase(rebase);
      }
    }
    // Let upstream logs (and the external injection log) truncate.
    auto notice = std::make_shared<CheckpointNoticeMessage>();
    notice->slice = checkpoint->slice;
    notice->processed = cut.processed;
    if (auto log = inject_log_.find(checkpoint->slice);
        log != inject_log_.end()) {
      const SeqNo upto = seq_of(cut.processed, kExternalChannel);
      auto& events = log->second;
      while (!events.empty() && events.front().seq <= upto) events.pop_front();
    }
    // Sorted: broadcast order serializes on the manager NIC.
    for (const HostId id : sorted_keys(host_runtimes_)) {
      send_control(id, notice);
    }
    return;
  }
  if (const auto* ack = dynamic_cast<const ActivatedAck*>(msg);
      ack != nullptr && !ack->migration.valid()) {
    // Recovery activation (not a migration): converge the directory,
    // replay upstream logs and the external injection log.
    auto recovery = recoveries_.find(ack->slice);
    if (recovery == recoveries_.end()) return;
    if (!directory_.contains(ack->slice)) {
      // The slice was merged away while this recovery was in flight: the
      // activated copy is a harmless idle zombie (nothing routes to it).
      auto orphaned = std::move(recovery->second);
      recoveries_.erase(recovery);
      if (orphaned) orphaned();
      return;
    }
    const HostId dst = directory_.at(ack->slice).primary;
    // A slice without a checkpoint bootstraps: zero watermarks ask the
    // (untruncated) logs for a full replay, and empty output bases make
    // every downstream rewind to sequence 1.
    std::vector<std::pair<SliceId, SeqNo>> processed;
    std::vector<std::pair<SliceId, SeqNo>> out_bases;
    if (auto cp = checkpoints_.find(ack->slice); cp != checkpoints_.end()) {
      processed = cp->second.processed;
      out_bases = cp->second.out_seqs;
    }
    // Co-recovery: channel watermarks counting an already-regenerated
    // upstream stream rewind to its new base (matches what the restore
    // message carried, so the activated channels accept the replay).
    processed = clamp_to_rebases(ack->slice, std::move(processed));
    // This recovery renumbers a multi-input slice's output (fresh
    // interleaving from the checkpoint cut). Refresh the per-consumer
    // regenerated bases (first recorded at fail_host time) so consumers
    // that recover later rewind their restored watermarks to them.
    register_recovery_rebases(ack->slice);
    // Sorted: broadcast order serializes on the manager NIC and decides
    // when each survivor rewinds / starts replaying. Only a multi-input
    // slice's downstream channels rewind to the restored bases (see
    // multi_input); a single input replays in the original order.
    const bool reset_channels = multi_input(ack->slice);
    for (const HostId id : sorted_keys(host_runtimes_)) {
      auto update = std::make_shared<DirectoryUpdateMessage>();
      update->migration = MigrationId{};
      update->slice = ack->slice;
      update->host = dst;
      update->reply_to = net::Endpoint{};  // no ack needed
      update->reset_channels = reset_channels;
      update->out_bases = out_bases;
      send_control(id, update);
    }
    broadcast_replay(ack->slice, processed);
    // Co-recovery rendezvous: slices recovered before this one broadcast
    // their replay requests while this slice was not live anywhere, so the
    // events only its (restored) log holds were never re-sent. Re-deliver
    // those requests to the new host; channel/handler deduplication
    // absorbs any redundancy.
    // Sorted: re-sent replay requests serialize on the manager NIC too.
    for (const SliceId other : sorted_keys(pending_replays_)) {
      if (other == ack->slice) continue;
      auto again = std::make_shared<ReplayRequest>();
      again->slice = other;
      again->processed = pending_replays_.at(other);
      send_control(dst, again);
    }
    pending_replays_[ack->slice] = processed;
    redeliver_injections(ack->slice, processed);
    // A pending split/merge capture on this slice replays now, from the
    // freshly restored state — deterministically identical to the original.
    redrive_rollforward(ack->slice);
    auto done = std::move(recovery->second);
    recoveries_.erase(recovery);
    if (done) done();
    return;
  }

  // ---- elastic-operation traffic (ids never clash across kinds: all
  // three draw from the same counter) ----
  if (handle_capture_control(msg)) return;
  if (!current_) {
    ESH_WARN << "Engine: control message with no elastic operation in flight";
    return;
  }
  handle_op_control(msg);
}

void Engine::handle_op_control(const net::Message* msg) {
  ElasticOp& op = *current_;
  const ElasticKind kind = op.report.kind;

  if (const auto* ack = dynamic_cast<const CreateReplicaAck*>(msg)) {
    if (ack->migration != op.report.id) return;
    if (kind == ElasticKind::kSplit) {
      if (op.split_step != SplitStep::kCreateChild) return;
      op.create_acked = true;
      if (op.pending_update_hosts.empty()) split_cutover();
      return;
    }
    if (op.step != MigrationStep::kCreateReplica) return;
    // Duplication (or, for a redirecting strategy, the park hand-off) of the
    // external injection channel starts now: record the shadow
    // (Engine::inject consults it) and the catch-up point.
    directory_[op.report.slice].shadow = op.report.dst;
    directory_[op.report.slice].redirect = op.strategy->redirect_channels();
    op.catchup.clear();
    const auto inject_it = next_inject_seq_.find(op.report.slice);
    op.catchup.emplace_back(
        kExternalChannel,
        inject_it == next_inject_seq_.end() ? SeqNo{1} : inject_it->second);

    op.pending_dup_slices.clear();
    std::set<HostId> hosts;
    for (SliceId up : upstream_slices(op.report.slice)) {
      const HostId up_host = directory_.at(up).primary;
      // A lost upstream (host dead, recovery pending) cannot ack; once it
      // recovers, its replayed suffix reaches the replica through shadow
      // duplication like any live traffic.
      if (!host_runtimes_.contains(up_host)) continue;
      op.pending_dup_slices.insert(up);
      hosts.insert(up_host);
    }
    if (op.pending_dup_slices.empty()) {
      // No live DAG channels (source operator): pre-copy or freeze directly.
      advance_after_duplication();
      return;
    }
    op.set_step(op.strategy->redirect_channels() ? MigrationStep::kPark
                                                 : MigrationStep::kDuplication);
    // One request per host holding at least one upstream slice.
    op_step([this, hosts] {
      const ElasticOp& op = *current_;
      for (HostId host : hosts) {
        if (!host_runtimes_.contains(host)) continue;  // died meanwhile
        auto req = std::make_shared<StartDuplicationRequest>();
        req->migration = op.report.id;
        req->slice = op.report.slice;
        req->shadow_host = op.report.dst;
        req->redirect = op.strategy->redirect_channels();
        req->reply_to = control_endpoint_;
        send_control(host, std::move(req));
      }
    });
    fire_step();
    return;
  }

  if (const auto* ack = dynamic_cast<const StartDuplicationAck*>(msg)) {
    if (ack->migration != op.report.id ||
        (op.step != MigrationStep::kDuplication &&
         op.step != MigrationStep::kPark)) {
      return;
    }
    if (op.pending_dup_slices.erase(ack->upstream_slice) == 0) return;
    op.catchup.emplace_back(ack->upstream_slice, ack->next_seq);
    if (!op.pending_dup_slices.empty()) return;
    advance_after_duplication();
    return;
  }

  if (const auto* ack = dynamic_cast<const PrecopyAck*>(msg)) {
    if (ack->migration != op.report.id || op.step != MigrationStep::kPrecopy ||
        ack->round != op.round) {
      return;
    }
    op.report.precopy_bytes += ack->bytes;
    // Another round while the budget lasts and the state is still dirtying;
    // a zero-delta round means the next diff would be empty too, so cut to
    // the final stop-and-copy early.
    bool more =
        op.round < op.strategy->precopy_rounds(config_) && ack->bytes > 0;
    if (testing_force_extra_precopy_round && !more) {
      // Seeded fault: issue one round past the bound; the
      // precopy-rounds-bounded contract in start_precopy_round must trip.
      testing_force_extra_precopy_round = false;
      more = true;
    }
    if (more) {
      op.set_step(MigrationStep::kPrecopy);  // self-edge: next round
      start_precopy_round();
    } else {
      op.set_step(MigrationStep::kTransfer);
      op_step([this] { send_freeze(); });
      fire_step();
    }
    return;
  }

  if (const auto* ack = dynamic_cast<const ActivatedAck*>(msg)) {
    if (ack->migration != op.report.id) return;
    // Ignore an activation that raced a destination crash: the activated
    // copy died with the host and the slice goes through the abort path.
    if (!host_runtimes_.contains(op.report.dst)) return;
    if (op.step != MigrationStep::kTransfer &&
        op.step != MigrationStep::kAborting) {
      return;
    }
    op.report.frozen = ack->frozen_at;
    op.report.activated = ack->activated_at;
    op.report.state_bytes = ack->state_bytes;
    op.report.transfer_bytes = ack->transfer_bytes;
#if ESH_INVARIANTS_ENABLED
    if (op.strategy->redirect_channels()) {
      // Stop-and-restart: the park drained the source to a freeze before the
      // state ever shipped, so the replica going live with the source still
      // active would mean two primaries serving the slice at once.
      SliceRuntime* src_rt = nullptr;
      if (auto src_it = host_runtimes_.find(op.report.src);
          src_it != host_runtimes_.end()) {
        src_rt = src_it->second->slice(op.report.slice);
      }
      if (testing_force_src_active_on_activate && src_rt != nullptr) {
        // Seeded fault: resurrect the source right under the check.
        testing_force_src_active_on_activate = false;
        src_rt->testing_force_active();
      }
      ESH_INVARIANT("engine", "stop-restart-no-dual-active",
                    src_rt == nullptr ||
                        src_rt->state() != SliceRuntime::State::kActive,
                    ::esh::contracts::Detail{}
                        .slice(op.report.slice)
                        .expected("source frozen/retired at activation")
                        .actual(src_rt != nullptr ? to_string(src_rt->state())
                                                  : "gone")
                        .note("migration " +
                              std::to_string(op.report.id.value())));
    }
#endif
    directory_[op.report.slice] = SliceLocation{op.report.dst, HostId{}};
    op.set_step(MigrationStep::kDirectoryUpdate);
    await_directory_acks();
    op_step([this] {
      const ElasticReport& r = current_->report;
      broadcast_location(r.slice, r.dst, r.id);
    });
    fire_step();
    return;
  }

  if (const auto* ack = dynamic_cast<const DirectoryUpdateAck*>(msg)) {
    if (ack->migration != op.report.id) return;
    if ((kind == ElasticKind::kSplit &&
         op.split_step == SplitStep::kCreateChild) ||
        (kind == ElasticKind::kMigrate &&
         op.step == MigrationStep::kDirectoryUpdate)) {
      strike_directory_ack(ack->from_host);
    }
    return;
  }

  if (const auto* ack = dynamic_cast<const TeardownAck*>(msg)) {
    if (ack->migration != op.report.id) return;
    if ((kind == ElasticKind::kMigrate &&
         op.step == MigrationStep::kTeardown) ||
        (kind == ElasticKind::kMerge &&
         op.merge_step == MergeStep::kTeardown)) {
      finish(MigrationOutcome::kCompleted);
    }
    return;
  }

  if (const auto* ack = dynamic_cast<const AbortMigrationAck*>(msg)) {
    if (ack->migration != op.report.id || op.step != MigrationStep::kAborting) {
      return;
    }
    // The source resolved the abort: either the slice resumed in place, or
    // its frozen state shipped to the dead destination and it needs
    // recovery. Either way, stop any lingering duplication.
    directory_[op.report.slice].shadow = HostId{};
    directory_[op.report.slice].redirect = false;
    broadcast_location(op.report.slice,
                       directory_.at(op.report.slice).primary);
    if (ack->resumed && (op.strategy->redirect_channels() || ack->thawed)) {
      // Stop-and-restart: everything redirected since the park went only to
      // the now-dead replica, so the resumed source needs the suffix replayed
      // whether or not it reached its freeze. A thawed pre-copy source needs
      // the same replay for the events dropped during its final freeze.
      // Either way the upstream logs re-send above the source's watermarks
      // (channel sequence numbers deduplicate anything the source did
      // see), and so does the external injection log. Ordered after the
      // broadcast_location above, so per-destination FIFO applies the
      // location fix before any replayed event arrives.
      broadcast_replay(op.report.slice, ack->processed);
      redeliver_injections(op.report.slice, ack->processed);
    }
    if (!ack->resumed) {
      ESH_WARN << "Engine: migration abort lost slice "
               << op.report.slice.value() << " (state shipped to dead host)";
    }
    finish(op.abort_outcome);
    return;
  }

  if (const auto* ack = dynamic_cast<const AbortReplicaAck*>(msg)) {
    if (ack->migration != op.report.id || !op.aborting()) return;
    if (kind == ElasticKind::kSplit) {
      finish(op.abort_outcome);  // the child replica is gone
      return;
    }
    if (ack->was_active) {
      // The state transfer raced the abort and the replica went live: the
      // migration actually completed despite the source's death.
      directory_[op.report.slice] = SliceLocation{op.report.dst, HostId{}};
      broadcast_location(op.report.slice, op.report.dst);
      finish(MigrationOutcome::kCompleted);
      return;
    }
    directory_[op.report.slice].shadow = HostId{};
    directory_[op.report.slice].redirect = false;
    broadcast_location(op.report.slice,
                       directory_.at(op.report.slice).primary);
    finish(op.abort_outcome);
    return;
  }

  ESH_WARN << "Engine: unrecognized control message";
}

}  // namespace esh::engine
