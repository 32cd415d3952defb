#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/protocol_spec.hpp"
#include "common/det.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

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

const char* to_string(TransitionKind kind) {
  switch (kind) {
    case TransitionKind::kSplit: return "split";
    case TransitionKind::kMerge: return "merge";
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
      worker_pool_(config.worker_threads > 1
                       ? std::make_unique<ThreadPool>(config.worker_threads)
                       : nullptr),
      rng_(seed),
      manager_host_(manager_host) {
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
      // A split child mid-transition is owned by the transition coordinator
      // (handle_transition_host_failure re-drives it onto a replacement
      // host); keep it out of the generic recovery sweep so it is not
      // restored twice.
      if (current_transition_ &&
          current_transition_->report.kind == TransitionKind::kSplit &&
          slice == current_transition_->report.child) {
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
  // Unwedge the migration protocol: abort or advance the in-flight
  // migration if the dead host participated in it.
  handle_host_failure(host);
  // Same for an in-flight split/merge.
  handle_transition_host_failure(host);
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
    msg->state = cp->second.state;
    msg->processed = cp->second.processed;
    msg->out_seqs = cp->second.out_seqs;
    msg->log = cp->second.log;
    msg->coverage_epoch = cp->second.coverage_epoch;
    bytes = msg->state->size() + 64 * msg->log.size();
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
  msg->processed = clamp_to_rebases(slice, std::move(msg->processed));
  // No checkpoint: bootstrap restore with null state and zero watermarks.
  // The retained logs are complete precisely because no checkpoint ever
  // truncated them, so the full replay rebuilds the state from scratch.
  send_control(host_runtimes_.at(dst)->endpoint(), std::move(msg), bytes);
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

// ---- migration coordination --------------------------------------------------

void Engine::migrate(SliceId slice, HostId dst, MigrationCallback callback) {
  migrate(slice, dst, MigrationStrategyKind::kBufferedReplay,
          std::move(callback));
}

void Engine::migrate(SliceId slice, HostId dst, MigrationStrategyKind strategy,
                     MigrationCallback callback) {
  MigrationTask task;
  task.strategy = &strategy_for(strategy);
  task.report.strategy = task.strategy->name();
  task.report.id = MigrationId{next_migration_++};
  task.report.slice = slice;
  task.report.dst = dst;
  task.report.requested = simulator_.now();
  task.callback = std::move(callback);
  const auto dir_it = directory_.find(slice);
  if (dir_it == directory_.end() || !host_runtimes_.contains(dst)) {
    // Invalid request: reject through the callback so callers learn the
    // outcome the same way they learn any other.
    task.report.outcome = MigrationOutcome::kRejected;
    task.report.completed = simulator_.now();
    if (task.callback) task.callback(task.report);
    return;
  }
  task.report.src = dir_it->second.primary;
  if (task.report.src == dst) {
    // Degenerate migration: report immediately.
    task.report.frozen = task.report.activated = task.report.completed =
        simulator_.now();
    if (task.callback) task.callback(task.report);
    return;
  }
  migration_queue_.push_back(std::move(task));
  start_next_migration();
}

void Engine::start_next_migration() {
  // One elastic operation of either family (migration or split/merge) runs
  // at a time; migrations take priority when both are queued.
  while (!current_migration_ && !current_transition_ &&
         !migration_queue_.empty()) {
    MigrationTask task = std::move(migration_queue_.front());
    migration_queue_.pop_front();
    // Cluster state may have changed while the request was queued: the
    // slice may have moved, been lost to a crash, or the destination host
    // may have died. Reject stale moves instead of wedging on them.
    const auto dir_it = directory_.find(task.report.slice);
    const HostId src =
        dir_it == directory_.end() ? HostId{} : dir_it->second.primary;
    const auto src_it = host_runtimes_.find(src);
    const bool src_ok = src_it != host_runtimes_.end() &&
                        src_it->second->has_slice(task.report.slice);
    if (!src_ok || !host_runtimes_.contains(task.report.dst)) {
      task.report.outcome = MigrationOutcome::kRejected;
      task.report.completed = simulator_.now();
      if (task.callback) task.callback(task.report);
      continue;
    }
    task.report.src = src;
    if (src == task.report.dst) {
      task.report.frozen = task.report.activated = task.report.completed =
          simulator_.now();
      if (task.callback) task.callback(task.report);
      continue;
    }
    current_migration_ = std::move(task);
    current_migration_->dup_bytes_base = duplicate_bytes_total_;
    migration_step([this] {
      MigrationTask& t = *current_migration_;
      auto req = std::make_shared<CreateReplicaRequest>();
      req->migration = t.report.id;
      req->slice = t.report.slice;
      req->reply_to = control_endpoint_;
      send_control(host_runtimes_.at(t.report.dst)->endpoint(),
                   std::move(req));
    });
    // Last: the hook may fail hosts, aborting this migration re-entrantly
    // (the while condition re-checks current_migration_).
    fire_migration_step();
  }
}

bool Engine::fire_migration_step() {
  if (!current_migration_) return false;
  if (!migration_step_hook_) return true;
  // The hook may fail hosts (the crash-at-every-step torture tests do
  // exactly that), which can abort or finish the migration re-entrantly;
  // tell the caller whether the one it was driving is still current.
  const MigrationId id = current_migration_->report.id;
  migration_step_hook_(current_migration_->report,
                       to_string(current_migration_->step));
  return current_migration_ && current_migration_->report.id == id;
}

void Engine::advance_after_duplication() {
  MigrationTask& t = *current_migration_;
  if (t.strategy->precopy_rounds(config_) > 0) {
    t.set_step(MigrationTask::Step::kPrecopy);
    start_precopy_round();
  } else {
    t.set_step(MigrationTask::Step::kTransfer);
    migration_step([this] { send_freeze(); });
    fire_migration_step();
  }
}

void Engine::start_precopy_round() {
  MigrationTask& t = *current_migration_;
  ++t.round;
  ESH_INVARIANT("engine", "precopy-rounds-bounded",
                t.round <= t.strategy->precopy_rounds(config_),
                ::esh::contracts::Detail{}
                    .slice(t.report.slice)
                    .expected("round <= " + std::to_string(
                                  t.strategy->precopy_rounds(config_)))
                    .actual(std::to_string(t.round))
                    .note("migration " + std::to_string(t.report.id.value())));
  migration_step([this] {
    MigrationTask& t = *current_migration_;
    auto req = std::make_shared<PrecopyRequest>();
    req->migration = t.report.id;
    req->slice = t.report.slice;
    req->round = t.round;
    req->dst_host = t.report.dst;
    req->reply_to = control_endpoint_;
    send_control(host_runtimes_.at(t.report.src)->endpoint(), std::move(req));
  });
  fire_migration_step();
}

void Engine::finish_migration(MigrationOutcome outcome) {
  MigrationTask task = std::move(*current_migration_);
  current_migration_.reset();
  task.report.outcome = outcome;
  task.report.completed = simulator_.now();
  task.report.precopy_bytes = task.precopy_bytes;
  // Migrations are serialized, so every duplicate byte since the snapshot
  // belongs to this move.
  task.report.duplicate_bytes = duplicate_bytes_total_ - task.dup_bytes_base;
  // Report timestamps must be causally ordered. frozen/activated stay zero
  // on abort paths where the ActivatedAck never arrived, so the freeze-
  // before-activate ordering is only checkable when both were recorded.
  ESH_INVARIANT("engine", "migration-report-ordered",
                task.report.completed >= task.report.requested &&
                    (task.report.frozen == SimTime{} ||
                     task.report.activated == SimTime{} ||
                     (task.report.frozen >= task.report.requested &&
                      task.report.activated >= task.report.frozen &&
                      task.report.completed >= task.report.activated)),
                ::esh::contracts::Detail{}
                    .slice(task.report.slice)
                    .expected("requested <= frozen <= activated <= completed")
                    .actual(std::to_string(task.report.requested.count()) +
                            "/" + std::to_string(task.report.frozen.count()) +
                            "/" +
                            std::to_string(task.report.activated.count()) +
                            "/" +
                            std::to_string(task.report.completed.count())));
  if (outcome == MigrationOutcome::kCompleted) ++migrations_completed_;
  if (task.callback) task.callback(task.report);
  start_next_migration();
  start_next_transition();
}

// ---- split / merge coordination ---------------------------------------------

void Engine::split_slice(SliceId parent, HostId dst,
                         TransitionCallback callback) {
  TransitionTask task;
  task.report.id = MigrationId{next_migration_++};
  task.report.kind = TransitionKind::kSplit;
  task.report.parent = parent;
  task.report.requested = simulator_.now();
  task.callback = std::move(callback);
  task.dst = dst;
  transition_queue_.push_back(std::move(task));
  start_next_transition();
}

void Engine::merge_slices(SliceId survivor, SliceId retiree,
                          TransitionCallback callback) {
  TransitionTask task;
  task.report.id = MigrationId{next_migration_++};
  task.report.kind = TransitionKind::kMerge;
  task.report.parent = survivor;
  task.report.child = retiree;
  task.report.requested = simulator_.now();
  task.callback = std::move(callback);
  transition_queue_.push_back(std::move(task));
  start_next_transition();
}

void Engine::start_next_transition() {
  // Coverage of a slice under the CURRENT routing, or nullptr when the
  // slice is not routed (merged away / never deployed).
  const auto coverage_of = [this](SliceId slice) -> const KeyCoverage* {
    if (!static_ || !static_->slice_infos.contains(slice)) return nullptr;
    const auto& op = static_->op_of(slice);
    for (std::size_t i = 0; i < op.slices.size(); ++i) {
      if (op.slices[i] == slice) return &op.coverages[i];
    }
    return nullptr;
  };
  while (!current_migration_ && !current_transition_ &&
         !transition_queue_.empty()) {
    TransitionTask task = std::move(transition_queue_.front());
    transition_queue_.pop_front();
    const auto reject = [&] {
      task.report.completed = false;
      task.report.finished = simulator_.now();
      if (task.callback) task.callback(task.report);
    };
    // Re-validate against current cluster state (the request may have
    // queued behind operations that changed it).
    if (task.report.kind == TransitionKind::kSplit) {
      SliceRuntime* parent = slice_runtime(task.report.parent);
      const KeyCoverage* cov = coverage_of(task.report.parent);
      if (parent == nullptr || cov == nullptr ||
          !host_runtimes_.contains(task.dst) ||
          !parent->handler().supports_split() || cov->depth >= 62) {
        reject();
        continue;
      }
      if (rollforward_.contains(task.report.parent)) {
        // An earlier capture on this slice is not yet proven durable, and
        // re-driving two stacked captures after a crash is unsupported.
        // Force the durability boundary and retry when it lands.
        parent->checkpoint(control_endpoint_);
        transition_queue_.push_front(std::move(task));
        return;
      }
      current_transition_ = std::move(task);
      begin_split_transition();
    } else {
      SliceRuntime* survivor = slice_runtime(task.report.parent);
      SliceRuntime* retiree = slice_runtime(task.report.child);
      const KeyCoverage* surv_cov = coverage_of(task.report.parent);
      const KeyCoverage* ret_cov = coverage_of(task.report.child);
      if (survivor == nullptr || retiree == nullptr || surv_cov == nullptr ||
          ret_cov == nullptr || task.report.parent == task.report.child ||
          !survivor->handler().supports_split() ||
          !surv_cov->sibling_of(*ret_cov)) {
        reject();
        continue;
      }
      if (rollforward_.contains(task.report.parent) ||
          rollforward_.contains(task.report.child)) {
        survivor->checkpoint(control_endpoint_);
        retiree->checkpoint(control_endpoint_);
        transition_queue_.push_front(std::move(task));
        return;
      }
      current_transition_ = std::move(task);
      begin_merge_transition();
    }
  }
}

void Engine::finish_transition(bool completed) {
  TransitionTask task = std::move(*current_transition_);
  current_transition_.reset();
  task.report.completed = completed;
  task.report.finished = simulator_.now();
  if (completed) {
    if (task.report.kind == TransitionKind::kSplit) {
      ++splits_completed_;
    } else {
      ++merges_completed_;
    }
  }
  if (task.callback) task.callback(task.report);
  start_next_migration();
  start_next_transition();
}

bool Engine::fire_elastic_step(std::string_view step) {
  if (!current_transition_) return false;
  if (!elastic_step_hook_) return true;
  // The hook may fail hosts (the torture tests do exactly that), which can
  // abort or finish the transition re-entrantly; tell the caller whether
  // the transition it was driving is still the current one.
  const MigrationId id = current_transition_->report.id;
  elastic_step_hook_(current_transition_->report, step);
  return current_transition_ && current_transition_->report.id == id;
}

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

void Engine::begin_split_transition() {
  TransitionTask& t = *current_transition_;
  // Allocate the child identity: fresh SliceId, slice_index one past the
  // operator's current maximum. Indices stay sparse after merges — routing
  // goes by coverage and downstream completion by fan membership, so only
  // uniqueness matters.
  StaticConfig::OperatorInfo& op = mutable_op_of(t.report.parent);
  const std::uint32_t op_index = static_->info_of(t.report.parent).op_index;
  std::uint32_t child_index = 0;
  for (const SliceId s : op.slices) {
    child_index = std::max(child_index, static_->info_of(s).slice_index + 1);
  }
  const SliceId child{next_slice_++};
  t.report.child = child;
  mutable_static_->slice_infos[child] =
      StaticConfig::SliceInfo{op_index, child_index};
  const KeyCoverage parent_now = slice_coverage(t.report.parent);
  t.parent_cov = parent_now.split_parent();
  t.child_cov = parent_now.split_child();
  // Replica + directory registration precede the cut-over, so every event
  // ever routed to the child is either buffered by the replica or delivered
  // after activation.
  directory_[child] = SliceLocation{t.dst, HostId{}};
  auto req = std::make_shared<CreateReplicaRequest>();
  req->migration = t.report.id;
  req->slice = child;
  req->reply_to = control_endpoint_;
  send_control(host_runtimes_.at(t.dst)->endpoint(), std::move(req));
  t.pending_update_hosts.clear();
  // lint:allow(unordered-iteration): fills a std::set, order-free
  for (const auto& [id, runtime] : host_runtimes_) {
    t.pending_update_hosts.insert(id);
  }
  // Sorted: send order serializes on the manager NIC.
  for (const HostId id : sorted_keys(host_runtimes_)) {
    auto update = std::make_shared<DirectoryUpdateMessage>();
    update->migration = t.report.id;
    update->slice = child;
    update->host = t.dst;
    update->reply_to = control_endpoint_;
    send_control(host_runtimes_.at(id)->endpoint(), std::move(update));
  }
  fire_elastic_step(to_string(SplitStep::kCreateChild));
}

void Engine::split_cutover() {
  TransitionTask& t = *current_transition_;
  t.set_split_step(SplitStep::kCutOver);
  StaticConfig::OperatorInfo& op = mutable_op_of(t.report.parent);
  std::size_t pos = op.slices.size();
  for (std::size_t i = 0; i < op.slices.size(); ++i) {
    if (op.slices[i] == t.report.parent) pos = i;
  }
  if (testing_corrupt_split_plan) {
    // Seeded fault: "forget" to refine the parent, leaving parent and child
    // overlapping. The completeness contract below must trip.
    testing_corrupt_split_plan = false;
  } else {
    op.coverages.at(pos) = t.parent_cov;
  }
  op.slices.push_back(t.report.child);
  op.coverages.push_back(t.child_cov);
  op.refined = true;
  ESH_INVARIANT("engine", "key-coverage-complete",
                coverage_complete(op.coverages, op.coverage_base),
                ::esh::contracts::Detail{}
                    .slice(t.report.parent)
                    .note("split cut-over of operator " + op.name));
  t.report.cutover = simulator_.now();
  SliceRuntime* parent = slice_runtime(t.report.parent);
  SliceRuntime::SplitSpec spec;
  spec.transition = t.report.id;
  spec.child = t.report.child;
  spec.child_cov = t.child_cov;
  spec.cutover = capture_cut_vector(t.report.parent);
  spec.reply_to = control_endpoint_;
  if (config_.checkpoints.enabled) {
    RollForward roll;
    roll.role = RollForward::Role::kSplitParent;
    roll.transition = t.report.id;
    roll.epoch = parent->coverage_epoch() + 1;
    roll.other = t.report.child;
    roll.cov = t.child_cov;
    roll.cutover = spec.cutover;
    rollforward_[t.report.parent] = std::move(roll);
  }
  parent->begin_split(std::move(spec));
  t.set_split_step(SplitStep::kDrain);
  fire_elastic_step(to_string(SplitStep::kDrain));
}

void Engine::begin_merge_transition() {
  TransitionTask& t = *current_transition_;
  const SliceId survivor = t.report.parent;
  const SliceId retiree = t.report.child;
  t.retiree_host = directory_.at(retiree).primary;
  t.merged_cov = slice_coverage(survivor).merged();
  SliceRuntime* survivor_rt = slice_runtime(survivor);
  SliceRuntime* retiree_rt = slice_runtime(retiree);
  // Cut vectors and the routing flip happen at one simulated instant, so
  // order within this callback is immaterial: no event moves in between.
  const auto survivor_cut = capture_cut_vector(survivor);
  const auto retiree_final = capture_cut_vector(retiree);
  StaticConfig::OperatorInfo& op = mutable_op_of(survivor);
  std::size_t surv_pos = op.slices.size();
  std::size_t ret_pos = op.slices.size();
  for (std::size_t i = 0; i < op.slices.size(); ++i) {
    if (op.slices[i] == survivor) surv_pos = i;
    if (op.slices[i] == retiree) ret_pos = i;
  }
  op.coverages.at(surv_pos) = t.merged_cov;
  op.slices.erase(op.slices.begin() + static_cast<std::ptrdiff_t>(ret_pos));
  op.coverages.erase(op.coverages.begin() +
                     static_cast<std::ptrdiff_t>(ret_pos));
  ESH_INVARIANT("engine", "key-coverage-complete",
                coverage_complete(op.coverages, op.coverage_base),
                ::esh::contracts::Detail{}
                    .slice(survivor)
                    .note("merge cut-over of operator " + op.name));
  t.report.cutover = simulator_.now();
  if (config_.checkpoints.enabled) {
    RollForward surv_roll;
    surv_roll.role = RollForward::Role::kMergeSurvivor;
    surv_roll.transition = t.report.id;
    surv_roll.epoch = survivor_rt->coverage_epoch() + 1;
    surv_roll.other = retiree;
    surv_roll.cutover = survivor_cut;
    rollforward_[survivor] = std::move(surv_roll);
    RollForward ret_roll;
    ret_roll.role = RollForward::Role::kMergeRetiree;
    ret_roll.transition = t.report.id;
    ret_roll.epoch = retiree_rt->coverage_epoch() + 1;
    ret_roll.other = survivor;
    ret_roll.cutover = retiree_final;
    rollforward_[retiree] = std::move(ret_roll);
  }
  SliceRuntime::AbsorbSpec absorb;
  absorb.transition = t.report.id;
  absorb.retiree = retiree;
  absorb.cutover = survivor_cut;
  absorb.reply_to = control_endpoint_;
  survivor_rt->begin_absorb(std::move(absorb));
  SliceRuntime::FreezeSpec freeze;
  freeze.migration = t.report.id;
  freeze.catchup = retiree_final;
  freeze.dst_host = HostId{};
  freeze.reply_to = control_endpoint_;
  freeze.merge_capture = true;
  retiree_rt->request_freeze(std::move(freeze));
  t.set_merge_step(MergeStep::kDrainRetiree);
  fire_elastic_step(to_string(MergeStep::kDrainRetiree));
}

bool Engine::handle_transition_control(const net::Message* msg) {
  if (const auto* cap = dynamic_cast<const SplitStateMessage*>(msg)) {
    if (current_transition_ &&
        cap->transition == current_transition_->report.id &&
        current_transition_->report.kind == TransitionKind::kSplit &&
        current_transition_->split_step == SplitStep::kDrain) {
      TransitionTask& t = *current_transition_;
      t.report.moved = cap->moved;
      // The captured half becomes a synthetic checkpoint: the child
      // activates through the ordinary recovery path, channels starting
      // fresh at sequence 1 (empty watermarks ask for a full replay of the
      // post-cut-over traffic the logs / replica buffer hold).
      checkpoints_[t.report.child] =
          StoredCheckpoint{cap->state, {}, {}, {}, 0};
      t.set_split_step(SplitStep::kActivate);
      recover_slice(t.report.child, t.dst, [this, id = t.report.id] {
        if (current_transition_ && current_transition_->report.id == id) {
          finish_transition(true);
        }
      });
      fire_elastic_step(to_string(SplitStep::kActivate));
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
        checkpoints_[cap->child] = StoredCheckpoint{cap->state, {}, {}, {}, 0};
      }
    }
    return true;
  }

  if (const auto* cap = dynamic_cast<const MergeStateMessage*>(msg)) {
    if (current_transition_ &&
        cap->transition == current_transition_->report.id &&
        current_transition_->report.kind == TransitionKind::kMerge &&
        current_transition_->merge_step == MergeStep::kDrainRetiree) {
      TransitionTask& t = *current_transition_;
      // The retiree's routable identity ends here: erase its directory
      // entry and checkpoint so no recovery sweep resurrects a zombie copy.
      directory_.erase(t.report.child);
      checkpoints_.erase(t.report.child);
      rollforward_.erase(t.report.child);
      pending_replays_.erase(t.report.child);
      if (auto roll = rollforward_.find(t.report.parent);
          roll != rollforward_.end() &&
          roll->second.transition == t.report.id) {
        roll->second.state = cap->state;
        roll->second.log = cap->log;
        roll->second.state_ready = true;
      }
      t.set_merge_step(MergeStep::kAbsorb);
      // Ship to the survivor's current primary. If the survivor is lost or
      // mid-recovery the request is dropped there — its recovery re-drives
      // the absorb from the RollForward stash instead.
      const auto loc = directory_.find(t.report.parent);
      if (loc != directory_.end() &&
          host_runtimes_.contains(loc->second.primary)) {
        auto req = std::make_shared<MergeAbsorbRequest>();
        req->transition = t.report.id;
        req->survivor = t.report.parent;
        req->retiree = t.report.child;
        req->state = cap->state;
        req->log = cap->log;
        req->reply_to = control_endpoint_;
        const std::size_t bytes =
            (cap->state ? cap->state->size() : 0) + 64 * cap->log.size() + 96;
        send_control(host_runtimes_.at(loc->second.primary)->endpoint(),
                     std::move(req), bytes);
      }
      fire_elastic_step(to_string(MergeStep::kAbsorb));
      return true;
    }
    return true;  // stale duplicate from a re-driven retiree leg
  }

  if (const auto* ack = dynamic_cast<const MergeAbsorbAck*>(msg)) {
    if (current_transition_ &&
        ack->transition == current_transition_->report.id &&
        current_transition_->report.kind == TransitionKind::kMerge &&
        current_transition_->merge_step == MergeStep::kAbsorb) {
      TransitionTask& t = *current_transition_;
      t.set_merge_step(MergeStep::kTeardown);
      const bool retiree_live = host_runtimes_.contains(t.retiree_host);
      if (retiree_live) {
        auto req = std::make_shared<TeardownRequest>();
        req->migration = t.report.id;
        req->slice = t.report.child;
        req->reply_to = control_endpoint_;
        send_control(host_runtimes_.at(t.retiree_host)->endpoint(),
                     std::move(req));
      }
      if (fire_elastic_step(to_string(MergeStep::kTeardown)) &&
          !retiree_live) {
        finish_transition(true);
      }
    }
    return true;  // stale duplicate from a re-driven survivor leg
  }

  if (!current_transition_) return false;
  TransitionTask& t = *current_transition_;

  if (const auto* ack = dynamic_cast<const CreateReplicaAck*>(msg)) {
    if (ack->migration != t.report.id) return false;
    if (t.report.kind == TransitionKind::kSplit &&
        t.split_step == SplitStep::kCreateChild) {
      t.create_acked = true;
      if (t.pending_update_hosts.empty()) split_cutover();
    }
    return true;
  }
  if (const auto* ack = dynamic_cast<const DirectoryUpdateAck*>(msg)) {
    if (ack->migration != t.report.id) return false;
    if (t.report.kind == TransitionKind::kSplit &&
        t.split_step == SplitStep::kCreateChild) {
      t.pending_update_hosts.erase(ack->from_host);
      if (t.create_acked && t.pending_update_hosts.empty()) split_cutover();
    }
    return true;
  }
  if (const auto* ack = dynamic_cast<const TeardownAck*>(msg)) {
    if (ack->migration != t.report.id) return false;
    if (t.report.kind == TransitionKind::kMerge &&
        t.merge_step == MergeStep::kTeardown) {
      finish_transition(true);
    }
    return true;
  }
  if (const auto* ack = dynamic_cast<const AbortReplicaAck*>(msg)) {
    if (ack->migration != t.report.id) return false;
    if (t.report.kind == TransitionKind::kSplit &&
        t.split_step == SplitStep::kAborting) {
      finish_transition(false);
    }
    return true;
  }
  return false;
}

void Engine::handle_transition_host_failure(HostId host) {
  if (!current_transition_) return;
  TransitionTask& t = *current_transition_;

  if (t.report.kind == TransitionKind::kMerge) {
    // Every merge leg re-drives through RollForward after the lost slice
    // recovers; the only coordinator action is resolving a teardown aimed
    // at a host that just died.
    if (t.merge_step == MergeStep::kTeardown && host == t.retiree_host) {
      finish_transition(true);
    }
    return;
  }

  if (host == t.dst) {
    switch (t.split_step) {
      case SplitStep::kCreateChild:
        // Nothing routed to the child yet and its replica died with the
        // host: abort the split outright.
        t.set_split_step(SplitStep::kAborting);
        directory_.erase(t.report.child);
        mutable_static_->slice_infos.erase(t.report.child);
        finish_transition(false);
        return;
      case SplitStep::kCutOver:
        return;  // transient within one callback; never observed here
      case SplitStep::kDrain:
      case SplitStep::kActivate: {
        // Post-cut-over the split can only roll forward: re-home the child
        // on a deterministic replacement (smallest live host). Events
        // routed there before the restore lands are dropped-but-logged
        // upstream and replayed after activation.
        const std::vector<HostId> live = hosts();
        if (live.empty()) return;  // no cluster left; nothing to drive
        t.dst = live.front();
        directory_[t.report.child] = SliceLocation{t.dst, HostId{}};
        broadcast_location(t.report.child, t.dst);
        if (t.split_step == SplitStep::kActivate) {
          // The restore went to the dead host; re-issue it.
          recover_slice(t.report.child, t.dst, [this, id = t.report.id] {
            if (current_transition_ && current_transition_->report.id == id) {
              finish_transition(true);
            }
          });
        }
        return;
      }
      case SplitStep::kAborting:
        // The abort-replica ack died with the host.
        finish_transition(false);
        return;
    }
    return;
  }

  const auto parent_loc = directory_.find(t.report.parent);
  if (parent_loc != directory_.end() && parent_loc->second.primary == host) {
    switch (t.split_step) {
      case SplitStep::kCreateChild: {
        // Parent lost pre-cut-over: abort, tearing the child replica down.
        t.set_split_step(SplitStep::kAborting);
        auto req = std::make_shared<AbortReplicaRequest>();
        req->migration = t.report.id;
        req->slice = t.report.child;
        req->reply_to = control_endpoint_;
        send_control(host_runtimes_.at(t.dst)->endpoint(), std::move(req));
        return;
      }
      case SplitStep::kCutOver:
      case SplitStep::kDrain:
      case SplitStep::kActivate:
        // Post-cut-over the parent's leg re-drives through RollForward
        // after recovery; the coordinator keeps waiting.
        return;
      case SplitStep::kAborting:
        return;  // abort ack comes from dst, unaffected
    }
    return;
  }

  // A third host died: strike it from the outstanding directory-ack set.
  if (t.split_step == SplitStep::kCreateChild) {
    t.pending_update_hosts.erase(host);
    if (t.create_acked && t.pending_update_hosts.empty()) split_cutover();
  }
}

void Engine::redrive_rollforward(SliceId slice) {
  auto it = rollforward_.find(slice);
  if (it == rollforward_.end()) return;
  RollForward& roll = it->second;
  SliceRuntime* rt = slice_runtime(slice);
  if (rt == nullptr) return;
  switch (roll.role) {
    case RollForward::Role::kSplitParent: {
      SliceRuntime::SplitSpec spec;
      spec.transition = roll.transition;
      spec.child = roll.other;
      spec.child_cov = roll.cov;
      spec.cutover = roll.cutover;
      spec.reply_to = control_endpoint_;
      rt->begin_split(std::move(spec));
      return;
    }
    case RollForward::Role::kMergeSurvivor: {
      SliceRuntime::AbsorbSpec spec;
      spec.transition = roll.transition;
      spec.retiree = roll.other;
      spec.cutover = roll.cutover;
      spec.reply_to = control_endpoint_;
      rt->begin_absorb(std::move(spec));
      if (roll.state_ready) rt->deliver_absorb_state(roll.state, roll.log);
      return;
    }
    case RollForward::Role::kMergeRetiree: {
      SliceRuntime::FreezeSpec spec;
      spec.migration = roll.transition;
      spec.catchup = roll.cutover;
      spec.dst_host = HostId{};
      spec.reply_to = control_endpoint_;
      spec.merge_capture = true;
      rt->request_freeze(std::move(spec));
      return;
    }
  }
}

void Engine::broadcast_location(SliceId slice, HostId host) {
  // Sorted: send order serializes on the manager NIC and decides per-host
  // delivery times.
  for (const HostId id : sorted_keys(host_runtimes_)) {
    auto update = std::make_shared<DirectoryUpdateMessage>();
    update->migration = MigrationId{};
    update->slice = slice;
    update->host = host;
    update->reply_to = net::Endpoint{};  // no ack needed
    send_control(host_runtimes_.at(id)->endpoint(), std::move(update));
  }
}

void Engine::after_directory_acks() {
  MigrationTask& t = *current_migration_;
  if (!host_runtimes_.contains(t.report.src)) {
    // The source died after activation: nothing left to tear down, the
    // slice is safe on the destination.
    finish_migration(MigrationOutcome::kCompleted);
    return;
  }
  t.set_step(MigrationTask::Step::kTeardown);
  migration_step([this] {
    MigrationTask& t = *current_migration_;
    auto req = std::make_shared<TeardownRequest>();
    req->migration = t.report.id;
    req->slice = t.report.slice;
    req->reply_to = control_endpoint_;
    send_control(host_runtimes_.at(t.report.src)->endpoint(), std::move(req));
  });
  fire_migration_step();
}

void Engine::handle_host_failure(HostId host) {
  if (!current_migration_) return;
  MigrationTask& t = *current_migration_;
  using Step = MigrationTask::Step;
  const SliceId slice = t.report.slice;

  if (host == t.report.dst) {
    switch (t.step) {
      case Step::kCreateReplica:
        // No duplication started yet; the replica died with the host.
        finish_migration(MigrationOutcome::kAbortedDstFailed);
        return;
      case Step::kDuplication:
      case Step::kPrecopy:
        // Upstreams may already duplicate to the dead host: stop them. The
        // source never stopped serving (pre-copy rounds run while active),
        // so nothing else needs repair.
        directory_[slice].shadow = HostId{};
        directory_[slice].redirect = false;
        broadcast_location(slice, t.report.src);
        finish_migration(MigrationOutcome::kAbortedDstFailed);
        return;
      case Step::kPark:
      case Step::kTransfer: {
        // The freeze may or may not have reached the source. Ask it to
        // resume the slice; if the state already shipped (to a dead host),
        // the source reports the slice unusable and it goes to recovery.
        t.set_step(Step::kAborting);
        t.abort_peer = t.report.src;
        t.abort_outcome = MigrationOutcome::kAbortedDstFailed;
        auto req = std::make_shared<AbortMigrationRequest>();
        req->migration = t.report.id;
        req->slice = slice;
        req->reply_to = control_endpoint_;
        // Both new strategies freeze the source only at their final
        // stop-and-copy point, so a frozen source is exact at its freeze
        // watermark: it may thaw in place and have the missing suffix
        // replayed from the upstream logs, instead of being evicted into
        // recovery. Buffered-replay keeps its original abort semantics.
        req->thaw_frozen =
            t.strategy->kind() != MigrationStrategyKind::kBufferedReplay;
        send_control(host_runtimes_.at(t.report.src)->endpoint(),
                     std::move(req));
        return;
      }
      case Step::kDirectoryUpdate:
        // Already activated on dst: the move completed, then the host
        // died. The lost slice is recovery's problem; converge survivors.
        t.pending_update_hosts.erase(host);
        if (t.pending_update_hosts.empty()) after_directory_acks();
        return;
      case Step::kTeardown:
        return;  // teardown targets the source; unaffected
      case Step::kAborting:
        if (host == t.abort_peer) finish_migration(t.abort_outcome);
        return;
    }
    return;
  }

  if (host == t.report.src) {
    switch (t.step) {
      case Step::kCreateReplica:
      case Step::kDuplication:
      case Step::kPark:
      case Step::kPrecopy:
      case Step::kTransfer: {
        // The slice was lost with the source. The replica on dst must be
        // torn down — unless the state transfer raced ahead and it already
        // activated, in which case the migration completed. Ask dst.
        directory_[slice].shadow = HostId{};
        directory_[slice].redirect = false;
        t.set_step(Step::kAborting);
        t.abort_peer = t.report.dst;
        t.abort_outcome = MigrationOutcome::kAbortedSrcFailed;
        auto req = std::make_shared<AbortReplicaRequest>();
        req->migration = t.report.id;
        req->slice = slice;
        req->reply_to = control_endpoint_;
        send_control(host_runtimes_.at(t.report.dst)->endpoint(),
                     std::move(req));
        return;
      }
      case Step::kDirectoryUpdate:
        t.pending_update_hosts.erase(host);
        if (t.pending_update_hosts.empty()) after_directory_acks();
        return;
      case Step::kTeardown:
        // The dead source was the last protocol participant.
        finish_migration(MigrationOutcome::kCompleted);
        return;
      case Step::kAborting:
        if (host == t.abort_peer) finish_migration(t.abort_outcome);
        return;
    }
    return;
  }

  // A third host died: strike it from any outstanding ack set so the
  // protocol does not wait for a host that will never answer.
  if (t.step == Step::kDuplication || t.step == Step::kPark) {
    for (auto it = t.pending_dup_slices.begin();
         it != t.pending_dup_slices.end();) {
      if (directory_.at(*it).primary == host) {
        // The upstream died with its host; its channel gets no catch-up
        // entry. Once recovered, its replayed suffix reaches the replica
        // through shadow duplication (or the park redirect) like any live
        // traffic.
        it = t.pending_dup_slices.erase(it);
      } else {
        ++it;
      }
    }
    if (t.pending_dup_slices.empty()) advance_after_duplication();
  } else if (t.step == Step::kDirectoryUpdate) {
    t.pending_update_hosts.erase(host);
    if (t.pending_update_hosts.empty()) after_directory_acks();
  }
}

void Engine::send_freeze() {
  MigrationTask& t = *current_migration_;
  auto req = std::make_shared<FreezeRequest>();
  req->migration = t.report.id;
  req->slice = t.report.slice;
  req->catchup = t.catchup;
  req->dst_host = t.report.dst;
  req->reply_to = control_endpoint_;
  // After pre-copy rounds the replica holds a patched baseline image; the
  // final stop-and-copy ships only the dirty pages against it.
  req->delta = t.strategy->delta_transfer() && t.round > 0;
  send_control(host_runtimes_.at(t.report.src)->endpoint(), std::move(req));
}

void Engine::repair_redirected_channels(
    SliceId slice, const std::vector<std::pair<SliceId, SeqNo>>& processed) {
  // Same replay machinery recovery uses: every host re-sends its logged
  // suffix above the source's per-channel watermarks (channel sequence
  // numbers deduplicate anything the source did see). Ordered after the
  // broadcast_location in the caller, so per-destination FIFO applies the
  // location fix before any replayed event arrives.
  auto replay = std::make_shared<ReplayRequest>();
  replay->slice = slice;
  replay->processed = processed;
  // Sorted: send order serializes on the manager NIC.
  for (const HostId id : sorted_keys(host_runtimes_)) {
    send_control(host_runtimes_.at(id)->endpoint(), replay);
  }
  // External injections: re-deliver the logged suffix directly.
  SeqNo external_watermark = 0;
  for (const auto& [upstream, watermark] : processed) {
    if (upstream == kExternalChannel) external_watermark = watermark;
  }
  const auto log = inject_log_.find(slice);
  if (log == inject_log_.end()) return;
  const auto loc = directory_.find(slice);
  if (loc == directory_.end()) return;
  const auto host_it = host_runtimes_.find(loc->second.primary);
  if (host_it == host_runtimes_.end()) return;
  for (const WireEvent& event : log->second) {
    if (event.seq > external_watermark) {
      host_it->second->deliver_external(event);
    }
  }
}

void Engine::step_after_tick(std::function<void()> fn) {
  const auto tick = static_cast<std::uint64_t>(config_.control_tick.count());
  const auto delay =
      tick == 0 ? SimDuration::zero()
                : micros(static_cast<std::int64_t>(rng_.next_below(tick)));
  simulator_.schedule(delay, std::move(fn));
}

void Engine::migration_step(std::function<void()> fn) {
  // A migration can be aborted (and a successor started) while a scheduled
  // step is in flight: the guard keeps a stale step from firing into the
  // wrong migration, and from racing an abort handshake (e.g. sending the
  // freeze after the source was already told to resume the slice).
  const MigrationId id = current_migration_->report.id;
  step_after_tick([this, id, fn = std::move(fn)] {
    if (current_migration_ && current_migration_->report.id == id &&
        current_migration_->step != MigrationTask::Step::kAborting) {
      fn();
    }
  });
}

void Engine::send_control(net::Endpoint to, net::MessagePtr msg,
                          std::size_t bytes) {
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

void Engine::register_recovery_rebases(SliceId slice) {
  // Single-input slices replay their one channel in the original order, so
  // the regenerated output keeps the original numbering and downstream
  // dedup stays valid; only multi-input interleavings renumber.
  const std::size_t input_channels =
      upstream_slices(slice).size() +
      (next_inject_seq_.contains(slice) ? 1 : 0);
  if (input_channels <= 1) return;
  std::vector<std::pair<SliceId, SeqNo>> out_bases;
  if (auto cp = checkpoints_.find(slice); cp != checkpoints_.end()) {
    out_bases = cp->second.out_seqs;
  }
  // A consumer absent from out_bases never received anything pre-cut and
  // rewinds to 1, mirroring handle_directory_update's default.
  auto& rebases = recovery_rebases_[slice];
  rebases.clear();
  for (const SliceId down : downstream_slices(slice)) {
    SeqNo base = 1;
    for (const auto& [target, next] : out_bases) {
      if (target == down) base = next;
    }
    rebases[down] = base;
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
    checkpoints_[checkpoint->slice] =
        StoredCheckpoint{checkpoint->state, checkpoint->processed,
                         checkpoint->out_seqs, checkpoint->log,
                         checkpoint->coverage_epoch};
    // A checkpoint at or past a pending split/merge capture's coverage
    // epoch proves that capture durable: the roll-forward record is spent,
    // and a transition deferred behind it may start.
    if (auto roll = rollforward_.find(checkpoint->slice);
        roll != rollforward_.end() &&
        checkpoint->coverage_epoch >= roll->second.epoch) {
      rollforward_.erase(roll);
      start_next_transition();
    }
    // A checkpoint whose watermark reaches a recovered upstream's
    // regenerated base proves this consumer advanced in the new numbering;
    // the rebase entry is spent. (Narrow known race: a pre-crash checkpoint
    // still in flight from a now-dead consumer can spend the entry with an
    // old-numbering watermark — it is also the restore point recovery will
    // resume from, so the window is a single checkpoint interval.)
    for (const auto& [upstream, watermark] : checkpoint->processed) {
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
    notice->processed = checkpoint->processed;
    for (const auto& [upstream, watermark] : checkpoint->processed) {
      if (upstream == kExternalChannel) {
        auto log = inject_log_.find(checkpoint->slice);
        if (log != inject_log_.end()) {
          auto& events = log->second;
          while (!events.empty() && events.front().seq <= watermark) {
            events.pop_front();
          }
        }
      }
    }
    // Sorted: broadcast order serializes on the manager NIC.
    for (const HostId id : sorted_keys(host_runtimes_)) {
      send_control(host_runtimes_.at(id)->endpoint(), notice);
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
    // With a single input channel the replay re-creates the original event
    // order exactly, so the regenerated output matches the original
    // sequence numbering and downstream dedup stays valid. Only multi-input
    // slices can interleave replayed channels differently and need their
    // downstream channels rewound to the restored bases.
    const std::size_t input_channels =
        upstream_slices(ack->slice).size() +
        (next_inject_seq_.contains(ack->slice) ? 1 : 0);
    // This recovery renumbers a multi-input slice's output (fresh
    // interleaving from the checkpoint cut). Refresh the per-consumer
    // regenerated bases (first recorded at fail_host time) so consumers
    // that recover later rewind their restored watermarks to them.
    register_recovery_rebases(ack->slice);
    // Sorted: broadcast order serializes on the manager NIC and decides
    // when each survivor rewinds / starts replaying.
    for (const HostId id : sorted_keys(host_runtimes_)) {
      auto update = std::make_shared<DirectoryUpdateMessage>();
      update->migration = MigrationId{};
      update->slice = ack->slice;
      update->host = dst;
      update->reply_to = net::Endpoint{};  // no ack needed
      update->reset_channels = input_channels > 1;
      update->out_bases = out_bases;
      send_control(host_runtimes_.at(id)->endpoint(), update);
    }
    auto replay = std::make_shared<ReplayRequest>();
    replay->slice = ack->slice;
    replay->processed = processed;
    for (const HostId id : sorted_keys(host_runtimes_)) {
      send_control(host_runtimes_.at(id)->endpoint(), replay);
    }
    // Co-recovery rendezvous: slices recovered before this one broadcast
    // their replay requests while this slice was not live anywhere, so the
    // events only its (restored) log holds were never re-sent. Re-deliver
    // those requests to the new host; channel/handler deduplication
    // absorbs any redundancy.
    const auto dst_endpoint = host_runtimes_.at(dst)->endpoint();
    // Sorted: re-sent replay requests serialize on the manager NIC too.
    for (const SliceId other : sorted_keys(pending_replays_)) {
      if (other == ack->slice) continue;
      auto again = std::make_shared<ReplayRequest>();
      again->slice = other;
      again->processed = pending_replays_.at(other);
      send_control(dst_endpoint, again);
    }
    pending_replays_[ack->slice] = processed;
    // External injections: re-deliver the logged suffix directly.
    SeqNo external_watermark = 0;
    for (const auto& [upstream, watermark] : processed) {
      if (upstream == kExternalChannel) external_watermark = watermark;
    }
    auto log = inject_log_.find(ack->slice);
    if (log != inject_log_.end()) {
      auto dst_runtime = host_runtimes_.find(dst);
      for (const WireEvent& event : log->second) {
        if (event.seq > external_watermark &&
            dst_runtime != host_runtimes_.end()) {
          dst_runtime->second->deliver_external(event);
        }
      }
    }
    // A pending split/merge capture on this slice replays now, from the
    // freshly restored state — deterministically identical to the original.
    redrive_rollforward(ack->slice);
    auto done = std::move(recovery->second);
    recoveries_.erase(recovery);
    if (done) done();
    return;
  }

  // ---- split / merge traffic (ids never clash with migrations: both
  // families draw from the same counter) ----
  if (handle_transition_control(msg)) return;

  if (!current_migration_) {
    ESH_WARN << "Engine: control message with no migration in flight";
    return;
  }
  MigrationTask& task = *current_migration_;
  using Step = MigrationTask::Step;

  if (const auto* ack = dynamic_cast<const CreateReplicaAck*>(msg)) {
    if (ack->migration != task.report.id ||
        task.step != Step::kCreateReplica) {
      return;
    }
    // Duplication (or, for a redirecting strategy, the park hand-off) of the
    // external injection channel starts now: record the shadow
    // (Engine::inject consults it) and the catch-up point.
    directory_[task.report.slice].shadow = task.report.dst;
    directory_[task.report.slice].redirect =
        task.strategy->redirect_channels();
    task.catchup.clear();
    const auto inject_it = next_inject_seq_.find(task.report.slice);
    task.catchup.emplace_back(
        kExternalChannel,
        inject_it == next_inject_seq_.end() ? SeqNo{1} : inject_it->second);

    task.pending_dup_slices.clear();
    std::set<HostId> hosts;
    for (SliceId up : upstream_slices(task.report.slice)) {
      const HostId up_host = directory_.at(up).primary;
      // A lost upstream (host dead, recovery pending) cannot ack; once it
      // recovers, its replayed suffix reaches the replica through shadow
      // duplication like any live traffic.
      if (!host_runtimes_.contains(up_host)) continue;
      task.pending_dup_slices.insert(up);
      hosts.insert(up_host);
    }
    if (task.pending_dup_slices.empty()) {
      // No live DAG channels (source operator): pre-copy or freeze directly.
      advance_after_duplication();
      return;
    }
    task.set_step(task.strategy->redirect_channels() ? Step::kPark
                                                     : Step::kDuplication);
    // One request per host holding at least one upstream slice.
    migration_step([this, hosts] {
      MigrationTask& t = *current_migration_;
      for (HostId host : hosts) {
        if (!host_runtimes_.contains(host)) continue;  // died meanwhile
        auto req = std::make_shared<StartDuplicationRequest>();
        req->migration = t.report.id;
        req->slice = t.report.slice;
        req->shadow_host = t.report.dst;
        req->redirect = t.strategy->redirect_channels();
        req->reply_to = control_endpoint_;
        send_control(host_runtimes_.at(host)->endpoint(), std::move(req));
      }
    });
    fire_migration_step();
    return;
  }

  if (const auto* ack = dynamic_cast<const StartDuplicationAck*>(msg)) {
    if (ack->migration != task.report.id ||
        (task.step != Step::kDuplication && task.step != Step::kPark)) {
      return;
    }
    if (task.pending_dup_slices.erase(ack->upstream_slice) == 0) return;
    task.catchup.emplace_back(ack->upstream_slice, ack->next_seq);
    if (!task.pending_dup_slices.empty()) return;
    advance_after_duplication();
    return;
  }

  if (const auto* ack = dynamic_cast<const PrecopyAck*>(msg)) {
    if (ack->migration != task.report.id || task.step != Step::kPrecopy ||
        ack->round != task.round) {
      return;
    }
    task.precopy_bytes += ack->bytes;
    // Another round while the budget lasts and the state is still dirtying;
    // a zero-delta round means the next diff would be empty too, so cut to
    // the final stop-and-copy early.
    bool more =
        task.round < task.strategy->precopy_rounds(config_) && ack->bytes > 0;
    if (testing_force_extra_precopy_round && !more) {
      // Seeded fault: issue one round past the bound; the
      // precopy-rounds-bounded contract in start_precopy_round must trip.
      testing_force_extra_precopy_round = false;
      more = true;
    }
    if (more) {
      task.set_step(Step::kPrecopy);  // self-edge: next round
      start_precopy_round();
    } else {
      task.set_step(Step::kTransfer);
      migration_step([this] { send_freeze(); });
      fire_migration_step();
    }
    return;
  }

  if (const auto* ack = dynamic_cast<const ActivatedAck*>(msg)) {
    if (ack->migration != task.report.id) return;
    // Ignore an activation that raced a destination crash: the activated
    // copy died with the host and the slice goes through the abort path.
    if (!host_runtimes_.contains(task.report.dst)) return;
    if (task.step != Step::kTransfer && task.step != Step::kAborting) return;
    task.report.frozen = ack->frozen_at;
    task.report.activated = ack->activated_at;
    task.report.state_bytes = ack->state_bytes;
    task.report.transfer_bytes = ack->transfer_bytes;
#if ESH_INVARIANTS_ENABLED
    if (task.strategy->redirect_channels()) {
      // Stop-and-restart: the park drained the source to a freeze before the
      // state ever shipped, so the replica going live with the source still
      // active would mean two primaries serving the slice at once.
      SliceRuntime* src_rt = nullptr;
      if (auto src_it = host_runtimes_.find(task.report.src);
          src_it != host_runtimes_.end()) {
        src_rt = src_it->second->slice(task.report.slice);
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
                        .slice(task.report.slice)
                        .expected("source frozen/retired at activation")
                        .actual(src_rt != nullptr ? to_string(src_rt->state())
                                                  : "gone")
                        .note("migration " +
                              std::to_string(task.report.id.value())));
    }
#endif
    directory_[task.report.slice] =
        SliceLocation{task.report.dst, HostId{}};
    task.set_step(Step::kDirectoryUpdate);
    task.pending_update_hosts.clear();
    // lint:allow(unordered-iteration): fills a std::set, order-free
    for (const auto& [id, runtime] : host_runtimes_) {
      task.pending_update_hosts.insert(id);
    }
    migration_step([this] {
      MigrationTask& t = *current_migration_;
      // Sorted: update send order serializes on the manager NIC.
      for (const HostId id : sorted_keys(host_runtimes_)) {
        auto update = std::make_shared<DirectoryUpdateMessage>();
        update->migration = t.report.id;
        update->slice = t.report.slice;
        update->host = t.report.dst;
        update->reply_to = control_endpoint_;
        send_control(host_runtimes_.at(id)->endpoint(), std::move(update));
      }
    });
    fire_migration_step();
    return;
  }

  if (const auto* ack = dynamic_cast<const DirectoryUpdateAck*>(msg)) {
    if (ack->migration != task.report.id ||
        task.step != Step::kDirectoryUpdate) {
      return;
    }
    task.pending_update_hosts.erase(ack->from_host);
    if (task.pending_update_hosts.empty()) after_directory_acks();
    return;
  }

  if (const auto* ack = dynamic_cast<const TeardownAck*>(msg)) {
    if (ack->migration != task.report.id || task.step != Step::kTeardown) {
      return;
    }
    finish_migration(MigrationOutcome::kCompleted);
    return;
  }

  if (const auto* ack = dynamic_cast<const AbortMigrationAck*>(msg)) {
    if (ack->migration != task.report.id || task.step != Step::kAborting) {
      return;
    }
    // The source resolved the abort: either the slice resumed in place, or
    // its frozen state shipped to the dead destination and it needs
    // recovery. Either way, stop any lingering duplication.
    directory_[task.report.slice].shadow = HostId{};
    directory_[task.report.slice].redirect = false;
    broadcast_location(task.report.slice,
                       directory_.at(task.report.slice).primary);
    if (ack->resumed && (task.strategy->redirect_channels() || ack->thawed)) {
      // Stop-and-restart: everything redirected since the park went only to
      // the now-dead replica, so the resumed source needs the suffix replayed
      // whether or not it reached its freeze. A thawed pre-copy source needs
      // the same replay for the events dropped during its final freeze.
      // Either way the upstream logs re-send above the source's watermarks.
      repair_redirected_channels(task.report.slice, ack->processed);
    }
    if (!ack->resumed) {
      ESH_WARN << "Engine: migration abort lost slice "
               << task.report.slice.value() << " (state shipped to dead host)";
    }
    finish_migration(task.abort_outcome);
    return;
  }

  if (const auto* ack = dynamic_cast<const AbortReplicaAck*>(msg)) {
    if (ack->migration != task.report.id || task.step != Step::kAborting) {
      return;
    }
    if (ack->was_active) {
      // The state transfer raced the abort and the replica went live: the
      // migration actually completed despite the source's death.
      directory_[task.report.slice] =
          SliceLocation{task.report.dst, HostId{}};
      broadcast_location(task.report.slice, task.report.dst);
      finish_migration(MigrationOutcome::kCompleted);
      return;
    }
    directory_[task.report.slice].shadow = HostId{};
    directory_[task.report.slice].redirect = false;
    broadcast_location(task.report.slice,
                       directory_.at(task.report.slice).primary);
    finish_migration(task.abort_outcome);
    return;
  }

  ESH_WARN << "Engine: unrecognized control message";
}

}  // namespace esh::engine
