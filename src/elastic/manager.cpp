#include "elastic/manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "engine/event.hpp"

namespace esh::elastic {

Manager::Manager(sim::Simulator& simulator, net::Network& network,
                 engine::Engine& engine, cluster::IaasPool& pool,
                 coord::CoordService& coord, HostId manager_host,
                 ManagerConfig config)
    : simulator_(simulator),
      network_(network),
      engine_(engine),
      pool_(pool),
      coord_(coord),
      manager_host_(manager_host),
      config_(std::move(config)),
      enforcer_(config_.policy) {
  probe_endpoint_ = network_.new_endpoint();
  network_.bind(probe_endpoint_, manager_host_,
                [this](const net::Delivery& d) { on_probe(d); });
  coord_client_ = std::make_unique<coord::CoordClient>(coord_);
  for (const auto& name : config_.elastic_operators) {
    elastic_ops_.insert(name);
  }
  if (config_.recovery.enabled) {
    detector_ = std::make_unique<FailureDetector>(simulator_,
                                                  config_.recovery.detector);
    detector_->on_dead([this](const HealthEvent& ev) {
      if (is_active()) on_host_dead(ev);
    });
    detector_->on_suspect([this](const HealthEvent& ev) {
      if (is_active()) on_host_suspect(ev);
    });
    if (engine_.reliable_control_enabled()) {
      // Control-channel retry exhaustion is unreachability evidence: raise
      // suspicion immediately instead of waiting out the probe silence.
      // (The engine holds one callback; with hot standbys the most recently
      // constructed manager owns it — inactive instances drop the signal
      // and silence-based conviction still covers the window.)
      engine_.on_control_unreachable([this](HostId host) {
        if (is_active() && detector_) detector_->report_unreachable(host);
      });
    }
  }
  if (config_.use_leader_election) {
    election_ = std::make_unique<coord::LeaderElection>(
        *coord_client_, config_.coord_root + "/manager-election",
        [this](bool leader) {
          if (!leader) return;
          // Promotion: recover the current managed set (minus any host the
          // previous manager declared dead) and pull the probe stream to
          // this instance.
          load_health([this](std::set<HostId> dead) {
            coord_client_->get(
                config_.coord_root + "/config/hosts",
                [this, dead = std::move(dead)](coord::Status st,
                                               const std::string& data,
                                               coord::Stat) {
                  if (st == coord::Status::kOk && !data.empty()) {
                    std::set<HostId> recovered;
                    std::size_t pos = 0;
                    while (pos <= data.size()) {
                      const std::size_t comma = data.find(',', pos);
                      const std::string token = data.substr(
                          pos, comma == std::string::npos ? std::string::npos
                                                          : comma - pos);
                      if (!token.empty()) {
                        const HostId host{std::stoull(token)};
                        if (engine_.has_host(host) && !dead.contains(host)) {
                          recovered.insert(host);
                        }
                      }
                      if (comma == std::string::npos) break;
                      pos = comma + 1;
                    }
                    // Keep the bootstrap set if the persisted one is not
                    // readable yet (fresh deployment racing its first write).
                    if (!recovered.empty()) managed_ = std::move(recovered);
                  }
                  if (detector_) {
                    for (HostId host : dead) detector_->mark_dead(host);
                  }
                  watch_managed();
                  reported_since_eval_.clear();
                  engine_.enable_probes(probe_endpoint_);
                });
          });
        });
  }
}

Manager::~Manager() {
  if (network_.bound(probe_endpoint_)) {
    network_.unbind(probe_endpoint_);
  }
}

void Manager::start(const std::vector<HostId>& managed_hosts) {
  if (started_) {
    throw std::logic_error{"Manager::start: already started"};
  }
  managed_.insert(managed_hosts.begin(), managed_hosts.end());
  started_ = true;
  // The config tree must exist before the first placement writes; chain
  // the creates (the coordination pipeline is asynchronous).
  coord_client_->ensure_path(
      config_.coord_root + "/config/slices", "", [this](coord::Status) {
        coord_client_->ensure_path(
            config_.coord_root + "/config/hosts", "", [this](coord::Status) {
              persist_hosts();
              for (HostId host : managed_) {
                for (SliceId slice : engine_.slices_on(host)) {
                  persist_placement(slice, host);
                }
              }
            });
      });
  if (election_) {
    election_->enter();  // first contender: leads and pulls probes
  } else {
    watch_managed();
    engine_.enable_probes(probe_endpoint_);
  }
}

void Manager::enter_standby() {
  if (!election_) {
    throw std::logic_error{"enter_standby requires use_leader_election"};
  }
  if (started_) {
    throw std::logic_error{"enter_standby: already started"};
  }
  started_ = true;
  election_->enter();
}

void Manager::resign() {
  if (election_) election_->resign();
}

void Manager::start_from_coordination(std::function<void(bool)> ready) {
  if (started_) {
    throw std::logic_error{"Manager::start_from_coordination: already started"};
  }
  started_ = true;
  load_health([this, ready = std::move(ready)](std::set<HostId> dead) {
    coord_client_->get(
        config_.coord_root + "/config/hosts",
        [this, ready = std::move(ready), dead = std::move(dead)](
            coord::Status st, const std::string& data, coord::Stat) {
          if (st != coord::Status::kOk) {
            ESH_WARN << "Manager recovery: no persisted host set ("
                     << coord::to_string(st) << ")";
            // Not started after all: a later fresh start() must work.
            started_ = false;
            if (ready) ready(false);
            return;
          }
          std::size_t pos = 0;
          while (pos < data.size()) {
            const std::size_t comma = data.find(',', pos);
            const std::string token =
                data.substr(pos, comma == std::string::npos ? std::string::npos
                                                            : comma - pos);
            if (!token.empty()) {
              const HostId host{std::stoull(token)};
              // Only hosts that still exist in the engine and were not
              // declared dead by the previous manager are recovered.
              if (engine_.has_host(host) && !dead.contains(host)) {
                managed_.insert(host);
              }
            }
            if (comma == std::string::npos) break;
            pos = comma + 1;
          }
          if (managed_.empty()) {
            ESH_WARN << "Manager recovery: persisted host set empty";
            started_ = false;
            if (ready) ready(false);
            return;
          }
          if (detector_) {
            for (HostId host : dead) detector_->mark_dead(host);
          }
          watch_managed();
          engine_.enable_probes(probe_endpoint_);
          if (ready) ready(true);
        });
  });
}

std::vector<HostId> Manager::managed_hosts() const {
  return {managed_.begin(), managed_.end()};
}

void Manager::on_probe(const net::Delivery& delivery) {
  const auto* msg =
      dynamic_cast<const engine::ProbeMessage*>(delivery.message.get());
  if (msg == nullptr) {
    ESH_WARN << "Manager: unexpected message on probe endpoint";
    return;
  }
  const HostId host = msg->probe.host;
  if (!managed_.contains(host)) return;  // source/sink/dedicated hosts
  // window_end is the probe's send timestamp on the global virtual clock,
  // so arrival minus it is the one-way delay — the detector's gray-failure
  // (latency) signal.
  if (detector_) {
    detector_->heartbeat(host, simulator_.now() - msg->probe.window_end);
  }
  latest_probes_[host] = msg->probe;
  reported_since_eval_.insert(host);
  maybe_evaluate();
}

void Manager::maybe_evaluate() {
  // Rules are evaluated as soon as a complete set of probes has arrived
  // since the previous evaluation (paper §V).
  if (reported_since_eval_.size() < managed_.size()) return;
  reported_since_eval_.clear();

  SystemView view;
  view.time = simulator_.now();
  LoadSample sample;
  sample.time = view.time;
  sample.hosts = managed_.size();
  sample.min_cpu = 1.0;
  const auto& cfg = engine_.static_config();
  for (HostId host : managed_) {
    auto it = latest_probes_.find(host);
    if (it == latest_probes_.end()) return;  // not all hosts known yet
    const cluster::HostProbe& probe = it->second;
    view.hosts.push_back(HostView{host, probe.cpu});
    sample.min_cpu = std::min(sample.min_cpu, probe.cpu);
    sample.max_cpu = std::max(sample.max_cpu, probe.cpu);
    sample.avg_cpu += probe.cpu;
    for (const cluster::SliceProbe& sp : probe.slices) {
      const auto& op_name = cfg.op_of(sp.slice).name;
      if (!elastic_ops_.contains(op_name)) continue;
      SliceView sv{sp.slice, host, sp.cpu, sp.state_bytes, false, {}};
      if (config_.policy.enable_splits) {
        if (auto* rt = engine_.slice_runtime(sp.slice)) {
          sv.splittable = rt->handler().supports_split();
        }
      }
      view.slices.push_back(sv);
    }
  }
  sample.avg_cpu /= static_cast<double>(managed_.size());
  load_history_.push_back(sample);

  if (config_.policy.enable_splits) {
    // Pair coverage-siblings for the cold-merge rule. The low-tag side of
    // each pair carries the link, so every mergeable pair appears exactly
    // once per view. Coverage is resolved against CURRENT routing: probes
    // can be a beat stale, and the engine re-validates before acting.
    const auto coverage_of = [&cfg](SliceId slice) -> const KeyCoverage* {
      if (!cfg.slice_infos.contains(slice)) return nullptr;
      const auto& op = cfg.op_of(slice);
      for (std::size_t i = 0; i < op.slices.size(); ++i) {
        if (op.slices[i] == slice) return &op.coverages[i];
      }
      return nullptr;
    };
    std::map<std::pair<std::size_t, KeyCoverage>, SliceId> by_cov;
    for (const SliceView& s : view.slices) {
      if (const KeyCoverage* cov = coverage_of(s.slice)) {
        by_cov[{cfg.info_of(s.slice).op_index, *cov}] = s.slice;
      }
    }
    for (SliceView& s : view.slices) {
      if (!s.splittable) continue;
      const KeyCoverage* cov = coverage_of(s.slice);
      if (cov == nullptr || cov->depth == 0) continue;
      if (((cov->tag >> (cov->depth - 1)) & 1U) != 0) continue;
      const KeyCoverage sibling{
          cov->base, cov->bucket, cov->depth,
          cov->tag | (std::uint64_t{1} << (cov->depth - 1))};
      auto it = by_cov.find({cfg.info_of(s.slice).op_index, sibling});
      if (it != by_cov.end()) s.merge_sibling = it->second;
    }
  }

  if (!enforcement_enabled_ || executing_ || !is_active()) return;
  MigrationPlan plan =
      policy_override_ ? policy_override_(view) : enforcer_.evaluate(view);
  if (plan.empty()) return;
  ESH_INFO << "Manager: executing " << to_string(plan.reason) << " plan ("
           << plan.moves.size() << " moves, " << plan.new_hosts
           << " new hosts, " << plan.releases.size() << " releases)";
  execute(std::move(plan));
}

void Manager::execute(MigrationPlan plan) {
  executing_ = true;
  active_plan_ = std::move(plan);
  plan_new_hosts_.clear();
  next_move_ = 0;
  next_split_ = 0;
  next_merge_ = 0;
  hosts_booting_ = active_plan_.new_hosts;
  if (active_plan_.new_hosts == 0) {
    run_next_move();
    return;
  }
  std::size_t allocated = 0;
  for (std::size_t i = 0; i < active_plan_.new_hosts; ++i) {
    try {
      const HostId id = pool_.allocate([this](cluster::Host& host) {
        engine_.add_host(host);
        if (detector_) detector_->watch(host.id());
        if (--hosts_booting_ == 0) run_next_move();
      });
      plan_new_hosts_.push_back(id);
      managed_.insert(id);
      ++allocated;
    } catch (const std::runtime_error&) {
      // Pool exhausted: execute what we can. Drop the moves that targeted
      // the hosts we could not get.
      ESH_WARN << "Manager: IaaS pool exhausted, got " << allocated << "/"
               << active_plan_.new_hosts << " hosts";
      std::erase_if(active_plan_.moves,
                    [allocated](const MigrationPlan::Move& mv) {
                      return mv.new_host_index.has_value() &&
                             *mv.new_host_index >= allocated;
                    });
      hosts_booting_ = allocated;
      break;
    }
  }
  persist_hosts();
  if (allocated == 0) {
    run_next_move();
  }
}

void Manager::run_next_move() {
  if (next_move_ >= active_plan_.moves.size()) {
    run_next_split();
    return;
  }
  const MigrationPlan::Move& move = active_plan_.moves[next_move_++];
  HostId dst = move.dst;
  if (move.new_host_index.has_value()) {
    dst = plan_new_hosts_.at(*move.new_host_index);
  }
  run_move(move, dst, 0);
}

void Manager::run_move(MigrationPlan::Move move, HostId dst,
                       std::size_t attempt) {
  const SliceId slice = move.slice;
  // The plan may be stale by the time a move runs: hosts die mid-plan and
  // lost slices belong to the recovery path, not the migration path.
  if (!engine_.has_host(dst) || engine_.slice_lost(slice) ||
      engine_.slice_host(slice) == dst) {
    run_next_move();
    return;
  }
  // Re-derive the protocol from the signals the plan recorded: the choice
  // is a pure function of (policy, state_bytes, cpu), so the planning-time
  // and execution-time answers must agree.
  const engine::MigrationStrategyKind strategy =
      select_strategy(enforcer_.config(), move.state_bytes, move.cpu);
#if ESH_INVARIANTS_ENABLED
  engine::MigrationStrategyKind planned = move.strategy;
  if (testing_corrupt_strategy_plan) {
    // Seeded fault: the plan carries a different protocol than its own
    // signals derive; the determinism contract below must trip.
    testing_corrupt_strategy_plan = false;
    planned = planned == engine::MigrationStrategyKind::kBufferedReplay
                  ? engine::MigrationStrategyKind::kStopAndRestart
                  : engine::MigrationStrategyKind::kBufferedReplay;
  }
  ESH_INVARIANT("elastic", "strategy-selection-deterministic",
                planned == strategy,
                ::esh::contracts::Detail{}
                    .slice(slice)
                    .expected(engine::to_string(strategy))
                    .actual(engine::to_string(planned))
                    .note("state_bytes=" + std::to_string(move.state_bytes)));
#endif
  engine_.migrate(
      slice, dst, strategy,
      [this, move, slice, dst, attempt](const engine::ElasticReport& report) {
        migrations_.push_back(report);
        switch (report.outcome) {
          case engine::MigrationOutcome::kCompleted:
            persist_placement(slice, dst);
            run_next_move();
            return;
          case engine::MigrationOutcome::kRejected:
            run_next_move();
            return;
          case engine::MigrationOutcome::kAbortedSrcFailed:
          case engine::MigrationOutcome::kAbortedDstFailed:
            break;
        }
        // Aborted by a host failure mid-protocol. Retry with backoff while
        // the slice survived and the destination still exists; a lost
        // slice is the recovery orchestration's problem now.
        if (attempt < config_.migration_max_retries &&
            !engine_.slice_lost(slice) && engine_.has_host(dst)) {
          ESH_WARN << "Manager: migration of slice " << slice << " aborted ("
                   << to_string(report.outcome) << "); retrying";
          simulator_.schedule(config_.migration_retry_backoff,
                              [this, move, dst, attempt] {
                                run_move(move, dst, attempt + 1);
                              });
          return;
        }
        ESH_WARN << "Manager: migration of slice " << slice << " abandoned ("
                 << to_string(report.outcome) << ")";
        run_next_move();
      });
}

void Manager::run_next_split() {
  if (next_split_ >= active_plan_.splits.size()) {
    run_next_merge();
    return;
  }
  const MigrationPlan::Split split = active_plan_.splits[next_split_++];
  // Stale-plan guard mirrors run_move: a lost slice belongs to recovery.
  if (engine_.slice_lost(split.slice) || !engine_.has_host(split.dst)) {
    run_next_split();
    return;
  }
  engine_.split_slice(
      split.slice, split.dst,
      [this](const engine::ElasticReport& report) {
        transitions_.push_back(report);
        if (report.outcome == engine::MigrationOutcome::kCompleted) {
          persist_placement(report.other, engine_.slice_host(report.other));
        }
        // No retry: an aborted split leaves routing intact, and the
        // enforcer re-arms after the grace period if the hotspot persists.
        run_next_split();
      });
}

void Manager::run_next_merge() {
  if (next_merge_ >= active_plan_.merges.size()) {
    finish_plan();
    return;
  }
  const MigrationPlan::Merge merge = active_plan_.merges[next_merge_++];
  if (engine_.slice_lost(merge.survivor) || engine_.slice_lost(merge.retiree)) {
    run_next_merge();
    return;
  }
  engine_.merge_slices(merge.survivor, merge.retiree,
                       [this](const engine::ElasticReport& report) {
                         transitions_.push_back(report);
                         run_next_merge();
                       });
}

void Manager::finish_plan() {
  for (HostId host : active_plan_.releases) {
    if (!engine_.slices_on(host).empty()) {
      ESH_WARN << "Manager: host " << host
               << " not empty after plan; skipping release";
      continue;
    }
    engine_.remove_host(host);
    pool_.release(host);
    managed_.erase(host);
    latest_probes_.erase(host);
    // A released host legitimately stops probing.
    if (detector_) detector_->unwatch(host);
  }
  persist_hosts();
  executing_ = false;
  ++plans_executed_;
  // Fresh probe round before the next evaluation.
  reported_since_eval_.clear();
}

void Manager::persist_placement(SliceId slice, HostId host) {
  const std::string path = config_.coord_root + "/config/slices/" +
                           std::to_string(slice.value());
  const std::string data = std::to_string(host.value());
  coord_client_->set(path, data, -1,
                     [this, path, data](coord::Status st, coord::Stat) {
                       if (st == coord::Status::kNoNode) {
                         coord_client_->create(path, data,
                                               coord::CreateMode::kPersistent,
                                               [](coord::Status,
                                                  const std::string&) {});
                       }
                     });
}

void Manager::persist_hosts() {
  std::string data;
  for (HostId host : managed_) {
    if (!data.empty()) data += ',';
    data += std::to_string(host.value());
  }
  const std::string path = config_.coord_root + "/config/hosts";
  coord_client_->set(path, data, -1,
                     [this, path, data](coord::Status st, coord::Stat) {
                       if (st == coord::Status::kNoNode) {
                         coord_client_->create(path, data,
                                               coord::CreateMode::kPersistent,
                                               [](coord::Status,
                                                  const std::string&) {});
                       }
                     });
}

// ---- failure handling -------------------------------------------------------

void Manager::persist_health(HostId host) {
  // The verdict outlives this manager instance: a restarted or promoted
  // manager must not re-adopt a host that was already declared dead.
  coord_client_->ensure_path(
      config_.coord_root + "/health/" + std::to_string(host.value()), "dead",
      [](coord::Status) {});
}

void Manager::load_health(std::function<void(std::set<HostId>)> done) {
  coord_client_->get_children(
      config_.coord_root + "/health",
      [done = std::move(done)](coord::Status st,
                               const std::vector<std::string>& names) {
        std::set<HostId> dead;
        if (st == coord::Status::kOk) {
          for (const std::string& name : names) {
            dead.insert(HostId{std::stoull(name)});
          }
        }
        done(std::move(dead));
      });
}

void Manager::watch_managed() {
  if (!detector_) return;
  for (HostId host : managed_) detector_->watch(host);
}

void Manager::on_host_dead(const HealthEvent& ev) {
  const HostId host = ev.host;
  if (!managed_.contains(host) || active_recoveries_.contains(host)) return;
  if (!engine_.has_host(host)) {
    // Already quarantined (e.g. by a concurrent manager instance): just
    // drop it from the managed set.
    managed_.erase(host);
    latest_probes_.erase(host);
    reported_since_eval_.erase(host);
    persist_hosts();
    return;
  }
  if (!engine_.config().checkpoints.enabled) {
    ESH_WARN << "Manager: host " << host
             << " dead but checkpoints are disabled; cannot recover";
    return;
  }
  ESH_WARN << "Manager: host " << host << " dead, starting recovery";
  persist_health(host);

  // Snapshot the dead host's last probe before dropping it: the per-slice
  // CPU weights drive the replacement placement.
  cluster::HostProbe last_probe{};
  if (auto it = latest_probes_.find(host); it != latest_probes_.end()) {
    last_probe = it->second;
    latest_probes_.erase(it);
  }
  managed_.erase(host);
  reported_since_eval_.erase(host);
  persist_hosts();
  // Note: the crashed host is NOT released back to the IaaS pool; its Host
  // object is still referenced by the quarantined runtime.

  ActiveRecovery rec;
  rec.report.host = host;
  rec.report.detected = ev.at;
  const std::vector<SliceId> lost = engine_.fail_host(host);
  rec.report.quarantined = simulator_.now();
  rec.report.slices_lost = lost;
  if (lost.empty()) {
    rec.report.placed = rec.report.recovered = simulator_.now();
    rec.report.complete = true;
    recoveries_.push_back(std::move(rec.report));
    return;
  }

  // Re-place the lost slices over the survivors under the placement cap;
  // what does not fit goes to fresh hosts from the pool.
  const std::vector<MigrationPlan::Move> placement =
      place_off(host, lost, last_probe);

  std::vector<std::pair<SliceId, HostId>> immediate;
  std::map<std::size_t, std::vector<SliceId>> on_new_host;
  for (const MigrationPlan::Move& mv : placement) {
    if (mv.new_host_index.has_value()) {
      on_new_host[*mv.new_host_index].push_back(mv.slice);
    } else {
      immediate.emplace_back(mv.slice, mv.dst);
    }
  }
  for (auto& [index, slices] : on_new_host) {
    try {
      const HostId fresh =
          pool_.allocate([this, host, slices](cluster::Host& h) {
            // Replacement booted: adopt it, then replay the slices that
            // waited for its capacity.
            engine_.add_host(h);
            managed_.insert(h.id());
            persist_hosts();
            if (detector_) detector_->watch(h.id());
            for (SliceId slice : slices) attempt_recover(host, slice, h.id(), 1);
          });
      rec.report.replacement_hosts.push_back(fresh);
    } catch (const std::runtime_error&) {
      // Pool exhausted: recover onto survivors beyond the cap — degraded
      // capacity beats lost slices.
      const std::optional<HostId> fallback = pick_recovery_host(host);
      if (!fallback) {
        ESH_WARN << "Manager: no host available to recover slices of " << host;
        continue;
      }
      ESH_WARN << "Manager: IaaS pool exhausted, recovering onto " << *fallback;
      for (SliceId slice : slices) immediate.emplace_back(slice, *fallback);
    }
  }
  rec.report.placed = simulator_.now();
  for (SliceId slice : lost) rec.pending.insert(slice);
  active_recoveries_[host] = std::move(rec);
  for (const auto& [slice, dst] : immediate) attempt_recover(host, slice, dst, 1);
}

void Manager::attempt_recover(HostId dead_host, SliceId slice, HostId dst,
                              std::size_t attempt) {
  auto it = active_recoveries_.find(dead_host);
  if (it == active_recoveries_.end()) return;
  ActiveRecovery& rec = it->second;
  if (!rec.pending.contains(slice)) return;  // already recovered
  if (attempt > config_.recovery.max_attempts) {
    ESH_WARN << "Manager: giving up on slice " << slice << " after "
             << config_.recovery.max_attempts << " attempts";
    rec.pending.erase(slice);
    maybe_finish_recovery(dead_host);
    return;
  }
  if (!engine_.has_host(dst)) {
    const std::optional<HostId> other = pick_recovery_host(dst);
    if (!other) {
      ESH_WARN << "Manager: no live host to recover slice " << slice;
      rec.pending.erase(slice);
      maybe_finish_recovery(dead_host);
      return;
    }
    dst = *other;
  }
  rec.attempts[slice] = attempt;
  if (attempt > 1) ++rec.report.retries;
  engine_.recover_slice(slice, dst, [this, dead_host, slice] {
    on_slice_recovered(dead_host, slice);
  });
  // Watchdog: a replay that missed its deadline is retried on another host
  // after a backoff (bounded by max_attempts).
  simulator_.schedule(
      config_.recovery.attempt_timeout,
      [this, dead_host, slice, dst, attempt] {
        auto rit = active_recoveries_.find(dead_host);
        if (rit == active_recoveries_.end()) return;
        if (!rit->second.pending.contains(slice)) return;
        if (rit->second.attempts[slice] != attempt) return;  // superseded
        ESH_WARN << "Manager: recovery of slice " << slice
                 << " timed out on host " << dst;
        const std::optional<HostId> next = pick_recovery_host(dst);
        const HostId retry_dst = next.value_or(dst);
        simulator_.schedule(config_.recovery.retry_backoff,
                            [this, dead_host, slice, retry_dst, attempt] {
                              attempt_recover(dead_host, slice, retry_dst,
                                              attempt + 1);
                            });
      });
}

void Manager::on_slice_recovered(HostId dead_host, SliceId slice) {
  auto it = active_recoveries_.find(dead_host);
  if (it == active_recoveries_.end()) return;
  if (it->second.pending.erase(slice) == 0) return;
  ++it->second.report.slices_recovered;
  persist_placement(slice, engine_.slice_host(slice));
  maybe_finish_recovery(dead_host);
}

void Manager::maybe_finish_recovery(HostId dead_host) {
  auto it = active_recoveries_.find(dead_host);
  if (it == active_recoveries_.end() || !it->second.pending.empty()) return;
  RecoveryReport report = std::move(it->second.report);
  report.recovered = simulator_.now();
  report.complete = report.slices_recovered == report.slices_lost.size();
  ESH_INFO << "Manager: recovery of host " << dead_host << " finished ("
           << report.slices_recovered << "/" << report.slices_lost.size()
           << " slices, MTTR " << to_millis(report.mttr()) << " ms)";
  recoveries_.push_back(std::move(report));
  active_recoveries_.erase(it);
  // Fresh probe round before the next policy evaluation.
  reported_since_eval_.clear();
}

// ---- graceful degradation (suspect drain) -----------------------------------

void Manager::on_host_suspect(const HealthEvent& ev) {
  if (!config_.recovery.drain_suspects) return;
  const HostId host = ev.host;
  if (!managed_.contains(host)) return;
  if (drain_scheduled_.contains(host) || draining_ == host) return;
  drain_scheduled_.insert(host);
  const SimTime suspected = ev.at;
  simulator_.schedule(config_.recovery.drain_after, [this, host, suspected] {
    maybe_start_drain(host, suspected);
  });
}

void Manager::maybe_start_drain(HostId host, SimTime suspected) {
  drain_scheduled_.erase(host);
  if (!is_active() || !detector_) return;
  // Only *sustained* suspicion drains: a host that recovered (heartbeats
  // resumed, latency EWMA back under threshold) is left alone, and one
  // already convicted dead belongs to the recovery path.
  if (detector_->health(host) != HostHealth::kSuspect) return;
  if (!managed_.contains(host) || !engine_.has_host(host)) return;
  if (executing_ || draining_) {
    // A plan or another drain is in flight; re-check later. The suspicion
    // re-check above keeps this loop finite.
    drain_scheduled_.insert(host);
    simulator_.schedule(config_.recovery.drain_after, [this, host, suspected] {
      maybe_start_drain(host, suspected);
    });
    return;
  }

  ESH_WARN << "Manager: draining suspect host " << host
           << " (graceful degradation)";
  draining_ = host;
  executing_ = true;  // drains and policy plans are mutually exclusive
  active_drain_ = DrainReport{};
  active_drain_.host = host;
  active_drain_.suspected = suspected;
  active_drain_.started = simulator_.now();
  drain_moves_.clear();
  next_drain_move_ = 0;

  // Re-place every slice over the other survivors under the placement cap,
  // reusing the recovery placement logic; whatever does not fit piles onto
  // the least-loaded survivor (degraded capacity beats a gray host).
  cluster::HostProbe last_probe{};
  if (auto it = latest_probes_.find(host); it != latest_probes_.end()) {
    last_probe = it->second;
  }
  const std::vector<MigrationPlan::Move> placement =
      place_off(host, engine_.slices_on(host), last_probe);
  for (const MigrationPlan::Move& mv : placement) {
    HostId dst = mv.dst;
    if (mv.new_host_index.has_value()) {
      const std::optional<HostId> fallback = pick_recovery_host(host);
      if (!fallback) {
        ESH_WARN << "Manager: no survivor can absorb slice " << mv.slice
                 << "; it stays on the suspect host";
        continue;
      }
      dst = *fallback;
    }
    drain_moves_.emplace_back(mv.slice, dst);
  }
  drain_next_move();
}

void Manager::drain_next_move() {
  const HostId host = *draining_;
  if (!engine_.has_host(host)) {
    // The host died mid-drain; recovery owns its remaining slices now.
    active_drain_.aborted = true;
    finish_drain();
    return;
  }
  if (next_drain_move_ >= drain_moves_.size()) {
    finish_drain();
    return;
  }
  const auto [slice, dst] = drain_moves_[next_drain_move_++];
  if (engine_.slice_lost(slice) || !engine_.has_host(dst) ||
      engine_.slice_host(slice) != host) {
    drain_next_move();
    return;
  }
  engine_.migrate(slice, dst,
                  [this, slice, dst](const engine::ElasticReport& report) {
                    migrations_.push_back(report);
                    if (report.outcome ==
                        engine::MigrationOutcome::kCompleted) {
                      ++active_drain_.slices_moved;
                      persist_placement(slice, dst);
                    }
                    drain_next_move();
                  });
}

void Manager::finish_drain() {
  const HostId host = *draining_;
  if (!active_drain_.aborted && engine_.has_host(host) &&
      engine_.slices_on(host).empty()) {
    // The gray box is out of the dataflow: stop managing it. It is NOT
    // released back to the IaaS pool — a host that went gray is not reused.
    engine_.remove_host(host);
    managed_.erase(host);
    latest_probes_.erase(host);
    reported_since_eval_.erase(host);
    if (detector_) detector_->unwatch(host);
    persist_hosts();
    active_drain_.complete = true;
  }
  active_drain_.completed = simulator_.now();
  ESH_INFO << "Manager: drain of host " << host << " finished ("
           << active_drain_.slices_moved << " slices moved, "
           << (active_drain_.complete ? "complete" : "incomplete")
           << (active_drain_.aborted ? ", aborted" : "") << ")";
  drains_.push_back(active_drain_);
  draining_.reset();
  executing_ = false;
  // Fresh probe round before the next policy evaluation.
  reported_since_eval_.clear();
}

std::vector<MigrationPlan::Move> Manager::place_off(
    HostId host, const std::vector<SliceId>& slices,
    const cluster::HostProbe& last_probe) const {
  std::vector<SliceView> moving;
  for (SliceId slice : slices) {
    SliceView view{slice, host, 0.0, 0, false, {}};
    for (const cluster::SliceProbe& sp : last_probe.slices) {
      if (sp.slice == slice) {
        view.cpu = sp.cpu;
        view.state_bytes = sp.state_bytes;
        break;
      }
    }
    moving.push_back(view);
  }
  std::vector<HostView> bins;
  for (HostId survivor : managed_) {
    if (survivor == host) continue;
    double cpu = 0.0;
    if (auto it = latest_probes_.find(survivor); it != latest_probes_.end()) {
      cpu = it->second.cpu;
    }
    bins.push_back(HostView{survivor, cpu});
  }
  return first_fit_place(std::move(moving), std::move(bins),
                         enforcer_.config().placement_cap, 0, nullptr);
}

std::optional<HostId> Manager::pick_recovery_host(HostId avoid) const {
  std::optional<HostId> best;
  double best_cpu = 2.0;
  for (HostId host : managed_) {
    if (host == avoid || !engine_.has_host(host)) continue;
    double cpu = 0.0;
    if (auto it = latest_probes_.find(host); it != latest_probes_.end()) {
      cpu = it->second.cpu;
    }
    if (cpu < best_cpu) {
      best_cpu = cpu;
      best = host;
    }
  }
  return best;
}

}  // namespace esh::elastic
