// The e-STREAMHUB manager (paper §IV-B): collects heartbeat probes from
// every engine host, aggregates them per slice and per host, feeds the
// elasticity enforcer, and orchestrates the resulting plan — allocating
// hosts from the IaaS pool, requesting slice migrations from the engine,
// and releasing emptied hosts. The shared configuration (slice placement,
// managed host set) is persisted in the coordination service so a restarted
// manager can recover it.
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

#include "cluster/iaas.hpp"
#include "cluster/probes.hpp"
#include "coord/coord.hpp"
#include "coord/recipes.hpp"
#include "elastic/enforcer.hpp"
#include "elastic/failure_detector.hpp"
#include "engine/engine.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace esh::elastic {

// Automatic failure handling: when enabled the manager runs a failure
// detector over the probe stream and, on a dead verdict, quarantines the
// host, re-places its slices (allocating replacement hosts from the IaaS
// pool when the survivors lack capacity) and drives checkpoint+replay
// recovery for every lost slice. Requires engine checkpoints to be on.
struct RecoveryConfig {
  bool enabled = false;
  FailureDetectorConfig detector{};
  // Deadline for one recover_slice attempt before it is retried elsewhere.
  SimDuration attempt_timeout = seconds(10);
  // Bounded retries per slice (first attempt included).
  std::size_t max_attempts = 3;
  SimDuration retry_backoff = seconds(1);
  // Graceful degradation: a host that stays suspect for drain_after (gray
  // failure — latency drift past the detector's threshold, or a reliable
  // control channel giving up on it) is proactively *drained*: its slices
  // migrate away over the normal migration protocol while the host still
  // works, instead of waiting for a crash that may never come. The drained
  // host is removed from the managed set but never returned to the IaaS
  // pool (a gray box is not reused).
  bool drain_suspects = false;
  SimDuration drain_after = seconds(1);
};

struct ManagerConfig {
  PolicyConfig policy{};
  // Root path of the manager's state in the coordination service.
  std::string coord_root = "/estreamhub";
  // Slices of these operators may be migrated; others (source/sink) are
  // pinned to their dedicated hosts.
  std::vector<std::string> elastic_operators = {"AP", "M", "EP"};
  // Run a leader election among manager instances: only the elected leader
  // collects probes and enforces; standbys take over on failure/resign.
  bool use_leader_election = false;
  RecoveryConfig recovery{};
  // A migration aborted by a host failure is retried this many times (with
  // backoff) before the move is abandoned.
  std::size_t migration_max_retries = 2;
  SimDuration migration_retry_backoff = seconds(2);
};

// Timeline of one automatic host recovery; the MTTR breakdown measured by
// bench/fig_recovery (detect -> quarantine -> placement -> replay done).
struct RecoveryReport {
  HostId host;
  SimTime detected{};
  SimTime quarantined{};
  SimTime placed{};
  SimTime recovered{};
  std::vector<SliceId> slices_lost;
  std::size_t slices_recovered = 0;
  std::vector<HostId> replacement_hosts;
  std::size_t retries = 0;
  bool complete = false;
  [[nodiscard]] SimDuration mttr() const { return recovered - detected; }
};

// Timeline of one proactive suspect drain (graceful degradation).
struct DrainReport {
  HostId host;
  SimTime suspected{};   // the verdict that armed the drain
  SimTime started{};     // drain_after elapsed with the suspicion sustained
  SimTime completed{};
  std::size_t slices_moved = 0;
  bool complete = false;  // every slice left and the host was removed
  bool aborted = false;   // the host died mid-drain (recovery took over)
};

// Aggregate load sample over the managed hosts; recorded on each full probe
// round (drives the host-count and CPU envelope plots of Figures 8/9).
struct LoadSample {
  SimTime time{};
  std::size_t hosts = 0;
  double min_cpu = 0.0;
  double avg_cpu = 0.0;
  double max_cpu = 0.0;
};

class Manager {
 public:
  Manager(sim::Simulator& simulator, net::Network& network,
          engine::Engine& engine, cluster::IaasPool& pool,
          coord::CoordService& coord, HostId manager_host,
          ManagerConfig config);
  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // Registers the initially managed (engine worker) hosts and starts probe
  // collection and policy enforcement.
  void start(const std::vector<HostId>& managed_hosts);

  // Restart path (paper §IV-B: the manager's state lives in the
  // coordination service). Reads the managed host set back from the
  // coordination tree and resumes probing/enforcement; `ready` fires once
  // recovery completed. Requires a previous manager instance to have
  // persisted its state under the same coord_root.
  void start_from_coordination(std::function<void(bool ok)> ready = nullptr);

  // Hot-standby path (requires use_leader_election): joins the election
  // without touching the system; on promotion it recovers the managed host
  // set from the coordination tree, redirects probes to itself, and starts
  // enforcing.
  void enter_standby();

  // Steps down from leadership (the next contender takes over). No-op
  // without leader election.
  void resign();

  // True when this instance may act (leader, or no election configured).
  [[nodiscard]] bool is_active() const {
    return !election_ || election_->is_leader();
  }

  [[nodiscard]] const std::vector<LoadSample>& load_history() const {
    return load_history_;
  }
  // Migrations the manager ran (plan moves and suspect drains).
  [[nodiscard]] const std::vector<engine::ElasticReport>& migrations() const {
    return migrations_;
  }
  // Key-level splits/merges executed from hotspot-split / cold-merge plans.
  [[nodiscard]] const std::vector<engine::ElasticReport>& transitions() const {
    return transitions_;
  }
  [[nodiscard]] std::size_t managed_host_count() const {
    return managed_.size();
  }
  [[nodiscard]] std::vector<HostId> managed_hosts() const;
  [[nodiscard]] bool plan_in_progress() const { return executing_; }
  [[nodiscard]] std::uint64_t plans_executed() const { return plans_executed_; }
  [[nodiscard]] Enforcer& enforcer() { return enforcer_; }
  // Present iff config.recovery.enabled.
  [[nodiscard]] FailureDetector* failure_detector() { return detector_.get(); }
  [[nodiscard]] const std::vector<RecoveryReport>& recoveries() const {
    return recoveries_;
  }
  [[nodiscard]] bool recovery_in_progress() const {
    return !active_recoveries_.empty();
  }
  [[nodiscard]] const std::vector<DrainReport>& drains() const {
    return drains_;
  }
  [[nodiscard]] bool drain_in_progress() const {
    return draining_.has_value();
  }

  // Disables/enables policy evaluation (probes still collected); used by
  // experiments that drive migrations manually.
  void set_enforcement(bool enabled) { enforcement_enabled_ = enabled; }

  // Replaces the built-in enforcer with an arbitrary policy (used by the
  // policy-ablation bench to plug in baseline auto-scalers).
  using PolicyFn = std::function<MigrationPlan(const SystemView&)>;
  void set_policy(PolicyFn policy) { policy_override_ = std::move(policy); }

  // Testing seam: corrupt the next executed move's planned strategy so the
  // execution-time re-derivation disagrees — the elastic/
  // strategy-selection-deterministic contract must trip (checked builds).
  bool testing_corrupt_strategy_plan = false;

 private:
  void on_probe(const net::Delivery& delivery);
  void maybe_evaluate();
  void execute(MigrationPlan plan);
  void run_next_move();
  void run_move(MigrationPlan::Move move, HostId dst, std::size_t attempt);
  void run_next_split();
  void run_next_merge();
  void finish_plan();
  void persist_placement(SliceId slice, HostId host);
  void persist_hosts();
  void persist_health(HostId host);
  // Reads the dead-host verdicts persisted under <coord_root>/health.
  void load_health(std::function<void(std::set<HostId>)> done);
  void watch_managed();
  void on_host_dead(const HealthEvent& ev);
  void on_host_suspect(const HealthEvent& ev);
  void maybe_start_drain(HostId host, SimTime suspected);
  void drain_next_move();
  void finish_drain();
  void attempt_recover(HostId dead_host, SliceId slice, HostId dst,
                       std::size_t attempt);
  void on_slice_recovered(HostId dead_host, SliceId slice);
  void maybe_finish_recovery(HostId dead_host);
  [[nodiscard]] std::optional<HostId> pick_recovery_host(HostId avoid) const;
  // First-fit placement of `slices`, weighted by `host`'s last probe, over
  // every managed host but `host` under the placement cap. Moves that fit
  // nowhere carry a new_host_index.
  [[nodiscard]] std::vector<MigrationPlan::Move> place_off(
      HostId host, const std::vector<SliceId>& slices,
      const cluster::HostProbe& last_probe) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  engine::Engine& engine_;
  cluster::IaasPool& pool_;
  coord::CoordService& coord_;
  HostId manager_host_;
  ManagerConfig config_;
  Enforcer enforcer_;
  net::Endpoint probe_endpoint_;
  std::unique_ptr<coord::CoordClient> coord_client_;
  std::unique_ptr<coord::LeaderElection> election_;

  std::set<HostId> managed_;
  std::unordered_map<HostId, cluster::HostProbe> latest_probes_;
  std::set<HostId> reported_since_eval_;
  bool started_ = false;
  bool enforcement_enabled_ = true;
  PolicyFn policy_override_;

  // Plan execution state.
  bool executing_ = false;
  MigrationPlan active_plan_;
  std::vector<HostId> plan_new_hosts_;
  std::size_t next_move_ = 0;
  std::size_t next_split_ = 0;
  std::size_t next_merge_ = 0;
  std::size_t hosts_booting_ = 0;

  // Failure handling state.
  struct ActiveRecovery {
    RecoveryReport report;
    std::set<SliceId> pending;
    std::map<SliceId, std::size_t> attempts;
  };
  std::unique_ptr<FailureDetector> detector_;
  std::map<HostId, ActiveRecovery> active_recoveries_;
  std::vector<RecoveryReport> recoveries_;

  // Proactive suspect drain (one at a time, like plans).
  std::set<HostId> drain_scheduled_;
  std::optional<HostId> draining_;
  DrainReport active_drain_{};
  std::vector<std::pair<SliceId, HostId>> drain_moves_;
  std::size_t next_drain_move_ = 0;
  std::vector<DrainReport> drains_;

  std::vector<LoadSample> load_history_;
  std::vector<engine::ElasticReport> migrations_;
  std::vector<engine::ElasticReport> transitions_;
  std::uint64_t plans_executed_ = 0;
  std::set<std::string> elastic_ops_;
};

}  // namespace esh::elastic
