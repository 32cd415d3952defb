// STREAMHUB's three fundamental operators (paper §III) plus the source and
// sink convenience operators used by the evaluation (§VI-A).
//
//   AP  (Access Point):   partitions subscriptions across M slices by
//                          modulo hash; broadcasts publications to all of
//                          them. Stateless.
//   M   (Matching):       stores its partition of the subscriptions in a
//                          filtering-library instance; matches each
//                          publication against all of them (R-locked, so
//                          several matches can run on different cores).
//   EP  (Exit Point):     collects the per-M-slice partial lists of one
//                          publication (modulo hash on publication id
//                          brings them to the same slice), combines them
//                          and sends the notification.
//   source / sink:         push pre-encrypted events in, collect
//                          notifications and delay measurements out.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "cluster/cost_model.hpp"
#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "engine/handler.hpp"
#include "filter/matcher.hpp"
#include "pubsub/payloads.hpp"

namespace esh::pubsub {

struct OperatorNames {
  std::string source = "source";
  std::string ap = "AP";
  std::string m = "M";
  std::string ep = "EP";
  std::string sink = "sink";
};

class SourceHandler final : public engine::Handler {
 public:
  SourceHandler(OperatorNames names, cluster::CostModel cost)
      : names_(std::move(names)), cost_(cost) {}

  void on_event(engine::Context& ctx, const engine::PayloadPtr& p) override;
  [[nodiscard]] double cost_units(const engine::PayloadPtr&) const override {
    return 2.0;
  }
  [[nodiscard]] cluster::LockMode lock_mode(
      const engine::PayloadPtr&) const override {
    return cluster::LockMode::kNone;
  }

 private:
  OperatorNames names_;
  cluster::CostModel cost_;
};

// One Matching operator per filtering scheme (paper §III: "there might be
// several M operators, one per filtering scheme"). AP routes each event to
// the operator of its scheme, selected by payload kind.
struct MatchingTarget {
  std::string op_name;
  std::size_t slices = 0;
  bool encrypted = false;  // receives EncryptedSubscription/Publication
};

class ApHandler final : public engine::Handler {
 public:
  ApHandler(std::vector<MatchingTarget> targets, cluster::CostModel cost)
      : targets_(std::move(targets)), cost_(cost) {}

  void on_event(engine::Context& ctx, const engine::PayloadPtr& p) override;
  [[nodiscard]] double cost_units(const engine::PayloadPtr& p) const override;
  [[nodiscard]] cluster::LockMode lock_mode(
      const engine::PayloadPtr&) const override {
    return cluster::LockMode::kNone;  // stateless (paper §IV-A)
  }
  [[nodiscard]] double replica_init_units() const override {
    return cost_.generic_replica_init_units;
  }

 private:
  [[nodiscard]] const MatchingTarget& target_for(bool encrypted) const;

  std::vector<MatchingTarget> targets_;
  cluster::CostModel cost_;
};

class MHandler final : public engine::Handler {
 public:
  // `worker_pool` (optional) is installed on the matcher: on_batch_start's
  // match_batch call then fans its compute across the pool and joins before
  // returning, so every result is committed on the simulator thread and
  // simulated behavior is independent of the pool.
  MHandler(OperatorNames names, std::string own_op, std::uint32_t slice_index,
           std::unique_ptr<filter::Matcher> matcher, cluster::CostModel cost,
           ThreadPool* worker_pool = nullptr)
      : names_(std::move(names)),
        own_op_(std::move(own_op)),
        slice_index_(slice_index),
        matcher_(std::move(matcher)),
        cost_(cost) {
    matcher_->set_thread_pool(worker_pool);
  }

  void on_event(engine::Context& ctx, const engine::PayloadPtr& p) override;
  [[nodiscard]] double cost_units(const engine::PayloadPtr& p) const override;
  [[nodiscard]] cluster::LockMode lock_mode(
      const engine::PayloadPtr& p) const override;

  // Publications are read-only with respect to the subscription store, so a
  // run of them drains from the input channel as one batch: on_batch_start
  // issues a single matcher_->match_batch() whose per-publication outcomes
  // the subsequent on_event calls emit. Results, simulated costs and lock
  // modes are identical to scalar processing.
  [[nodiscard]] bool can_batch(const engine::PayloadPtr& p) const override;
  void on_batch_start(engine::Context& ctx,
                      const std::vector<engine::PayloadPtr>& batch) override;

  void serialize_state(BinaryWriter& w) const override {
    matcher_->serialize_state(w);
  }
  void restore_state(BinaryReader& r) override { matcher_->restore_state(r); }
  [[nodiscard]] std::size_t state_bytes() const override {
    return matcher_->state_bytes();
  }
  [[nodiscard]] double replica_init_units() const override {
    return cost_.m_replica_init_units;
  }

  [[nodiscard]] const filter::Matcher& matcher() const { return *matcher_; }

  // Key-level elasticity: M partitions its subscription store by routing
  // key, so a slice can split off the half a child slice takes over (and
  // absorb it back on a merge). Delegates to the filtering library.
  [[nodiscard]] bool supports_split() const override { return true; }
  std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w) override;
  void absorb_state(BinaryReader& r) override;

 private:
  OperatorNames names_;
  std::string own_op_;
  std::uint32_t slice_index_;
  std::unique_ptr<filter::Matcher> matcher_;
  cluster::CostModel cost_;
  // Outcomes precomputed by on_batch_start, consumed in order by the
  // per-publication on_event calls of the same batch.
  std::deque<std::pair<PublicationId, filter::MatchOutcome>> precomputed_;
};

class EpHandler final : public engine::Handler {
 public:
  EpHandler(OperatorNames names, std::size_t m_slices, cluster::CostModel cost)
      : names_(std::move(names)), m_slices_(m_slices), cost_(cost) {}

  void on_event(engine::Context& ctx, const engine::PayloadPtr& p) override;
  [[nodiscard]] double cost_units(const engine::PayloadPtr& p) const override;
  [[nodiscard]] cluster::LockMode lock_mode(
      const engine::PayloadPtr&) const override {
    return cluster::LockMode::kWrite;  // mutates the pending-list state
  }

  void serialize_state(BinaryWriter& w) const override;
  void restore_state(BinaryReader& r) override;
  [[nodiscard]] std::size_t state_bytes() const override;
  [[nodiscard]] double replica_init_units() const override {
    return cost_.generic_replica_init_units;
  }

  [[nodiscard]] std::size_t pending_publications() const {
    return pending_.size();
  }

#if ESH_INVARIANTS_ENABLED
  // Seeded-fault seam for tests/test_contracts.cpp: dispatches a
  // notification while bypassing the completed_-set guard, so a second call
  // for the same publication trips the exactly-once invariant.
  void testing_force_dispatch(engine::Context& ctx, PublicationId pub) {
    complete_publication(ctx, pub, std::move(pending_[pub]));
  }
#endif

 private:
  struct Pending {
    // Which M slices' partial lists arrived (a set, not a count: recovery
    // can re-deliver a list, and EP is the exactly-once boundary).
    std::set<std::uint32_t> lists_from;
    std::vector<SubscriberId> subscribers;
    SimTime published_at{};
  };

  // Dispatch tail shared by on_event and the seeded-fault hook: marks the
  // publication completed (the exactly-once boundary) and emits the merged
  // notification toward the sink.
  void complete_publication(engine::Context& ctx, PublicationId pub,
                            Pending pending);

  OperatorNames names_;
  std::size_t m_slices_;
  cluster::CostModel cost_;
  std::unordered_map<PublicationId, Pending> pending_;
  // Publications already notified. Upstream recovery replays deliver
  // at-least-once below this operator; completed publications must not be
  // re-notified. Grows with the publication count — fine for simulation.
  std::set<PublicationId> completed_;
};

// Observation sink: records end-to-end delays (publication emission at the
// source to notification reception, global simulated clock).
class DelayCollector {
 public:
  void record(SimTime now, SimDuration delay, std::size_t notified) {
    delays_ms_.add(to_millis(delay));
    if (series_) series_->add(now, to_millis(delay));
    notifications_ += notified;
    ++publications_completed_;
    last_completion_ = now;
  }

  // Optional time-binned view (Figures 7-9).
  void enable_series(SimDuration bin) {
    series_.emplace(bin);
  }

  // Optional per-publication delivery ledger: every notification is recorded
  // against its publication id so the chaos harness can compare the actual
  // deliveries with the match oracle's ground truth (missing, duplicated or
  // mis-addressed notifications all become visible).
  struct AuditEntry {
    std::uint32_t deliveries = 0;
    std::vector<SubscriberId> subscribers;  // as carried by the last delivery
  };
  void enable_audit() { audit_enabled_ = true; }
  [[nodiscard]] bool audit_enabled() const { return audit_enabled_; }
  void record_delivery(PublicationId pub,
                       const std::vector<SubscriberId>& subscribers) {
    if (!audit_enabled_) return;
    auto& entry = audit_[pub];
    ++entry.deliveries;
    entry.subscribers = subscribers;
  }
  [[nodiscard]] const std::unordered_map<PublicationId, AuditEntry>& audit()
      const {
    return audit_;
  }

  [[nodiscard]] const PercentileTracker& delays_ms() const {
    return delays_ms_;
  }
  [[nodiscard]] const TimeBinnedSeries* series() const {
    return series_ ? &*series_ : nullptr;
  }
  [[nodiscard]] std::uint64_t notifications() const { return notifications_; }
  [[nodiscard]] std::uint64_t publications_completed() const {
    return publications_completed_;
  }
  [[nodiscard]] SimTime last_completion() const { return last_completion_; }
  void reset_counts() {
    notifications_ = 0;
    publications_completed_ = 0;
    delays_ms_.reset();
  }

 private:
  PercentileTracker delays_ms_;
  std::optional<TimeBinnedSeries> series_;
  std::uint64_t notifications_ = 0;
  std::uint64_t publications_completed_ = 0;
  SimTime last_completion_{0};
  bool audit_enabled_ = false;
  std::unordered_map<PublicationId, AuditEntry> audit_;
};

class SinkHandler final : public engine::Handler {
 public:
  explicit SinkHandler(std::shared_ptr<DelayCollector> collector)
      : collector_(std::move(collector)) {}

  void on_event(engine::Context& ctx, const engine::PayloadPtr& p) override;
  [[nodiscard]] double cost_units(const engine::PayloadPtr& p) const override;
  [[nodiscard]] cluster::LockMode lock_mode(
      const engine::PayloadPtr& p) const override {
    return dynamic_cast<const NotificationPayload*>(p.get()) != nullptr
               ? cluster::LockMode::kWrite  // mutates the seen-set
               : cluster::LockMode::kNone;
  }
  void serialize_state(BinaryWriter& w) const override;
  void restore_state(BinaryReader& r) override;
  [[nodiscard]] std::size_t state_bytes() const override;

 private:
  std::shared_ptr<DelayCollector> collector_;
  // Publications already recorded: an EP recovery may re-send a
  // notification, and the measurements must count each publication once.
  std::set<PublicationId> seen_;
};

}  // namespace esh::pubsub
