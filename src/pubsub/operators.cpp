#include "pubsub/operators.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/det.hpp"

namespace esh::pubsub {

namespace {

// Stable key for modulo-hash routing.
std::uint64_t route_key(PublicationId id) { return id.value(); }
std::uint64_t route_key(SubscriptionId id) { return id.value(); }

}  // namespace

// ---- SourceHandler -----------------------------------------------------------

void SourceHandler::on_event(engine::Context& ctx,
                             const engine::PayloadPtr& p) {
  if (const auto* sub = dynamic_cast<const SubscriptionPayload*>(p.get())) {
    ctx.emit(names_.ap,
             engine::Routing::hash(
                 route_key(filter::subscription_id(sub->subscription))),
             p);
    return;
  }
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    ctx.emit(names_.ap,
             engine::Routing::hash(
                 route_key(filter::publication_id(pub->publication))),
             p);
    return;
  }
  if (const auto* unsub = dynamic_cast<const UnsubscriptionPayload*>(p.get())) {
    ctx.emit(names_.ap, engine::Routing::hash(route_key(unsub->id)), p);
    return;
  }
  throw std::logic_error{"SourceHandler: unexpected payload"};
}

// ---- ApHandler ----------------------------------------------------------------

const MatchingTarget& ApHandler::target_for(bool encrypted) const {
  for (const MatchingTarget& target : targets_) {
    if (target.encrypted == encrypted) return target;
  }
  throw std::logic_error{
      "ApHandler: no Matching operator deployed for this scheme"};
}

void ApHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  if (const auto* sub = dynamic_cast<const SubscriptionPayload*>(p.get())) {
    // Subscription partitioning: modulo hash over subscription identifiers
    // splits the workload into non-overlapping per-M-slice sets, within
    // the M operator handling the subscription's filtering scheme.
    const bool encrypted =
        std::holds_alternative<filter::EncryptedSubscription>(
            sub->subscription);
    ctx.emit(target_for(encrypted).op_name,
             engine::Routing::hash(
                 route_key(filter::subscription_id(sub->subscription))),
             p);
    return;
  }
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    // Publications must meet every stored subscription of their scheme:
    // broadcast to all slices of that scheme's M operator.
    const bool encrypted =
        std::holds_alternative<filter::EncryptedPublication>(pub->publication);
    const MatchingTarget& target = target_for(encrypted);
    // Stamp the broadcast fan at the emit instant: the emit below delivers
    // to exactly these slice indices, and downstream completion (EP) must
    // collect against the fan the event was actually routed with, not
    // whatever the fan is when a partial list arrives.
    auto stamped = std::make_shared<PublicationPayload>(
        pub->publication, pub->published_at, ctx.fan_indices(target.op_name));
    ctx.emit(target.op_name, engine::Routing::broadcast(), std::move(stamped));
    return;
  }
  if (const auto* unsub = dynamic_cast<const UnsubscriptionPayload*>(p.get())) {
    // Same modulo hash as the original subscription: the removal reaches
    // exactly the slice storing it.
    ctx.emit(target_for(unsub->encrypted).op_name,
             engine::Routing::hash(route_key(unsub->id)), p);
    return;
  }
  throw std::logic_error{"ApHandler: unexpected payload"};
}

double ApHandler::cost_units(const engine::PayloadPtr& p) const {
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    const bool encrypted = std::holds_alternative<filter::EncryptedPublication>(
        pub->publication);
    return cost_.ap_route_units *
           static_cast<double>(target_for(encrypted).slices);
  }
  return cost_.ap_route_units;
}

// ---- MHandler ------------------------------------------------------------------

bool MHandler::can_batch(const engine::PayloadPtr& p) const {
  return dynamic_cast<const PublicationPayload*>(p.get()) != nullptr;
}

void MHandler::on_batch_start(engine::Context& ctx,
                              const std::vector<engine::PayloadPtr>& batch) {
  (void)ctx;
  std::vector<filter::AnyPublication> pubs;
  pubs.reserve(batch.size());
  for (const engine::PayloadPtr& p : batch) {
    const auto* pub = dynamic_cast<const PublicationPayload*>(p.get());
    if (pub == nullptr) {
      throw std::logic_error{"MHandler: non-publication in batch"};
    }
    pubs.push_back(pub->publication);
  }
  std::vector<filter::MatchOutcome> outcomes = matcher_->match_batch(pubs);
  precomputed_.clear();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    precomputed_.emplace_back(filter::publication_id(pubs[i]),
                              std::move(outcomes[i]));
  }
}

void MHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  if (const auto* sub = dynamic_cast<const SubscriptionPayload*>(p.get())) {
    matcher_->add(sub->subscription);
    return;
  }
  if (const auto* unsub = dynamic_cast<const UnsubscriptionPayload*>(p.get())) {
    (void)matcher_->remove(unsub->id);  // unknown ids are ignored
    return;
  }
  if (const auto* pub = dynamic_cast<const PublicationPayload*>(p.get())) {
    filter::MatchOutcome outcome;
    const PublicationId pub_id = filter::publication_id(pub->publication);
    if (!precomputed_.empty() && precomputed_.front().first == pub_id) {
      outcome = std::move(precomputed_.front().second);
      precomputed_.pop_front();
    } else {
      // Standalone (unbatched) publication, or a batch consumed out of
      // order: the store is unchanged since on_batch_start, so the scalar
      // result is identical either way.
      outcome = matcher_->match(pub->publication);
    }
    auto list = std::make_shared<MatchListPayload>();
    list->publication = filter::publication_id(pub->publication);
    list->m_slice_index = slice_index_;
    // The completion target is the fan the publication was broadcast with
    // (pinned at AP emit time), not the operator's current slice count: a
    // split/merge cut-over between broadcast and match must not change how
    // many partial lists EP waits for.
    list->fan_indices = pub->fan_indices;
    list->expected_lists =
        pub->fan_indices.empty()
            ? static_cast<std::uint32_t>(ctx.slice_count(own_op_))
            : static_cast<std::uint32_t>(pub->fan_indices.size());
    // A partial list labeled with a slice index outside the broadcast fan
    // would either be dropped by EP's dedup or inflate the completeness
    // count.
    [[maybe_unused]] const bool in_fan =
        pub->fan_indices.empty()
            ? slice_index_ < list->expected_lists
            : std::find(pub->fan_indices.begin(), pub->fan_indices.end(),
                        slice_index_) != pub->fan_indices.end();
    ESH_INVARIANT("pubsub", "m-slice-in-fan", in_fan,
                  ::esh::contracts::Detail{}
                      .expected("member of the broadcast fan")
                      .actual(slice_index_)
                      .note("publication " +
                            std::to_string(list->publication.value())));
    list->subscribers = std::move(outcome.subscribers);
    list->published_at = pub->published_at;
    const auto routing = engine::Routing::hash(route_key(list->publication));
    ctx.emit(names_.ep, routing, std::move(list));
    return;
  }
  throw std::logic_error{"MHandler: unexpected payload"};
}

double MHandler::cost_units(const engine::PayloadPtr& p) const {
  if (dynamic_cast<const PublicationPayload*>(p.get()) != nullptr) {
    return cost_.m_fixed_units + matcher_->estimate_match_units();
  }
  return 4.0;  // subscription insertion
}

std::size_t MHandler::split_state(const KeyCoverage& cov, BinaryWriter& w) {
  [[maybe_unused]] const std::size_t before =
      matcher_->subscription_count();
  const std::size_t moved = matcher_->split_state(cov, w);
  // Conservation: every subscription either stayed or was serialized for
  // the child — a split must not drop or duplicate stored state.
  ESH_INVARIANT("pubsub", "split-state-conserved",
                matcher_->subscription_count() + moved == before,
                ::esh::contracts::Detail{}
                    .expected(before)
                    .actual(matcher_->subscription_count() + moved)
                    .note("subscriptions before vs. retained + moved"));
  return moved;
}

void MHandler::absorb_state(BinaryReader& r) { matcher_->absorb_state(r); }

cluster::LockMode MHandler::lock_mode(const engine::PayloadPtr& p) const {
  // Matching only reads the subscription store: R lock, so one slice's
  // matches parallelize across the host's cores (paper §III).
  if (dynamic_cast<const PublicationPayload*>(p.get()) != nullptr) {
    return cluster::LockMode::kRead;
  }
  return cluster::LockMode::kWrite;
}

// ---- EpHandler -----------------------------------------------------------------

namespace {

// True when `lists_from` covers the completion target of `list`: the
// broadcast fan stamped on the publication at AP emit time when present,
// the dense 0..expected-1 range otherwise (legacy / never-split payloads).
bool lists_complete(const std::set<std::uint32_t>& lists_from,
                    const MatchListPayload& list, std::size_t fallback) {
  if (!list.fan_indices.empty()) {
    for (const std::uint32_t index : list.fan_indices) {
      if (!lists_from.contains(index)) return false;
    }
    return true;
  }
  const std::uint32_t expected =
      list.expected_lists > 0 ? list.expected_lists
                              : static_cast<std::uint32_t>(fallback);
  return lists_from.size() >= expected;
}

}  // namespace

void EpHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  const auto* list = dynamic_cast<const MatchListPayload*>(p.get());
  if (list == nullptr) {
    throw std::logic_error{"EpHandler: unexpected payload"};
  }
  // EP is the exactly-once boundary (the paper's Exit Point): recovery
  // replays deliver partial lists at-least-once below it, so lists of
  // already-notified publications and duplicate per-M-slice lists must be
  // absorbed here.
  if (completed_.contains(list->publication)) return;
  // Each publication is filtered by exactly one scheme's M operator; its
  // completion target arrives with every partial list: the broadcast fan
  // pinned at AP emit time (falls back to a dense count for legacy /
  // never-split payloads).
  [[maybe_unused]] const bool in_fan =
      list->fan_indices.empty()
          ? list->m_slice_index < (list->expected_lists > 0
                                       ? list->expected_lists
                                       : static_cast<std::uint32_t>(m_slices_))
          : std::find(list->fan_indices.begin(), list->fan_indices.end(),
                      list->m_slice_index) != list->fan_indices.end();
  ESH_PRECONDITION("pubsub", "ep-list-in-fan", in_fan,
                   ::esh::contracts::Detail{}
                       .expected("member of the broadcast fan")
                       .actual(list->m_slice_index)
                       .note("publication " +
                             std::to_string(list->publication.value())));
  Pending& pending = pending_[list->publication];
  pending.published_at = list->published_at;
  if (!pending.lists_from.insert(list->m_slice_index).second) return;
  pending.subscribers.insert(pending.subscribers.end(),
                             list->subscribers.begin(),
                             list->subscribers.end());
  if (!lists_complete(pending.lists_from, *list, m_slices_)) return;

  // AP broadcast completeness: every collected index passed the fan
  // membership precondition and the full fan is covered, so set equality
  // reduces to a size check (dense fallback: `expected` distinct indices,
  // each below `expected`, is exactly {0 .. expected-1}).
  [[maybe_unused]] const std::size_t fan_size =
      list->fan_indices.empty()
          ? (list->expected_lists > 0 ? list->expected_lists
                                      : static_cast<std::uint32_t>(m_slices_))
          : list->fan_indices.size();
  ESH_INVARIANT("pubsub", "ap-broadcast-complete",
                pending.lists_from.size() == fan_size &&
                    (!list->fan_indices.empty() ||
                     *pending.lists_from.rbegin() < fan_size),
                ::esh::contracts::Detail{}
                    .expected(fan_size)
                    .actual(pending.lists_from.size())
                    .note("publication " +
                          std::to_string(list->publication.value())));
  complete_publication(ctx, list->publication, std::move(pending));
}

void EpHandler::complete_publication(engine::Context& ctx, PublicationId pub,
                                     Pending pending) {
  auto notification = std::make_shared<NotificationPayload>();
  notification->publication = pub;
  notification->subscribers = std::move(pending.subscribers);
  notification->published_at = pending.published_at;
  // EP exactly-once: a publication enters the completed set precisely once;
  // a second dispatch would double-notify its subscribers.
  [[maybe_unused]] const bool first_dispatch = completed_.insert(pub).second;
  ESH_INVARIANT("pubsub", "ep-exactly-once", first_dispatch,
                ::esh::contracts::Detail{}
                    .expected("first dispatch")
                    .actual("already completed")
                    .note("publication " + std::to_string(pub.value())));
  pending_.erase(pub);
  const auto routing =
      engine::Routing::hash(route_key(notification->publication));
  ctx.emit(names_.sink, routing, std::move(notification));
}

double EpHandler::cost_units(const engine::PayloadPtr& p) const {
  const auto* list = dynamic_cast<const MatchListPayload*>(p.get());
  if (list == nullptr) return 1.0;
  const auto ids = static_cast<double>(list->subscribers.size());
  // Merge cost plus this partial list's share of the notification sends.
  return cost_.ep_list_units + ids * (cost_.ep_merge_units_per_id +
                                      cost_.ep_notify_units_per_id);
}

void EpHandler::serialize_state(BinaryWriter& w) const {
  w.write_u64(pending_.size());
  // Sorted: checkpoint bytes must not depend on hash-table layout.
  for (const PublicationId pub : sorted_keys(pending_)) {
    const Pending& pending = pending_.at(pub);
    w.write_id(pub);
    w.write_u64(pending.lists_from.size());
    for (std::uint32_t m : pending.lists_from) w.write_u32(m);
    w.write_i64(pending.published_at.count());
    w.write_u64(pending.subscribers.size());
    for (SubscriberId s : pending.subscribers) w.write_id(s);
  }
  w.write_u64(completed_.size());
  for (PublicationId pub : completed_) w.write_id(pub);
}

void EpHandler::restore_state(BinaryReader& r) {
  pending_.clear();
  completed_.clear();
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto pub = r.read_id<PublicationTag>();
    Pending pending;
    const auto lists = r.read_u64();
    for (std::uint64_t j = 0; j < lists; ++j) {
      pending.lists_from.insert(r.read_u32());
    }
    pending.published_at = SimTime{r.read_i64()};
    const auto count = r.read_u64();
    pending.subscribers.reserve(count);
    for (std::uint64_t j = 0; j < count; ++j) {
      pending.subscribers.push_back(r.read_id<SubscriberTag>());
    }
    pending_.emplace(pub, std::move(pending));
  }
  const auto done = r.read_u64();
  for (std::uint64_t i = 0; i < done; ++i) {
    completed_.insert(r.read_id<PublicationTag>());
  }
}

std::size_t EpHandler::state_bytes() const {
  std::size_t total = 16;
  // lint:allow(unordered-iteration): order-free sum
  for (const auto& [pub, pending] : pending_) {
    total += 32 + pending.subscribers.size() * sizeof(SubscriberId);
  }
  total += completed_.size() * sizeof(PublicationId);
  return total;
}

// ---- SinkHandler ----------------------------------------------------------------

void SinkHandler::on_event(engine::Context& ctx, const engine::PayloadPtr& p) {
  const auto* n = dynamic_cast<const NotificationPayload*>(p.get());
  if (n == nullptr) {
    throw std::logic_error{"SinkHandler: unexpected payload"};
  }
  // A recovered EP slice regenerates notifications it had already sent;
  // each publication is measured once.
  if (!seen_.insert(n->publication).second) return;
  collector_->record(ctx.now(), ctx.now() - n->published_at,
                     n->subscribers.size());
  collector_->record_delivery(n->publication, n->subscribers);
}

void SinkHandler::serialize_state(BinaryWriter& w) const {
  w.write_u64(seen_.size());
  for (PublicationId pub : seen_) w.write_id(pub);
}

void SinkHandler::restore_state(BinaryReader& r) {
  seen_.clear();
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    seen_.insert(r.read_id<PublicationTag>());
  }
}

std::size_t SinkHandler::state_bytes() const {
  return 16 + seen_.size() * sizeof(PublicationId);
}

double SinkHandler::cost_units(const engine::PayloadPtr& p) const {
  const auto* n = dynamic_cast<const NotificationPayload*>(p.get());
  return 1.0 + (n != nullptr
                    ? 0.05 * static_cast<double>(n->subscribers.size())
                    : 0.0);
}

}  // namespace esh::pubsub
