#include "filter/matcher.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace esh::filter {

namespace {

// Sentinel bounds for SoA columns past a subscription's dimension count:
// an empty interval no attribute value can satisfy.
constexpr double kNeverLow = std::numeric_limits<double>::infinity();
constexpr double kNeverHigh = -std::numeric_limits<double>::infinity();

}  // namespace

SubscriptionId subscription_id(const AnySubscription& s) {
  return std::visit([](const auto& v) { return v.id; }, s);
}

PublicationId publication_id(const AnyPublication& p) {
  return std::visit([](const auto& v) { return v.id; }, p);
}

std::size_t subscription_bytes(const AnySubscription& s) {
  if (const auto* enc = std::get_if<EncryptedSubscription>(&s)) {
    return enc->bytes();
  }
  const auto& plain = std::get<Subscription>(s);
  return 24 + plain.predicates.size() * 2 * sizeof(double);
}

std::size_t publication_bytes(const AnyPublication& p) {
  if (const auto* enc = std::get_if<EncryptedPublication>(&p)) {
    return enc->bytes();
  }
  const auto& plain = std::get<Publication>(p);
  return 16 + plain.attributes.size() * sizeof(double);
}

// ---- Matcher -----------------------------------------------------------------

std::vector<MatchOutcome> Matcher::match_batch(
    std::span<const AnyPublication> pubs) {
  std::vector<MatchOutcome> out;
  out.reserve(pubs.size());
  for (const AnyPublication& pub : pubs) out.push_back(match(pub));
  return out;
}

std::size_t Matcher::split_state(const KeyCoverage&, BinaryWriter&) {
  throw std::logic_error{"matcher scheme does not support split_state"};
}

void Matcher::absorb_state(BinaryReader&) {
  throw std::logic_error{"matcher scheme does not support absorb_state"};
}

void Matcher::merge_state(const Matcher& other) {
  BinaryWriter w;
  other.serialize_state(w);
  BinaryReader r{w.buffer()};
  absorb_state(r);
}

// ---- BruteForceMatcher -------------------------------------------------------

BruteForceMatcher::BruteForceMatcher(cluster::CostModel cost) : cost_(cost) {}

void BruteForceMatcher::add(const AnySubscription& sub) {
  const auto& plain = std::get<Subscription>(sub);
  const std::size_t d = plain.predicates.size();
  if (d > lows_.size()) {
    lows_.resize(d, std::vector<double>(ids_.size(), kNeverLow));
    highs_.resize(d, std::vector<double>(ids_.size(), kNeverHigh));
  }
  ids_.push_back(plain.id);
  subscribers_.push_back(plain.subscriber);
  dims_.push_back(static_cast<std::uint32_t>(d));
  for (std::size_t a = 0; a < lows_.size(); ++a) {
    lows_[a].push_back(a < d ? plain.predicates[a].low : kNeverLow);
    highs_[a].push_back(a < d ? plain.predicates[a].high : kNeverHigh);
  }
  predicate_count_ += d;
}

bool BruteForceMatcher::remove(SubscriptionId id) {
  const auto it = std::find(ids_.begin(), ids_.end(), id);
  if (it == ids_.end()) return false;
  const auto slot =
      static_cast<std::size_t>(std::distance(ids_.begin(), it));
  predicate_count_ -= dims_[slot];
  ids_.erase(it);
  subscribers_.erase(subscribers_.begin() + static_cast<std::ptrdiff_t>(slot));
  dims_.erase(dims_.begin() + static_cast<std::ptrdiff_t>(slot));
  for (auto& col : lows_) {
    col.erase(col.begin() + static_cast<std::ptrdiff_t>(slot));
  }
  for (auto& col : highs_) {
    col.erase(col.begin() + static_cast<std::ptrdiff_t>(slot));
  }
  return true;
}

MatchOutcome BruteForceMatcher::match(const AnyPublication& pub) {
  const auto& plain = std::get<Publication>(pub);
  MatchOutcome out;
  out.work_units =
      cost_.plain_match_units * static_cast<double>(ids_.size());
  const std::size_t d = plain.attributes.size();
  if (d > lows_.size()) return out;  // no stored subscription has that many
  if (d == 0) {
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      if (dims_[s] == 0) out.subscribers.push_back(subscribers_[s]);
    }
    return out;
  }
  // Survivor pruning, one contiguous column pair at a time: column 0 also
  // folds in the dimension-count equality matches() requires.
  survivors_.clear();
  const auto du = static_cast<std::uint32_t>(d);
  const double v0 = plain.attributes[0];
  const double* lo0 = lows_[0].data();
  const double* hi0 = highs_[0].data();
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    if (dims_[s] == du && lo0[s] <= v0 && v0 <= hi0[s]) {
      survivors_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  for (std::size_t a = 1; a < d && !survivors_.empty(); ++a) {
    const double v = plain.attributes[a];
    const double* lo = lows_[a].data();
    const double* hi = highs_[a].data();
    std::size_t kept = 0;
    for (const std::uint32_t s : survivors_) {
      if (lo[s] <= v && v <= hi[s]) survivors_[kept++] = s;
    }
    survivors_.resize(kept);
  }
  for (const std::uint32_t s : survivors_) {
    out.subscribers.push_back(subscribers_[s]);
  }
  return out;
}

double BruteForceMatcher::estimate_match_units() const {
  return cost_.plain_match_units * static_cast<double>(ids_.size());
}

std::size_t BruteForceMatcher::subscription_count() const {
  return ids_.size();
}

std::size_t BruteForceMatcher::state_bytes() const {
  return 24 * ids_.size() + predicate_count_ * 2 * sizeof(double);
}

void BruteForceMatcher::serialize_state(BinaryWriter& w) const {
  // Same wire format as serialize(w, Subscription) per stored entry.
  w.write_u64(ids_.size());
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    w.write_id(ids_[s]);
    w.write_id(subscribers_[s]);
    w.write_u64(dims_[s]);
    for (std::uint32_t a = 0; a < dims_[s]; ++a) {
      w.write_f64(lows_[a][s]);
      w.write_f64(highs_[a][s]);
    }
  }
}

void BruteForceMatcher::restore_state(BinaryReader& r) {
  ids_.clear();
  subscribers_.clear();
  dims_.clear();
  lows_.clear();
  highs_.clear();
  predicate_count_ = 0;
  const auto n = r.read_u64();
  ids_.reserve(n);
  subscribers_.reserve(n);
  dims_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    add(AnySubscription{deserialize_subscription(r)});
  }
}

std::size_t BruteForceMatcher::split_state(const KeyCoverage& cov,
                                           BinaryWriter& w) {
  std::vector<std::size_t> moved;
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    if (cov.covers(ids_[s].value())) moved.push_back(s);
  }
  w.write_u64(moved.size());
  for (const std::size_t s : moved) {
    w.write_id(ids_[s]);
    w.write_id(subscribers_[s]);
    w.write_u64(dims_[s]);
    for (std::uint32_t a = 0; a < dims_[s]; ++a) {
      w.write_f64(lows_[a][s]);
      w.write_f64(highs_[a][s]);
    }
  }
  const std::size_t serialized = moved.size();
  if (testing_keep_one_on_split && !moved.empty()) moved.pop_back();
  // Forward compaction: kept slots keep their relative (insertion) order.
  std::size_t kept = 0;
  std::size_t next_moved = 0;
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    if (next_moved < moved.size() && moved[next_moved] == s) {
      ++next_moved;
      predicate_count_ -= dims_[s];
      continue;
    }
    ids_[kept] = ids_[s];
    subscribers_[kept] = subscribers_[s];
    dims_[kept] = dims_[s];
    for (auto& col : lows_) col[kept] = col[s];
    for (auto& col : highs_) col[kept] = col[s];
    ++kept;
  }
  ids_.resize(kept);
  subscribers_.resize(kept);
  dims_.resize(kept);
  for (auto& col : lows_) col.resize(kept);
  for (auto& col : highs_) col.resize(kept);
  return serialized;
}

void BruteForceMatcher::insert_subscription(std::size_t pos,
                                            const Subscription& plain) {
  const std::size_t d = plain.predicates.size();
  if (d > lows_.size()) {
    lows_.resize(d, std::vector<double>(ids_.size(), kNeverLow));
    highs_.resize(d, std::vector<double>(ids_.size(), kNeverHigh));
  }
  const auto at = static_cast<std::ptrdiff_t>(pos);
  ids_.insert(ids_.begin() + at, plain.id);
  subscribers_.insert(subscribers_.begin() + at, plain.subscriber);
  dims_.insert(dims_.begin() + at, static_cast<std::uint32_t>(d));
  for (std::size_t a = 0; a < lows_.size(); ++a) {
    lows_[a].insert(lows_[a].begin() + at,
                    a < d ? plain.predicates[a].low : kNeverLow);
    highs_[a].insert(highs_[a].begin() + at,
                     a < d ? plain.predicates[a].high : kNeverHigh);
  }
  predicate_count_ += d;
}

void BruteForceMatcher::absorb_state(BinaryReader& r) {
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Subscription plain = deserialize_subscription(r);
    // Ascending-id merge position: before the first stored id above ours.
    std::size_t pos = 0;
    while (pos < ids_.size() && ids_[pos].value() < plain.id.value()) ++pos;
    insert_subscription(pos, plain);
  }
}

std::unique_ptr<Matcher> BruteForceMatcher::clone_empty() const {
  return std::make_unique<BruteForceMatcher>(cost_);
}

// ---- AspeMatcher -------------------------------------------------------------

AspeMatcher::AspeMatcher(cluster::CostModel cost) : cost_(cost) {}

void AspeMatcher::append_row(const EncryptedSubscription& s) {
  std::uint32_t len = 0;
  bool regular = !s.comparisons.empty();
  if (regular) {
    len = static_cast<std::uint32_t>(s.comparisons.front().share_a.size());
    regular = len > 0;
    for (const EncryptedComparison& cmp : s.comparisons) {
      regular = regular && cmp.share_a.size() == len &&
                cmp.share_b.size() == len;
    }
  }
  row_offset_.push_back(flat_.size());
  row_cmps_.push_back(static_cast<std::uint32_t>(s.comparisons.size()));
  row_share_len_.push_back(regular ? len : 0);
  if (!regular) return;
  for (const EncryptedComparison& cmp : s.comparisons) {
    flat_.insert(flat_.end(), cmp.share_a.begin(), cmp.share_a.end());
    flat_.insert(flat_.end(), cmp.share_b.begin(), cmp.share_b.end());
  }
}

void AspeMatcher::rebuild_rows() {
  flat_.clear();
  row_offset_.clear();
  row_cmps_.clear();
  row_share_len_.clear();
  for (const EncryptedSubscription& s : subs_) append_row(s);
}

void AspeMatcher::add(const AnySubscription& sub) {
  const auto& enc = std::get<EncryptedSubscription>(sub);
  state_bytes_ += enc.bytes();
  dimensions_ = std::max(dimensions_, enc.comparisons.size() / 2);
  subs_.push_back(enc);
  append_row(subs_.back());
}

bool AspeMatcher::remove(SubscriptionId id) {
  auto it = std::find_if(
      subs_.begin(), subs_.end(),
      [id](const EncryptedSubscription& s) { return s.id == id; });
  if (it == subs_.end()) return false;
  state_bytes_ -= it->bytes();
  subs_.erase(it);
  rebuild_rows();
  return true;
}

bool AspeMatcher::row_matches(std::size_t index, const double* pub_a,
                              std::size_t len_a, const double* pub_b,
                              std::size_t len_b) const {
  const std::uint32_t len = row_share_len_[index];
  if (pub_a == nullptr || len_a != len || len_b != len) {
    throw std::invalid_argument{"dot: size mismatch"};
  }
  const double* row = flat_.data() + row_offset_[index];
  const std::uint32_t cmps = row_cmps_[index];
  for (std::uint32_t c = 0; c < cmps; ++c) {
    const double* qa = row + static_cast<std::size_t>(c) * 2 * len;
    const double* qb = qa + len;
    double acc = 0.0;
    for (std::uint32_t j = 0; j < len; ++j) acc += qa[j] * pub_a[j];
    for (std::uint32_t j = 0; j < len; ++j) acc += qb[j] * pub_b[j];
    if (acc < 0.0) return false;
  }
  return true;
}

MatchOutcome AspeMatcher::match(const AnyPublication& pub) {
  const auto& enc = std::get<EncryptedPublication>(pub);
  MatchOutcome out;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    const bool hit =
        row_share_len_[i] == 0
            ? encrypted_match(subs_[i], enc)  // irregular: slow AoS path
            : row_matches(i, enc.share_a.data(), enc.share_a.size(),
                          enc.share_b.data(), enc.share_b.size());
    if (hit) out.subscribers.push_back(subs_[i].subscriber);
  }
  // Every stored subscription is tested; each test costs O(d^2).
  out.work_units = estimate_match_units();
  return out;
}

double AspeMatcher::estimate_match_units() const {
  return cost_.aspe_match_units(std::max<std::size_t>(dimensions_, 1)) *
         static_cast<double>(subs_.size());
}

std::size_t AspeMatcher::subscription_count() const { return subs_.size(); }

std::size_t AspeMatcher::state_bytes() const { return state_bytes_; }

void AspeMatcher::serialize_state(BinaryWriter& w) const {
  w.write_u64(subs_.size());
  for (const auto& s : subs_) serialize(w, s);
}

void AspeMatcher::restore_state(BinaryReader& r) {
  subs_.clear();
  state_bytes_ = 0;
  dimensions_ = 0;
  flat_.clear();
  row_offset_.clear();
  row_cmps_.clear();
  row_share_len_.clear();
  const auto n = r.read_u64();
  subs_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto s = deserialize_encrypted_subscription(r);
    state_bytes_ += s.bytes();
    dimensions_ = std::max(dimensions_, s.comparisons.size() / 2);
    subs_.push_back(std::move(s));
    append_row(subs_.back());
  }
}

std::size_t AspeMatcher::split_state(const KeyCoverage& cov,
                                     BinaryWriter& w) {
  std::vector<std::size_t> moved;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    if (cov.covers(subs_[i].id.value())) moved.push_back(i);
  }
  w.write_u64(moved.size());
  for (const std::size_t i : moved) serialize(w, subs_[i]);
  const std::size_t serialized = moved.size();
  if (testing_keep_one_on_split && !moved.empty()) moved.pop_back();
  for (auto it = moved.rbegin(); it != moved.rend(); ++it) {
    state_bytes_ -= subs_[*it].bytes();
    subs_.erase(subs_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  // dimensions_ stays at its historical max, exactly as remove() leaves it:
  // the cost estimate then matches a store that never split.
  rebuild_rows();
  return serialized;
}

void AspeMatcher::absorb_state(BinaryReader& r) {
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    auto s = deserialize_encrypted_subscription(r);
    state_bytes_ += s.bytes();
    dimensions_ = std::max(dimensions_, s.comparisons.size() / 2);
    auto pos = std::find_if(subs_.begin(), subs_.end(),
                            [&s](const EncryptedSubscription& e) {
                              return s.id.value() < e.id.value();
                            });
    subs_.insert(pos, std::move(s));
  }
  rebuild_rows();
}

std::unique_ptr<Matcher> AspeMatcher::clone_empty() const {
  return std::make_unique<AspeMatcher>(cost_);
}

}  // namespace esh::filter
