#include "workload/oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

namespace esh::workload {

namespace {

constexpr std::size_t kMemoSlots = 2048;

// Appends the positions of the set bits of `word`, ascending, offset by
// `base`.
void append_set_bits(std::uint64_t word, std::uint64_t base,
                     std::vector<std::uint64_t>& out) {
  for (; word != 0; word &= word - 1) {
    out.push_back(base + static_cast<std::uint64_t>(std::countr_zero(word)));
  }
}

}  // namespace

MatchOracle::MatchOracle(OracleParams params) : params_(params) {
  if (params_.total_subscriptions == 0 || params_.m_slices == 0) {
    throw std::invalid_argument{"MatchOracle: need subscriptions and slices"};
  }
  if (params_.matching_rate < 0.0 || params_.matching_rate > 1.0) {
    throw std::invalid_argument{"MatchOracle: matching rate in [0, 1]"};
  }
  if (params_.hot_fraction < 0.0 || params_.hot_fraction > 1.0) {
    throw std::invalid_argument{"MatchOracle: hot fraction in [0, 1]"};
  }
  if (params_.churn_fraction < 0.0 || params_.churn_fraction > 1.0) {
    throw std::invalid_argument{"MatchOracle: churn fraction in [0, 1]"};
  }
  if (params_.hot_fraction > 0.0 && params_.m_slices >= 2) {
    hot_count_ = static_cast<std::uint64_t>(
        params_.hot_fraction *
        static_cast<double>(params_.total_subscriptions));
  }
}

void MatchOracle::sample(PublicationId pub, std::vector<std::uint64_t>& seen,
                         std::vector<std::uint64_t>& out) const {
  Rng rng{params_.seed ^ (pub.value() * 0x9e3779b97f4a7c15ULL + 11)};
  const auto n = params_.total_subscriptions;
  const double expected = static_cast<double>(n) * params_.matching_rate;
  // k ~ Binomial(n, p), approximated by a clamped normal (n*p >> 1 for the
  // workloads of interest).
  const double stddev = std::sqrt(expected * (1.0 - params_.matching_rate));
  double k_real = rng.normal(expected, stddev);
  k_real = std::clamp(k_real, 0.0, static_cast<double>(n));
  const auto k = static_cast<std::size_t>(std::lround(k_real));

  // Rejection sampling without replacement; a draw that hits a set bit is
  // a duplicate and is drawn again.
  for (std::size_t drawn = 0; drawn < k;) {
    const std::uint64_t index = rng.next_below(n);
    std::uint64_t& word = seen[index >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (index & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++drawn;
    }
  }
  // The set bits in word order are the match set in ascending order.
  out.clear();
  for (std::size_t w = 0; out.size() < k; ++w) {
    append_set_bits(seen[w], w * 64, out);
    seen[w] = 0;
  }
}

std::vector<std::uint64_t> MatchOracle::matches(PublicationId pub) const {
  std::vector<std::uint64_t> seen((params_.total_subscriptions + 63) / 64, 0);
  std::vector<std::uint64_t> out;
  sample(pub, seen, out);
  return out;
}

const MatchOracle::Partition& MatchOracle::partitioned_matches(
    PublicationId pub) const {
  if (memo_.empty()) {
    memo_.resize(kMemoSlots);
    memo_seen_.assign((params_.total_subscriptions + 63) / 64, 0);
  }
  Partition& part = memo_[pub.value() % kMemoSlots];
  if (part.pub == pub && !part.begin.empty()) return part;
  sample(pub, memo_seen_, memo_sample_);
  // Counting sort by slice; each slice stays ascending.
  const std::size_t slices = params_.m_slices;
  part.pub = pub;
  part.begin.assign(slices + 1, 0);
  for (const std::uint64_t index : memo_sample_) {
    ++part.begin[slice_of(index) + 1];
  }
  for (std::size_t s = 0; s < slices; ++s) part.begin[s + 1] += part.begin[s];
  // From empty, a resize past the capacity allocates exactly the size
  // rather than doubling.
  part.indices.clear();
  part.indices.resize(memo_sample_.size());
  // begin[s] serves as slice s's write cursor and ends at slice s + 1's
  // start; shifting the offsets up by one slot restores them.
  for (const std::uint64_t index : memo_sample_) {
    part.indices[part.begin[slice_of(index)]++] = index;
  }
  for (std::size_t s = slices; s > 0; --s) part.begin[s] = part.begin[s - 1];
  part.begin[0] = 0;
  return part;
}

// ---- ChurnStream -------------------------------------------------------------

ChurnStream::ChurnStream(std::shared_ptr<const MatchOracle> oracle,
                         std::uint64_t seed)
    : oracle_(std::move(oracle)),
      rng_(seed * 0xd1342543de82ef95ULL + 19) {
  if (oracle_ == nullptr) {
    throw std::invalid_argument{"ChurnStream: oracle required"};
  }
}

std::uint64_t ChurnStream::target_fringe() const {
  const auto& p = oracle_->params();
  return static_cast<std::uint64_t>(
      p.churn_fraction * static_cast<double>(p.total_subscriptions));
}

ChurnStream::Event ChurnStream::next() {
  // Subscribe-biased while filling toward the target fringe, unsubscribe-
  // biased above it: the fringe size random-walks around the target.
  const bool below = live_.size() < target_fringe();
  const double subscribe_p = below ? 0.7 : 0.3;
  if (live_.empty() || rng_.next_double() < subscribe_p) {
    const std::uint64_t index =
        oracle_->params().total_subscriptions + next_fresh_++;
    live_.push_back(index);
    return Event{true, index};
  }
  const std::size_t pos = rng_.next_below(live_.size());
  const std::uint64_t index = live_[pos];
  live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pos));
  return Event{false, index};
}

OracleMatcher::OracleMatcher(std::shared_ptr<const MatchOracle> oracle,
                             cluster::CostModel cost, std::size_t slice_index)
    : oracle_(std::move(oracle)), cost_(cost), slice_index_(slice_index) {
  // Indices >= m_slices are legitimate: key-level splits create child
  // slices beyond the deploy-time count.
}

void OracleMatcher::add(const filter::AnySubscription& sub) {
  const auto& enc = std::get<filter::EncryptedSubscription>(sub);
  insert(enc.id, enc.subscriber);
}

void OracleMatcher::insert(SubscriptionId id, SubscriberId subscriber) {
  const auto index = oracle_->index_of(id);
  if (!index || oracle_->subscriber_of(*index) != subscriber) {
    throw std::invalid_argument{
        "OracleMatcher: subscription not generated by the oracle"};
  }
  const std::uint64_t word = *index >> 6;
  if (word >= stored_.size()) stored_.resize(word + 1, 0);
  const std::uint64_t bit = std::uint64_t{1} << (*index & 63);
  if ((stored_[word] & bit) == 0) ++count_;
  stored_[word] |= bit;
}

void OracleMatcher::erase_index(std::uint64_t index) {
  stored_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  --count_;
}

bool OracleMatcher::remove(SubscriptionId id) {
  const auto index = oracle_->index_of(id);
  if (!index || !stores(*index)) return false;
  erase_index(*index);
  return true;
}

filter::MatchOutcome OracleMatcher::match(const filter::AnyPublication& pub) {
  filter::MatchOutcome out;
  const auto& partition =
      oracle_->partitioned_matches(filter::publication_id(pub));
  // A deploy-time slice's store never leaves its own bucket: splits and
  // merges only shuffle state within one bucket lineage. A split child's
  // bucket comes from the parent lineage, which the matcher does not know,
  // so it scans every bucket. Either way only subscriptions actually
  // stored here match: under partial storage, mid-migration or mid-split
  // the matcher stays truthful.
  const std::span<const std::uint64_t> candidates =
      slice_index_ < oracle_->params().m_slices
          ? partition[slice_index_]
          : std::span<const std::uint64_t>{partition.indices};
  for (const std::uint64_t index : candidates) {
    if (stores(index)) {
      out.subscribers.push_back(oracle_->subscriber_of(index));
    }
  }
  out.work_units = estimate_match_units();
  return out;
}

double OracleMatcher::estimate_match_units() const {
  return cost_.aspe_match_units(oracle_->params().dimensions) *
         static_cast<double>(count_);
}

std::size_t OracleMatcher::subscription_count() const { return count_; }

std::size_t OracleMatcher::state_bytes() const {
  return count_ * cost_.subscription_bytes(oracle_->params().dimensions);
}

std::vector<std::uint64_t> OracleMatcher::indices_by_id() const {
  std::vector<std::uint64_t> indices;
  indices.reserve(count_);
  for (std::size_t w = 0; w < stored_.size(); ++w) {
    append_set_bits(stored_[w], w * 64, indices);
  }
  // Ascending index is ascending id within the hot range and within the
  // uniform range; merging the two gives ascending id.
  const auto uniform = std::lower_bound(indices.begin(), indices.end(),
                                        oracle_->hot_count());
  std::inplace_merge(indices.begin(), uniform, indices.end(),
                     [this](std::uint64_t a, std::uint64_t b) {
                       return oracle_->sub_id(a) < oracle_->sub_id(b);
                     });
  return indices;
}

void OracleMatcher::write_records(
    BinaryWriter& w, const std::vector<std::uint64_t>& indices) const {
  // The blob must have the encrypted state's size: migrations transfer the
  // real ciphertexts in the paper's system. Pad each record accordingly.
  const std::size_t record =
      cost_.subscription_bytes(oracle_->params().dimensions);
  const std::size_t payload = 16;  // id + subscriber
  const std::string padding(record > payload ? record - payload : 0, '\0');
  w.write_u64(indices.size());
  w.write_u64(record);
  for (const std::uint64_t index : indices) {
    w.write_id(oracle_->sub_id(index));
    w.write_id(oracle_->subscriber_of(index));
    w.write_string(padding);
  }
}

void OracleMatcher::read_records(BinaryReader& r) {
  const auto n = r.read_u64();
  (void)r.read_u64();  // record size
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto id = r.read_id<SubscriptionTag>();
    const auto subscriber = r.read_id<SubscriberTag>();
    (void)r.read_string();  // padding
    insert(id, subscriber);
  }
}

void OracleMatcher::serialize_state(BinaryWriter& w) const {
  write_records(w, indices_by_id());
}

std::size_t OracleMatcher::split_state(const KeyCoverage& cov,
                                       BinaryWriter& w) {
  std::vector<std::uint64_t> moving = indices_by_id();
  std::erase_if(moving, [&](std::uint64_t index) {
    return !cov.covers(oracle_->sub_id(index).value());
  });
  write_records(w, moving);
  const std::size_t serialized = moving.size();
  if (testing_keep_one_on_split && !moving.empty()) moving.pop_back();
  for (const std::uint64_t index : moving) erase_index(index);
  return serialized;
}

void OracleMatcher::absorb_state(BinaryReader& r) { read_records(r); }

void OracleMatcher::restore_state(BinaryReader& r) {
  stored_.clear();
  count_ = 0;
  read_records(r);
}

std::unique_ptr<filter::Matcher> OracleMatcher::clone_empty() const {
  return std::make_unique<OracleMatcher>(oracle_, cost_, slice_index_);
}

OracleWorkload::OracleWorkload(OracleParams params)
    : params_(params), oracle_(std::make_shared<MatchOracle>(params)) {}

filter::EncryptedSubscription OracleWorkload::subscription(
    std::uint64_t index) const {
  Rng rng{params_.seed ^ (index * 0xbf58476d1ce4e5b9ULL + 13)};
  const std::size_t m = params_.dimensions + 3;
  filter::EncryptedSubscription sub;
  sub.id = oracle_->sub_id(index);
  sub.subscriber = oracle_->subscriber_of(index);
  sub.comparisons.resize(2 * params_.dimensions);
  for (auto& cmp : sub.comparisons) {
    cmp.share_a.resize(m);
    cmp.share_b.resize(m);
    for (double& v : cmp.share_a) v = rng.uniform(-1.0, 1.0);
    for (double& v : cmp.share_b) v = rng.uniform(-1.0, 1.0);
  }
  return sub;
}

filter::EncryptedPublication OracleWorkload::next_publication() {
  Rng rng{params_.seed ^ (next_pub_ * 0x94d049bb133111ebULL + 17)};
  const std::size_t m = params_.dimensions + 3;
  filter::EncryptedPublication pub;
  pub.id = PublicationId{next_pub_++};
  pub.share_a.resize(m);
  pub.share_b.resize(m);
  for (double& v : pub.share_a) v = rng.uniform(-1.0, 1.0);
  for (double& v : pub.share_b) v = rng.uniform(-1.0, 1.0);
  return pub;
}

std::unique_ptr<filter::Matcher> OracleWorkload::make_matcher(
    cluster::CostModel cost, std::size_t slice_index) const {
  return std::make_unique<OracleMatcher>(oracle_, cost, slice_index);
}

}  // namespace esh::workload
