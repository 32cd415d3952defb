// Oracle-backed workload for cluster-scale experiments.
//
// Really evaluating encrypted filtering at the paper's scale (up to 42
// million ASPE operations per second, sustained for simulated hours) would
// require the authors' 240-core testbed; a single simulation core cannot
// execute that many real dot products in tolerable wall-clock time. The
// macro experiments therefore substitute a *match oracle*: the generator
// samples each publication's ground-truth match set directly (Binomial
// thinning at the configured matching rate, deterministic per publication
// id), while the M slices charge the full ASPE cost model and carry
// encrypted-sized state. Statistically the engine sees exactly the load the
// paper describes - per-pair O(d^2) CPU cost, 1 % matching rate, encrypted
// payload and state sizes - without executing the arithmetic.
//
// The real ASPE implementation (filter/aspe.*) remains fully functional and
// is exercised by unit tests, the small-scale end-to-end test, and the
// micro benchmarks; DESIGN.md documents this substitution.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cost_model.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "filter/matcher.hpp"

namespace esh::workload {

struct OracleParams {
  std::size_t dimensions = 4;
  std::size_t total_subscriptions = 100'000;
  double matching_rate = 0.01;
  // Number of M slices: must match the StreamHub deployment (the oracle
  // partitions match sets the way AP partitions subscriptions).
  std::size_t m_slices = 16;
  std::uint64_t seed = 42;
  // Key skew: this fraction of the subscriptions gets ids congruent to
  // 0 mod m_slices, so they all land in bucket 0 and that M slice becomes
  // a hotspot no whole-slice migration can dilute. 0 keeps the historical
  // uniform ids (index + 1).
  double hot_fraction = 0.0;
  // Target steady-state size of the churning fringe driven by ChurnStream,
  // as a fraction of total_subscriptions. The fringe lives at indices >=
  // total_subscriptions (fresh, unique ids; see ChurnStream), so the base
  // population and the oracle's match sampling are unaffected. 0 disables.
  //
  // All call sites use designated initializers (the old positional-
  // initializer trap on hot_fraction is retired), so appending knobs here
  // is safe.
  double churn_fraction = 0.0;
};

// Deterministic ground-truth sampler shared by every OracleMatcher.
class MatchOracle {
 public:
  explicit MatchOracle(OracleParams params);

  // Id scheme: uniform ids are index+1; under hot_fraction the first
  // hot_count indices get multiples of m_slices (bucket 0) and the rest
  // walk the non-multiples in order. Both ranges are injective and
  // disjoint, so ids stay unique and AP's modulo routing sees the skew.
  [[nodiscard]] SubscriptionId sub_id(std::uint64_t index) const {
    if (hot_count_ == 0) return SubscriptionId{index + 1};
    const auto m = static_cast<std::uint64_t>(params_.m_slices);
    if (index < hot_count_) return SubscriptionId{(index + 1) * m};
    const std::uint64_t j = index - hot_count_;  // j-th id not divisible by m
    return SubscriptionId{(j / (m - 1)) * m + (j % (m - 1)) + 1};
  }
  // Exact inverse of sub_id over every index, fringe included; nullopt
  // for an id sub_id never returns.
  [[nodiscard]] std::optional<std::uint64_t> index_of(SubscriptionId id) const {
    const std::uint64_t v = id.value();
    if (v == 0 || !id.valid()) return std::nullopt;
    if (hot_count_ == 0) return v - 1;
    const auto m = static_cast<std::uint64_t>(params_.m_slices);
    if (v % m == 0) {
      if (v / m > hot_count_) return std::nullopt;
      return v / m - 1;
    }
    return hot_count_ + ((v - 1) / m) * (m - 1) + (v - 1) % m;
  }
  [[nodiscard]] std::uint64_t hot_count() const { return hot_count_; }
  [[nodiscard]] SubscriberId subscriber_of(std::uint64_t index) const {
    return SubscriberId{index};
  }
  // M slice that stores subscription `index` (AP's modulo-hash rule).
  [[nodiscard]] std::size_t slice_of(std::uint64_t index) const {
    return sub_id(index).value() % params_.m_slices;
  }

  // Match set of one publication grouped by M slice: slice s holds
  // indices[begin[s], begin[s + 1]), ascending.
  struct Partition {
    PublicationId pub;
    std::vector<std::uint64_t> indices;
    std::vector<std::size_t> begin;  // m_slices + 1 offsets; empty = unfilled

    [[nodiscard]] std::size_t size() const { return begin.size() - 1; }
    [[nodiscard]] std::span<const std::uint64_t> operator[](
        std::size_t slice) const {
      return {indices.data() + begin[slice], indices.data() + begin[slice + 1]};
    }
  };
  // Memoized, so the m_slices queries for one publication sample it once.
  // The reference stays valid until the next call: a later publication may
  // refill the same memo slot in place.
  [[nodiscard]] const Partition& partitioned_matches(PublicationId pub) const;

  // Flat ground-truth match set (sampled subscription indices, ascending).
  [[nodiscard]] std::vector<std::uint64_t> matches(PublicationId pub) const;

  [[nodiscard]] const OracleParams& params() const { return params_; }

 private:
  // Draws pub's match set into `out`, ascending. `seen` holds one bit per
  // base index and must be clear; it is left clear.
  void sample(PublicationId pub, std::vector<std::uint64_t>& seen,
              std::vector<std::uint64_t>& out) const;

  OracleParams params_;
  std::uint64_t hot_count_ = 0;
  // Memo of partitioned_matches: a ring of partitions keyed by
  // pub % size and tagged with the publication id, refilled in place so a
  // steady state allocates nothing. It is a memo of a pure function, so
  // any eviction gives the same results. It is also unsynchronized, and the
  // oracle is shared by every OracleMatcher of a deployment. No worker
  // thread can reach it: the engine matches with the scalar match on the
  // simulation thread and never calls match_batch, and OracleMatcher keeps
  // Matcher's serial match_batch.
  mutable std::vector<Partition> memo_;
  mutable std::vector<std::uint64_t> memo_seen_;    // sample() bitmap
  mutable std::vector<std::uint64_t> memo_sample_;  // sample() output
};

// Deterministic subscribe/unsubscribe stream over the churning fringe
// (social-feed shape: the stable base population keeps matching, while a
// fringe of size ~ churn_fraction * total_subscriptions subscribes and
// unsubscribes throughout the run). Fringe subscriptions live at indices >=
// total_subscriptions: sub_id() is injective over ALL indices (hot and
// uniform ranges alike), so every churned-in subscription carries a fresh,
// never-reused id and AP's modulo routing spreads the fringe like any
// other traffic. The oracle's match sampling draws from the base
// population only, so the fringe is cold -- it consumes subscribe/
// unsubscribe bandwidth and M-slice state without inflating notifications.
class ChurnStream {
 public:
  struct Event {
    bool subscribe;       // false = unsubscribe
    std::uint64_t index;  // workload subscription index (>= base population)
  };

  ChurnStream(std::shared_ptr<const MatchOracle> oracle, std::uint64_t seed);

  // Next deterministic churn event. Below the target fringe size the
  // stream is subscribe-biased (the fringe fills), at or above it the bias
  // flips (steady state); unsubscribes always target a currently live
  // fringe index, chosen uniformly.
  [[nodiscard]] Event next();

  [[nodiscard]] std::size_t live_fringe() const { return live_.size(); }
  [[nodiscard]] std::uint64_t spawned() const { return next_fresh_; }
  [[nodiscard]] std::uint64_t target_fringe() const;

 private:
  std::shared_ptr<const MatchOracle> oracle_;
  Rng rng_;
  std::vector<std::uint64_t> live_;  // churned-in fringe, insertion order
  std::uint64_t next_fresh_ = 0;
};

// Matcher backed by the oracle: stores which oracle subscriptions it holds
// (one membership bit per oracle index; the subscriber is the oracle's
// subscriber_of), reports encrypted-equivalent state size and ASPE-model
// match cost, and returns the oracle's ground truth restricted to the
// stored entries. add accepts only subscriptions the oracle generated
// (id and subscriber); anything else throws std::invalid_argument, as no
// sampled match set could ever contain it.
// Key-level split aware: a deploy-time slice (index < m_slices) only ever
// stores subscriptions of its own oracle bucket, while a split child
// (index >= m_slices) inherits its bucket from the parent lineage and
// scans every bucket to stay truthful.
class OracleMatcher final : public filter::Matcher {
 public:
  OracleMatcher(std::shared_ptr<const MatchOracle> oracle,
                cluster::CostModel cost, std::size_t slice_index);

  void add(const filter::AnySubscription& sub) override;
  bool remove(SubscriptionId id) override;
  [[nodiscard]] filter::MatchOutcome match(
      const filter::AnyPublication& pub) override;
  [[nodiscard]] double estimate_match_units() const override;
  [[nodiscard]] std::size_t subscription_count() const override;
  [[nodiscard]] std::size_t state_bytes() const override;
  void serialize_state(BinaryWriter& w) const override;
  void restore_state(BinaryReader& r) override;
  std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w) override;
  void absorb_state(BinaryReader& r) override;
  [[nodiscard]] std::unique_ptr<filter::Matcher> clone_empty() const override;
  [[nodiscard]] std::string scheme_name() const override {
    return "aspe-oracle";
  }

 private:
  void insert(SubscriptionId id, SubscriberId subscriber);
  void erase_index(std::uint64_t index);
  [[nodiscard]] bool stores(std::uint64_t index) const {
    const std::uint64_t word = index >> 6;
    return word < stored_.size() && ((stored_[word] >> (index & 63)) & 1) != 0;
  }
  // Stored indices in ascending subscription-id order (the wire order).
  [[nodiscard]] std::vector<std::uint64_t> indices_by_id() const;
  void write_records(BinaryWriter& w,
                     const std::vector<std::uint64_t>& indices) const;
  void read_records(BinaryReader& r);

  std::shared_ptr<const MatchOracle> oracle_;
  cluster::CostModel cost_;
  std::size_t slice_index_;
  std::vector<std::uint64_t> stored_;  // membership bit per oracle index
  std::size_t count_ = 0;
};

// Generates mock-encrypted events: payloads have exactly the sizes of real
// ASPE ciphertexts (shares of the right dimensions) with junk contents, so
// network and state accounting match the encrypted deployment.
class OracleWorkload {
 public:
  explicit OracleWorkload(OracleParams params);

  [[nodiscard]] filter::EncryptedSubscription subscription(
      std::uint64_t index) const;
  [[nodiscard]] filter::EncryptedPublication next_publication();

  [[nodiscard]] std::shared_ptr<const MatchOracle> oracle() const {
    return oracle_;
  }
  // Factory for StreamHubParams::matcher_factory.
  [[nodiscard]] std::unique_ptr<filter::Matcher> make_matcher(
      cluster::CostModel cost, std::size_t slice_index) const;

  [[nodiscard]] const OracleParams& params() const { return params_; }
  // Expected notifications per publication.
  [[nodiscard]] double expected_matches() const {
    return static_cast<double>(params_.total_subscriptions) *
           params_.matching_rate;
  }

 private:
  OracleParams params_;
  std::shared_ptr<const MatchOracle> oracle_;
  std::uint64_t next_pub_ = 1;
};

}  // namespace esh::workload
