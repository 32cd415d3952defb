// Differential matcher test harness: drives one seeded stream of
// subscription adds, removes and publications through several Matcher
// instances at once -- plain and encrypted -- and asserts that every
// scheme notifies exactly the subscriber set a direct evaluation of the
// live subscriptions predicts.
//
// The oracle is independent of every matcher: it re-evaluates
// Subscription::matches over the live set for each publication, so a bug
// shared by two schemes still diverges from it. Periodic serialize ->
// clone_empty -> restore round-trips swap each matcher for a freshly
// restored replica mid-stream, so state transfer is exercised under churn,
// not just at rest.
//
// ASPE note: encrypted comparisons preserve the sign of r(x - c) exactly
// in real arithmetic; in doubles the noise is ~1e-12 while the generated
// workloads keep every publication attribute a finite distance away from
// every predicate bound with probability 1, so encrypted results agree
// with the plain oracle deterministically under the fixed seeds used here.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/keyspace.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "filter/aspe.hpp"
#include "filter/attribute.hpp"
#include "filter/matcher.hpp"

namespace esh::filter::harness {

// Schemes enumerate their stores in different orders; comparisons are over
// sorted subscriber lists (duplicates kept: two subscriptions of the same
// subscriber notify twice in every scheme).
inline std::vector<SubscriberId> sorted_ids(std::vector<SubscriberId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class DifferentialHarness {
 public:
  struct Params {
    std::size_t dimensions = 4;
    std::uint64_t seed = 1;
    std::size_t initial_subscriptions = 64;
    std::size_t operations = 1000;   // add/remove/publish steps after seeding
    std::size_t publish_batch = 8;   // publications per publish step
    double add_weight = 0.30;        // op mix; remainder publishes
    double remove_weight = 0.15;
    // Adds of a subscription with one inverted predicate (low > high):
    // it is stored, counted and transferred like any other, and matches
    // nothing.
    double inverted_weight = 0.0;
    std::size_t roundtrip_every = 97;  // ops between restore swaps (0 = off)
    double min_width = 0.05;           // per-attribute predicate width range
    double max_width = 0.45;
    std::size_t subscriber_pool = 50;  // small pool => duplicate subscribers
    // Ops between split/merge round trips (0 = off). Each round trip splits
    // every scheme's store at a seeded random key coverage into a fresh
    // child (validated byte-for-byte against a clone_empty + reinsert
    // reference of each half) and merges it back; a never-split twin of
    // each scheme then pins subscriber order, work_units and serialized
    // state byte-identical for the rest of the run.
    std::size_t split_merge_every = 0;
  };

  explicit DifferentialHarness(Params params)
      : params_(params),
        rng_(params.seed),
        key_rng_(params.seed ^ 0x9e3779b97f4a7c15ULL),
        key_(AspeKey::generate(params.dimensions, key_rng_)),
        encryptor_(key_, Rng{params.seed + 1}) {}

  DifferentialHarness(const DifferentialHarness&) = delete;
  DifferentialHarness& operator=(const DifferentialHarness&) = delete;

  // `encrypted` schemes receive the ASPE ciphertexts of the same plain
  // events.
  void add_scheme(std::string label, std::unique_ptr<Matcher> matcher,
                  bool encrypted) {
    schemes_.push_back(
        Scheme{std::move(label), std::move(matcher), encrypted, {}});
  }

  void run() {
    if (params_.split_merge_every != 0) {
      for (Scheme& scheme : schemes_) {
        scheme.twin = scheme.matcher->clone_empty();
      }
    }
    for (std::size_t i = 0; i < params_.initial_subscriptions; ++i) do_add();
    check_counts();
    for (std::size_t op = 0; op < params_.operations; ++op) {
      const double pick = rng_.next_double();
      if (pick < params_.add_weight) {
        do_add();
      } else if (pick < params_.add_weight + params_.remove_weight) {
        do_remove();
      } else if (pick < params_.add_weight + params_.remove_weight +
                            params_.inverted_weight) {
        do_add_inverted();
      } else {
        do_publish();
      }
      check_counts();
      ++ops_run_;
      if (params_.roundtrip_every != 0 &&
          (op + 1) % params_.roundtrip_every == 0) {
        do_roundtrip();
      }
      if (params_.split_merge_every != 0 &&
          (op + 1) % params_.split_merge_every == 0) {
        do_split_merge();
      }
      // A real divergence would otherwise repeat on every later step;
      // stop at the first failing operation to keep the report readable.
      if (::testing::Test::HasFailure()) return;
    }
  }

  [[nodiscard]] std::size_t operations_run() const { return ops_run_; }
  [[nodiscard]] std::size_t publications_checked() const {
    return pubs_checked_;
  }
  [[nodiscard]] std::size_t live_subscriptions() const {
    return oracle_.size();
  }
  [[nodiscard]] std::size_t restores_run() const { return restores_run_; }
  [[nodiscard]] std::size_t splits_run() const { return splits_run_; }

 private:
  struct Scheme {
    std::string label;
    std::unique_ptr<Matcher> matcher;
    bool encrypted;
    // Never-split shadow fed the identical op stream (split runs only).
    std::unique_ptr<Matcher> twin;
  };

  Subscription random_subscription() {
    Subscription sub;
    sub.id = SubscriptionId{next_sub_++};
    sub.subscriber =
        SubscriberId{1 + rng_.next_below(params_.subscriber_pool)};
    sub.predicates.reserve(params_.dimensions);
    for (std::size_t a = 0; a < params_.dimensions; ++a) {
      const double center = rng_.next_double();
      const double width = rng_.uniform(params_.min_width, params_.max_width);
      Range range;
      range.low = std::max(0.0, center - width);
      range.high = std::min(1.0, center + width);
      sub.predicates.push_back(range);
    }
    return sub;
  }

  Publication random_publication() {
    Publication pub;
    pub.id = PublicationId{next_pub_++};
    pub.attributes.reserve(params_.dimensions);
    for (std::size_t a = 0; a < params_.dimensions; ++a) {
      pub.attributes.push_back(rng_.next_double());
    }
    return pub;
  }

  void do_add() { add_subscription(random_subscription()); }

  void do_add_inverted() {
    Subscription sub = random_subscription();
    Range& range = sub.predicates[rng_.next_below(sub.predicates.size())];
    std::swap(range.low, range.high);
    add_subscription(sub);
  }

  void add_subscription(const Subscription& sub) {
    const EncryptedSubscription enc = encryptor_.encrypt(sub);
    oracle_.emplace(sub.id, sub);
    enc_oracle_.emplace(sub.id, enc);
    for (Scheme& scheme : schemes_) {
      const AnySubscription any = scheme.encrypted ? AnySubscription{enc}
                                                   : AnySubscription{sub};
      scheme.matcher->add(any);
      if (scheme.twin) scheme.twin->add(any);
    }
  }

  void do_remove() {
    if (oracle_.empty()) {
      do_add();
      return;
    }
    // Every scheme must agree that unknown ids are unknown.
    const SubscriptionId bogus{next_sub_ + 1000000};
    for (Scheme& scheme : schemes_) {
      EXPECT_FALSE(scheme.matcher->remove(bogus))
          << scheme.label << ": removed an id that was never added";
    }
    auto it = oracle_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(
                         rng_.next_below(oracle_.size())));
    const SubscriptionId victim = it->first;
    oracle_.erase(it);
    enc_oracle_.erase(victim);
    for (Scheme& scheme : schemes_) {
      EXPECT_TRUE(scheme.matcher->remove(victim))
          << scheme.label << ": lost subscription " << victim.value();
      if (scheme.twin) {
        EXPECT_TRUE(scheme.twin->remove(victim)) << scheme.label << " twin";
      }
    }
  }

  void do_publish() {
    std::vector<Publication> plains;
    std::vector<EncryptedPublication> encs;
    std::vector<std::vector<SubscriberId>> expected;
    for (std::size_t i = 0; i < params_.publish_batch; ++i) {
      plains.push_back(random_publication());
      encs.push_back(encryptor_.encrypt(plains.back()));
      std::vector<SubscriberId> hit;
      for (const auto& [id, sub] : oracle_) {
        if (sub.matches(plains.back())) hit.push_back(sub.subscriber);
      }
      expected.push_back(sorted_ids(std::move(hit)));
    }
    for (Scheme& scheme : schemes_) {
      std::vector<AnyPublication> pubs;
      pubs.reserve(plains.size());
      for (std::size_t i = 0; i < plains.size(); ++i) {
        if (scheme.encrypted) {
          pubs.emplace_back(encs[i]);
        } else {
          pubs.emplace_back(plains[i]);
        }
      }
      std::vector<MatchOutcome> outcomes;
      outcomes.reserve(pubs.size());
      for (const AnyPublication& pub : pubs) {
        outcomes.push_back(scheme.matcher->match(pub));
      }
      for (std::size_t i = 0; i < plains.size(); ++i) {
        EXPECT_EQ(sorted_ids(outcomes[i].subscribers), expected[i])
            << scheme.label << " diverged from the oracle on publication "
            << plains[i].id.value() << " (op " << ops_run_ << ", "
            << oracle_.size() << " live subscriptions)";
      }
      if (scheme.twin) {
        // The split/merged store must behave byte-identically to the
        // never-split twin: exact subscriber order AND work_units, not
        // just the same set.
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          const MatchOutcome twin = scheme.twin->match(pubs[i]);
          EXPECT_EQ(outcomes[i].subscribers, twin.subscribers)
              << scheme.label
              << ": split/merge changed subscriber order on publication "
              << plains[i].id.value();
          EXPECT_EQ(outcomes[i].work_units, twin.work_units)
              << scheme.label
              << ": split/merge changed work accounting on publication "
              << plains[i].id.value();
        }
      }
    }
    pubs_checked_ += plains.size();
  }

  // serialize -> clone_empty -> restore, then keep running on the replica.
  void do_roundtrip() {
    for (Scheme& scheme : schemes_) {
      BinaryWriter w;
      scheme.matcher->serialize_state(w);
      auto replica = scheme.matcher->clone_empty();
      EXPECT_EQ(replica->subscription_count(), 0u) << scheme.label;
      BinaryReader r{w.buffer()};
      replica->restore_state(r);
      EXPECT_EQ(replica->subscription_count(), oracle_.size()) << scheme.label;
      EXPECT_EQ(replica->state_bytes(), scheme.matcher->state_bytes())
          << scheme.label << ": restore changed the state footprint";
      // The restored store must serialize back to the identical bytes:
      // restore compacts holes but preserves the live order serialization
      // uses, so the formats round-trip exactly.
      BinaryWriter w2;
      replica->serialize_state(w2);
      EXPECT_EQ(w2.buffer(), w.buffer())
          << scheme.label << ": serialize/restore/serialize not a fixpoint";
      scheme.matcher = std::move(replica);
    }
    ++restores_run_;
  }

  static std::vector<std::byte> serialized(const Matcher& m) {
    BinaryWriter w;
    m.serialize_state(w);
    return std::move(w).take();
  }

  // One seeded split/merge round trip per scheme: split_state carves a
  // random key coverage into a fresh child, both halves are checked
  // byte-for-byte against clone_empty + reinsert references, and the merge
  // must reunite the store byte-identically to the never-split twin.
  void do_split_merge() {
    const auto depth = static_cast<std::uint32_t>(1 + rng_.next_below(3));
    const std::uint64_t tag = rng_.next_below(std::uint64_t{1} << depth);
    const KeyCoverage cov{1, 0, depth, tag};
    for (Scheme& scheme : schemes_) {
      BinaryWriter split_bytes;
      const std::size_t moved = scheme.matcher->split_state(cov, split_bytes);
      auto child = scheme.matcher->clone_empty();
      BinaryReader r{split_bytes.buffer()};
      child->restore_state(r);
      EXPECT_EQ(child->subscription_count(), moved) << scheme.label;
      EXPECT_EQ(scheme.matcher->subscription_count() + moved, oracle_.size())
          << scheme.label << ": split dropped or duplicated subscriptions";

      auto ref_child = scheme.matcher->clone_empty();
      auto ref_parent = scheme.matcher->clone_empty();
      for (const auto& [id, sub] : oracle_) {
        const AnySubscription any =
            scheme.encrypted ? AnySubscription{enc_oracle_.at(id)}
                             : AnySubscription{sub};
        (cov.covers(id.value()) ? *ref_child : *ref_parent).add(any);
      }
      EXPECT_EQ(serialized(*child), serialized(*ref_child))
          << scheme.label << ": child half != clone_empty + reinsert (op "
          << ops_run_ << ")";
      EXPECT_EQ(serialized(*scheme.matcher), serialized(*ref_parent))
          << scheme.label << ": parent half != clone_empty + reinsert (op "
          << ops_run_ << ")";

      scheme.matcher->merge_state(*child);
      EXPECT_EQ(scheme.matcher->subscription_count(), oracle_.size())
          << scheme.label << ": merge lost subscriptions";
      EXPECT_EQ(serialized(*scheme.matcher), serialized(*scheme.twin))
          << scheme.label
          << ": merge did not restore the never-split state (op " << ops_run_
          << ")";
    }
    ++splits_run_;
  }

  void check_counts() {
    for (const Scheme& scheme : schemes_) {
      EXPECT_EQ(scheme.matcher->subscription_count(), oracle_.size())
          << scheme.label;
      if (scheme.twin) {
        EXPECT_EQ(scheme.twin->subscription_count(), oracle_.size())
            << scheme.label << " twin";
      }
    }
  }

  Params params_;
  Rng rng_;
  Rng key_rng_;
  AspeKey key_;
  AspeEncryptor encryptor_;
  std::vector<Scheme> schemes_;
  std::map<SubscriptionId, Subscription> oracle_;  // live set, ground truth
  // Ciphertexts of the live set (clone_empty + reinsert references for the
  // encrypted schemes need the exact stored ciphertexts; re-encrypting
  // would draw fresh randomness).
  std::map<SubscriptionId, EncryptedSubscription> enc_oracle_;
  std::uint64_t next_sub_ = 1;
  std::uint64_t next_pub_ = 1;
  std::size_t ops_run_ = 0;
  std::size_t pubs_checked_ = 0;
  std::size_t restores_run_ = 0;
  std::size_t splits_run_ = 0;
};

}  // namespace esh::filter::harness
