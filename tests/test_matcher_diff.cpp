// Differential tests of the filtering schemes: every matcher -- plain and
// encrypted -- must notify exactly the subscribers a direct evaluation of
// the live subscription set predicts, through churn (including freed-slot
// reuse) and serialize/restore round-trips onto clone_empty() replicas.
// Plus golden ASPE match vectors (fixed key).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "filter/aspe.hpp"
#include "filter/attribute.hpp"
#include "filter/interval_index.hpp"
#include "filter/matcher.hpp"
#include "matcher_harness.hpp"

namespace esh::filter {
namespace {

using harness::DifferentialHarness;
using harness::sorted_ids;

// ---- differential harness ----------------------------------------------------

// The headline run: three schemes against one seeded op stream. The brute
// force is the reference implementation; the oracle inside the harness is
// independent of all three, so a shared kernel bug still shows.
TEST(MatcherDiff, AllSchemesAgreeOnSeededChurn) {
  DifferentialHarness::Params params;
  params.dimensions = 4;
  params.seed = 20240807;
  params.initial_subscriptions = 64;
  params.operations = 1100;
  params.publish_batch = 6;
  DifferentialHarness h{params};
  h.add_scheme("brute", std::make_unique<BruteForceMatcher>(),
               /*encrypted=*/false);
  h.add_scheme("interval", std::make_unique<IntervalIndexMatcher>(),
               /*encrypted=*/false);
  h.add_scheme("aspe", std::make_unique<AspeMatcher>(), /*encrypted=*/true);
  h.run();
  EXPECT_GE(h.operations_run(), 1000u);
  EXPECT_GT(h.publications_checked(), 2000u);
  EXPECT_GE(h.restores_run(), 10u);  // replicas really entered the stream
}

// Seed diversity: shorter runs under several seeds and dimension counts
// (plain schemes only; these are cheap enough to sweep).
TEST(MatcherDiff, PlainSchemesSeedSweep) {
  for (const std::uint64_t seed : {7ULL, 99ULL, 123456ULL}) {
    for (const std::size_t dims : {1, 3}) {
      DifferentialHarness::Params params;
      params.dimensions = dims;
      params.seed = seed;
      params.initial_subscriptions = 32;
      params.operations = 350;
      params.publish_batch = 4;
      params.roundtrip_every = 53;
      DifferentialHarness h{params};
      h.add_scheme("brute", std::make_unique<BruteForceMatcher>(), false);
      h.add_scheme("interval", std::make_unique<IntervalIndexMatcher>(),
                   false);
      h.run();
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "diverged at seed " << seed << " dims " << dims;
    }
  }
}

// Inverted predicates (low > high) mixed into the churn: every scheme
// stores them and none matches them, through restores and split/merge
// round trips.
TEST(MatcherDiff, InvertedPredicatesAgreeWithBruteForce) {
  DifferentialHarness::Params params;
  params.dimensions = 3;
  params.seed = 8675309;
  params.initial_subscriptions = 16;
  params.operations = 500;
  params.publish_batch = 4;
  params.inverted_weight = 0.1;
  params.roundtrip_every = 47;
  params.split_merge_every = 59;
  DifferentialHarness h{params};
  h.add_scheme("brute", std::make_unique<BruteForceMatcher>(), false);
  h.add_scheme("interval", std::make_unique<IntervalIndexMatcher>(), false);
  h.add_scheme("aspe", std::make_unique<AspeMatcher>(), true);
  h.run();
  EXPECT_GE(h.operations_run(), 500u);
  EXPECT_GE(h.splits_run(), 5u);
}

// Encrypted sweep at a second seed (one run; ASPE is the expensive scheme).
TEST(MatcherDiff, EncryptedSchemesSecondSeed) {
  DifferentialHarness::Params params;
  params.dimensions = 2;
  params.seed = 4242;
  params.initial_subscriptions = 40;
  params.operations = 400;
  params.publish_batch = 4;
  params.roundtrip_every = 61;
  DifferentialHarness h{params};
  h.add_scheme("brute", std::make_unique<BruteForceMatcher>(), false);
  h.add_scheme("aspe", std::make_unique<AspeMatcher>(), true);
  h.run();
  EXPECT_GE(h.operations_run(), 400u);
}

// ---- split/merge round trips -------------------------------------------------

// Key-coverage algebra: refinement is a prefix-free binary trie over the
// mixed key hash, so split halves partition the parent and sibling merges
// reunite it.
TEST(KeyCoverage, SplitHalvesPartitionAndMergeReunites) {
  const KeyCoverage whole{4, 1, 0, 0};
  const KeyCoverage parent = whole.split_parent();
  const KeyCoverage child = whole.split_child();
  EXPECT_TRUE(parent.sibling_of(child));
  EXPECT_TRUE(child.sibling_of(parent));
  EXPECT_EQ(parent.merged(), whole);
  EXPECT_EQ(child.merged(), whole);
  EXPECT_FALSE(parent.sibling_of(parent));
  EXPECT_FALSE(whole.sibling_of(child));
  std::size_t covered = 0;
  for (std::uint64_t key = 0; key < 4000; ++key) {
    const bool in_whole = whole.covers(key);
    EXPECT_EQ(in_whole, parent.covers(key) || child.covers(key)) << key;
    EXPECT_FALSE(parent.covers(key) && child.covers(key)) << key;
    if (in_whole) ++covered;
  }
  EXPECT_GT(covered, 0u);
  // Depth-0 coverage is plain modulo routing.
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(whole.covers(key), key % 4 == 1);
  }
  EXPECT_TRUE(coverage_complete({{2, 0, 0, 0}, {2, 1, 0, 0}}, 2));
  EXPECT_TRUE(coverage_complete(
      {{2, 0, 1, 0}, {2, 0, 1, 1}, {2, 1, 0, 0}}, 2));
  // Gap: bucket 1 missing half its keys.
  EXPECT_FALSE(coverage_complete({{2, 0, 0, 0}, {2, 1, 1, 0}}, 2));
  // Overlap summing to full weight is still rejected.
  EXPECT_FALSE(coverage_complete(
      {{2, 0, 0, 0}, {2, 1, 1, 0}, {2, 1, 1, 0}}, 2));
  EXPECT_FALSE(coverage_complete({{2, 0, 0, 0}}, 2));
}

// The headline split/merge property run: all three schemes take seeded
// random split points (random depth + tag), each half is validated
// byte-for-byte against a clone_empty + reinsert reference, the merge must
// reunite byte-identically to a never-split twin, and every later
// publication must produce the twin's exact subscriber order and
// work_units -- through churn and serialize/restore swaps.
TEST(MatcherSplitMerge, AllSchemesSurviveSeededSplitMergeRoundTrips) {
  DifferentialHarness::Params params;
  params.dimensions = 3;
  params.seed = 777001;
  params.initial_subscriptions = 48;
  params.operations = 600;
  params.publish_batch = 5;
  params.roundtrip_every = 89;
  params.split_merge_every = 71;
  DifferentialHarness h{params};
  h.add_scheme("brute", std::make_unique<BruteForceMatcher>(), false);
  h.add_scheme("interval", std::make_unique<IntervalIndexMatcher>(), false);
  h.add_scheme("aspe", std::make_unique<AspeMatcher>(), true);
  h.run();
  EXPECT_GE(h.splits_run(), 8u);
  EXPECT_GT(h.publications_checked(), 1000u);
}

// Seed sweep of the same property at other dimensions/seeds (plain
// schemes; interval exercises split across freed-slot reuse).
TEST(MatcherSplitMerge, PlainSchemesSplitMergeSeedSweep) {
  for (const std::uint64_t seed : {11ULL, 5309ULL}) {
    DifferentialHarness::Params params;
    params.dimensions = 2;
    params.seed = seed;
    params.initial_subscriptions = 32;
    params.operations = 300;
    params.publish_batch = 4;
    params.roundtrip_every = 67;
    params.split_merge_every = 43;
    DifferentialHarness h{params};
    h.add_scheme("brute", std::make_unique<BruteForceMatcher>(), false);
    h.add_scheme("interval", std::make_unique<IntervalIndexMatcher>(),
                 false);
    h.run();
    ASSERT_FALSE(::testing::Test::HasFailure()) << "diverged at seed " << seed;
    EXPECT_GE(h.splits_run(), 5u);
  }
}

// A second-level split (splitting an already-split half) still partitions:
// split off a child, split the child again, and the three-way merge in any
// order restores the original bytes.
void run_nested_split_merge(std::unique_ptr<Matcher> original) {
  Rng rng{424242};
  for (std::uint64_t id = 1; id <= 200; ++id) {
    std::vector<Range> preds;
    for (int a = 0; a < 2; ++a) {
      const double low = rng.uniform(0.0, 0.7);
      preds.push_back(Range{low, low + 0.2});
    }
    Subscription s;
    s.id = SubscriptionId{id};
    s.subscriber = SubscriberId{1 + id % 13};
    s.predicates = std::move(preds);
    original->add(AnySubscription{s});
  }
  BinaryWriter before;
  original->serialize_state(before);

  const KeyCoverage whole{1, 0, 0, 0};
  const KeyCoverage c1 = whole.split_child();      // depth 1, tag 1
  const KeyCoverage c2 = c1.split_child();         // depth 2, tag 11
  BinaryWriter w1;
  const std::size_t moved1 = original->split_state(c1, w1);
  auto child1 = original->clone_empty();
  BinaryReader r1{w1.buffer()};
  child1->restore_state(r1);
  EXPECT_EQ(child1->subscription_count(), moved1);
  BinaryWriter w2;
  const std::size_t moved2 = child1->split_state(c2, w2);
  auto child2 = child1->clone_empty();
  BinaryReader r2{w2.buffer()};
  child2->restore_state(r2);
  EXPECT_EQ(child2->subscription_count(), moved2);
  EXPECT_EQ(original->subscription_count() + moved1, 200u);
  EXPECT_GT(moved1, 0u);
  EXPECT_GT(moved2, 0u);

  // Merge back in a different order than the splits happened.
  original->merge_state(*child2);
  original->merge_state(*child1);
  EXPECT_EQ(original->subscription_count(), 200u);
  BinaryWriter after;
  original->serialize_state(after);
  EXPECT_EQ(after.buffer(), before.buffer()) << original->scheme_name();
}

TEST(MatcherSplitMerge, NestedSplitThenMergeRestoresOriginal) {
  run_nested_split_merge(std::make_unique<BruteForceMatcher>());
  run_nested_split_merge(std::make_unique<IntervalIndexMatcher>());
}

// ---- churn properties --------------------------------------------------------

Subscription make_sub(std::uint64_t id, std::uint64_t subscriber,
                      std::vector<Range> preds) {
  Subscription s;
  s.id = SubscriptionId{id};
  s.subscriber = SubscriberId{subscriber};
  s.predicates = std::move(preds);
  return s;
}

std::size_t plain_bytes(const std::vector<Subscription>& live) {
  std::size_t total = 0;
  for (const Subscription& s : live) {
    total += 24 + s.predicates.size() * 2 * sizeof(double);
  }
  return total;
}

// Adds, removals (forcing freed-slot reuse), and
// mixed-dimension subscriptions keep subscription_count(), state_bytes()
// and the match results of every plain matcher in lockstep with a direct
// oracle evaluation.
TEST(MatcherChurn, RemovalsSlotReuseAndStateAccounting) {
  Rng rng{31337};
  std::vector<std::unique_ptr<Matcher>> matchers;
  matchers.push_back(std::make_unique<BruteForceMatcher>());
  matchers.push_back(std::make_unique<IntervalIndexMatcher>());

  std::map<std::uint64_t, Subscription> live;
  std::uint64_t next_id = 1;
  auto add_random = [&](std::size_t dims) {
    std::vector<Range> preds;
    for (std::size_t a = 0; a < dims; ++a) {
      const double low = rng.uniform(0.0, 0.7);
      preds.push_back(Range{low, low + rng.uniform(0.05, 0.3)});
    }
    const Subscription s = make_sub(next_id, 100 + next_id % 7,
                                    std::move(preds));
    ++next_id;
    live.emplace(s.id.value(), s);
    for (auto& m : matchers) m->add(AnySubscription{s});
  };
  auto check_state = [&] {
    std::vector<Subscription> subs;
    for (const auto& [id, s] : live) subs.push_back(s);
    for (auto& m : matchers) {
      EXPECT_EQ(m->subscription_count(), live.size()) << m->scheme_name();
      EXPECT_EQ(m->state_bytes(), plain_bytes(subs)) << m->scheme_name();
    }
  };
  auto check_match = [&](const Publication& pub) {
    std::vector<SubscriberId> expected;
    for (const auto& [id, s] : live) {
      if (s.matches(pub)) expected.push_back(s.subscriber);
    }
    expected = sorted_ids(std::move(expected));
    for (auto& m : matchers) {
      EXPECT_EQ(sorted_ids(m->match(AnyPublication{pub}).subscribers),
                expected)
          << m->scheme_name() << " on publication " << pub.id.value();
    }
  };

  for (int i = 0; i < 30; ++i) add_random(3);
  add_random(2);  // mixed dimensionality: only 2-attribute pubs can match it
  check_state();

  Publication probe;
  probe.id = PublicationId{900};
  probe.attributes = {0.5, 0.5, 0.5};
  check_match(probe);
  Publication probe2d;
  probe2d.id = PublicationId{901};
  probe2d.attributes = {0.5, 0.5};
  check_match(probe2d);

  // Remove a third of the store (freeing index slots), then add the same
  // number back: the interval index reuses the freed slots.
  std::vector<std::uint64_t> victims;
  for (const auto& [id, s] : live) {
    if (id % 3 == 0) victims.push_back(id);
  }
  for (const std::uint64_t id : victims) {
    live.erase(id);
    for (auto& m : matchers) {
      EXPECT_TRUE(m->remove(SubscriptionId{id})) << m->scheme_name();
      EXPECT_FALSE(m->remove(SubscriptionId{id}))
          << m->scheme_name() << ": double remove must report unknown";
    }
  }
  check_state();
  for (std::size_t i = 0; i < victims.size(); ++i) add_random(3);
  check_state();
  for (int p = 0; p < 20; ++p) {
    Publication pub;
    pub.id = PublicationId{1000 + static_cast<std::uint64_t>(p)};
    pub.attributes = {rng.next_double(), rng.next_double(),
                      rng.next_double()};
    check_match(pub);
  }

  // Drain to empty: counts and footprint go to zero and matches are empty.
  while (!live.empty()) {
    const std::uint64_t id = live.begin()->first;
    live.erase(live.begin());
    for (auto& m : matchers) {
      EXPECT_TRUE(m->remove(SubscriptionId{id}));
    }
  }
  check_state();
  for (auto& m : matchers) {
    EXPECT_EQ(m->state_bytes(), 0u) << m->scheme_name();
    EXPECT_TRUE(m->match(AnyPublication{probe}).subscribers.empty());
  }
}

// Same churn properties for the encrypted store: state_bytes() must equal
// the sum of the live ciphertext sizes across adds, removes and restores.
TEST(MatcherChurn, AspeStateAccounting) {
  Rng key_rng{5150};
  const AspeKey key = AspeKey::generate(3, key_rng);
  AspeEncryptor enc{key, Rng{5151}};
  AspeMatcher matcher;

  std::map<std::uint64_t, EncryptedSubscription> live;
  Rng rng{5152};
  for (std::uint64_t id = 1; id <= 12; ++id) {
    std::vector<Range> preds;
    for (int a = 0; a < 3; ++a) {
      const double low = rng.uniform(0.0, 0.6);
      preds.push_back(Range{low, low + 0.3});
    }
    const EncryptedSubscription e =
        enc.encrypt(make_sub(id, 200 + id, std::move(preds)));
    live.emplace(id, e);
    matcher.add(AnySubscription{e});
  }
  auto expected_bytes = [&] {
    std::size_t total = 0;
    for (const auto& [id, e] : live) total += e.bytes();
    return total;
  };
  EXPECT_EQ(matcher.state_bytes(), expected_bytes());
  EXPECT_EQ(matcher.subscription_count(), live.size());

  for (const std::uint64_t id : {3ULL, 7ULL, 11ULL}) {
    EXPECT_TRUE(matcher.remove(SubscriptionId{id}));
    live.erase(id);
    EXPECT_EQ(matcher.state_bytes(), expected_bytes());
  }
  EXPECT_FALSE(matcher.remove(SubscriptionId{999}));

  BinaryWriter w;
  matcher.serialize_state(w);
  auto replica = matcher.clone_empty();
  BinaryReader r{w.buffer()};
  replica->restore_state(r);
  EXPECT_EQ(replica->subscription_count(), live.size());
  EXPECT_EQ(replica->state_bytes(), expected_bytes());
}

// ---- golden ASPE vectors -----------------------------------------------------

// Fixed key (seed 2024) and encryption randomness (seed 2025), fixed
// subscriptions and publications chosen so every attribute is >= 0.01 away
// from every bound: the encrypted comparison margins dwarf floating-point
// noise, so this matrix is stable across kernel rewrites. Any change to
// the ASPE pipeline or the row kernel that alters a single match/no-match
// decision trips it.
TEST(AspeGolden, MatchMatrixIsStable) {
  const std::vector<Subscription> subs = {
      make_sub(1, 100, {{0.0, 0.5}, {0.0, 0.5}}),
      make_sub(2, 101, {{0.25, 0.75}, {0.25, 0.75}}),
      make_sub(3, 102, {{0.5, 1.0}, {0.5, 1.0}}),
      make_sub(4, 103, {{0.0, 1.0}, {0.0, 0.25}}),
      make_sub(5, 104, {{0.4, 0.6}, {0.0, 1.0}}),
      make_sub(6, 105, {{0.9, 1.0}, {0.9, 1.0}}),
  };
  const std::vector<std::vector<double>> pub_values = {
      {0.10, 0.10}, {0.30, 0.30}, {0.49, 0.51}, {0.55, 0.45}, {0.95, 0.95},
      {0.45, 0.20}, {0.05, 0.99}, {0.99, 0.05}, {0.26, 0.24}, {0.55, 0.70},
  };
  // golden[p][s] == '1' iff publication p matches subscription s.
  const std::vector<std::string> golden = {
      "100100", "110000", "010010", "010010", "001001",
      "100110", "000000", "000100", "100100", "011010",
  };

  std::vector<Publication> pubs;
  for (std::size_t p = 0; p < pub_values.size(); ++p) {
    Publication pub;
    pub.id = PublicationId{500 + p};
    pub.attributes = pub_values[p];
    pubs.push_back(std::move(pub));
  }

  // The golden matrix is first of all the plain-containment truth.
  for (std::size_t p = 0; p < pubs.size(); ++p) {
    std::string row;
    for (const Subscription& s : subs) {
      row += s.matches(pubs[p]) ? '1' : '0';
    }
    EXPECT_EQ(row, golden[p]) << "plain containment, publication " << p;
  }

  Rng key_rng{2024};
  const AspeKey key = AspeKey::generate(2, key_rng);
  AspeEncryptor enc{key, Rng{2025}};
  AspeMatcher matcher;
  for (const Subscription& s : subs) {
    matcher.add(AnySubscription{enc.encrypt(s)});
  }
  std::vector<AnyPublication> enc_pubs;
  for (const Publication& pub : pubs) {
    enc_pubs.emplace_back(enc.encrypt(pub));
  }

  auto row_of = [&](const MatchOutcome& outcome) {
    std::string row(subs.size(), '0');
    for (const SubscriberId sub : outcome.subscribers) {
      row[sub.value() - 100] = '1';
    }
    return row;
  };
  for (std::size_t p = 0; p < enc_pubs.size(); ++p) {
    EXPECT_EQ(row_of(matcher.match(enc_pubs[p])), golden[p])
        << "aspe, publication " << p;
  }
}

}  // namespace
}  // namespace esh::filter
