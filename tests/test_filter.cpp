#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "common/keyspace.hpp"
#include "common/rng.hpp"
#include "filter/aspe.hpp"
#include "filter/attribute.hpp"
#include "filter/interval_index.hpp"
#include "filter/matcher.hpp"
#include "filter/matrix.hpp"
#include "workload/generator.hpp"

namespace esh::filter {
namespace {

// ---- matrix ------------------------------------------------------------------

TEST(Matrix, IdentityMultiply) {
  const Matrix id = Matrix::identity(4);
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(id.multiply(v), v);
}

TEST(Matrix, InverseTimesSelfIsIdentity) {
  Rng rng{5};
  const Matrix m = Matrix::random_invertible(7, rng);
  const Matrix product = m.multiply(m.inverted());
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_NEAR(product.at(r, c), r == c ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Matrix, TransposeSwapsIndices) {
  Matrix m{2, 3};
  m.at(0, 1) = 5.0;
  m.at(1, 2) = -2.0;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(2, 1), -2.0);
}

TEST(Matrix, SingularInversionThrows) {
  Matrix m{2, 2};  // all zeros
  EXPECT_THROW((void)m.inverted(), std::domain_error);
}

TEST(Matrix, ShapeErrors) {
  Matrix m{2, 3};
  EXPECT_THROW((void)m.inverted(), std::domain_error);
  EXPECT_THROW((void)m.multiply(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW((Matrix{0, 3}), std::invalid_argument);
}

TEST(Matrix, DotProduct) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

// ---- plain model --------------------------------------------------------------

TEST(PlainModel, SubscriptionMatchSemantics) {
  Subscription sub;
  sub.id = SubscriptionId{1};
  sub.subscriber = SubscriberId{10};
  sub.predicates = {{0.2, 0.5}, {0.0, 1.0}};
  Publication in{PublicationId{1}, {0.3, 0.99}};
  Publication out{PublicationId{2}, {0.6, 0.5}};
  Publication boundary{PublicationId{3}, {0.2, 0.0}};
  EXPECT_TRUE(sub.matches(in));
  EXPECT_FALSE(sub.matches(out));
  EXPECT_TRUE(sub.matches(boundary));  // closed interval
  Publication wrong_dims{PublicationId{4}, {0.3}};
  EXPECT_FALSE(sub.matches(wrong_dims));
}

TEST(PlainModel, SerializationRoundTrip) {
  Subscription sub;
  sub.id = SubscriptionId{7};
  sub.subscriber = SubscriberId{13};
  sub.predicates = {{0.1, 0.4}, {0.5, 0.9}};
  BinaryWriter w;
  serialize(w, sub);
  BinaryReader r{w.buffer()};
  const Subscription back = deserialize_subscription(r);
  EXPECT_EQ(back.id, sub.id);
  EXPECT_EQ(back.subscriber, sub.subscriber);
  ASSERT_EQ(back.predicates.size(), 2u);
  EXPECT_DOUBLE_EQ(back.predicates[1].low, 0.5);
}

// ---- ASPE ----------------------------------------------------------------------

class AspeTest : public ::testing::Test {
 protected:
  Rng rng{17};
  AspeKey key = AspeKey::generate(4, rng);
  AspeEncryptor enc{key, Rng{18}};
};

TEST_F(AspeTest, ComparisonPreservesScalarProductSign) {
  // x_2 >= 0.4, tested against x_2 = 0.7 (true) and x_2 = 0.1 (false).
  Publication above{PublicationId{1}, {0.5, 0.5, 0.7, 0.5}};
  Publication below{PublicationId{2}, {0.5, 0.5, 0.1, 0.5}};
  Subscription sub;
  sub.id = SubscriptionId{1};
  sub.subscriber = SubscriberId{1};
  sub.predicates = {{0.0, 1.0}, {0.0, 1.0}, {0.4, 1.0}, {0.0, 1.0}};
  const auto esub = enc.encrypt(sub);
  EXPECT_TRUE(encrypted_match(esub, enc.encrypt(above)));
  EXPECT_FALSE(encrypted_match(esub, enc.encrypt(below)));
}

TEST_F(AspeTest, MatchesAgreeWithPlaintextGroundTruth) {
  Rng wrng{99};
  std::vector<Subscription> subs;
  std::vector<EncryptedSubscription> esubs;
  workload::PlainWorkload gen{{4, 0.05, 123}};
  for (std::uint64_t i = 0; i < 300; ++i) {
    subs.push_back(gen.subscription(i));
    esubs.push_back(enc.encrypt(subs.back()));
  }
  int checked = 0, matched = 0;
  for (int p = 0; p < 50; ++p) {
    const Publication pub = gen.next_publication();
    const EncryptedPublication epub = enc.encrypt(pub);
    for (std::size_t s = 0; s < subs.size(); ++s) {
      const bool plain = subs[s].matches(pub);
      const bool encrypted = encrypted_match(esubs[s], epub);
      EXPECT_EQ(plain, encrypted)
          << "pub " << p << " sub " << s << " disagree";
      ++checked;
      if (plain) ++matched;
    }
  }
  EXPECT_EQ(checked, 50 * 300);
  EXPECT_GT(matched, 0);  // the workload's matching rate is 5 %
}

TEST_F(AspeTest, CiphertextHidesPlaintextValues) {
  // Two encryptions of the same publication differ (fresh randomness), and
  // no share equals the plaintext attributes.
  Publication pub{PublicationId{1}, {0.25, 0.5, 0.75, 1.0}};
  const auto e1 = enc.encrypt(pub);
  const auto e2 = enc.encrypt(pub);
  EXPECT_NE(e1.share_a, e2.share_a);
  for (std::size_t i = 0; i < pub.attributes.size(); ++i) {
    EXPECT_NE(e1.share_a[i], pub.attributes[i]);
  }
}

TEST_F(AspeTest, EncryptedSizesAreQuadraticFree) {
  // 2d comparisons of 2 (d+3)-vectors each: size linear in d per predicate.
  Publication pub{PublicationId{1}, {0.1, 0.2, 0.3, 0.4}};
  const auto epub = enc.encrypt(pub);
  EXPECT_EQ(epub.share_a.size(), 7u);
  Subscription sub;
  sub.id = SubscriptionId{1};
  sub.subscriber = SubscriberId{1};
  sub.predicates.assign(4, Range{0.0, 1.0});
  const auto esub = enc.encrypt(sub);
  EXPECT_EQ(esub.comparisons.size(), 8u);
}

TEST_F(AspeTest, SerializationRoundTrip) {
  Subscription sub;
  sub.id = SubscriptionId{5};
  sub.subscriber = SubscriberId{6};
  sub.predicates.assign(4, Range{0.2, 0.8});
  const auto esub = enc.encrypt(sub);
  BinaryWriter w;
  serialize(w, esub);
  BinaryReader r{w.buffer()};
  const auto back = deserialize_encrypted_subscription(r);
  EXPECT_EQ(back.id, esub.id);
  EXPECT_EQ(back.subscriber, esub.subscriber);
  ASSERT_EQ(back.comparisons.size(), esub.comparisons.size());
  EXPECT_EQ(back.comparisons[3].share_b, esub.comparisons[3].share_b);

  Publication pub{PublicationId{9}, {0.5, 0.5, 0.5, 0.5}};
  const auto epub = enc.encrypt(pub);
  BinaryWriter w2;
  serialize(w2, epub);
  BinaryReader r2{w2.buffer()};
  const auto pback = deserialize_encrypted_publication(r2);
  EXPECT_EQ(pback.id, epub.id);
  EXPECT_EQ(pback.share_a, epub.share_a);
  // Deserialized ciphertext still matches correctly.
  EXPECT_EQ(encrypted_match(esub, epub), encrypted_match(back, pback));
}

TEST_F(AspeTest, DimensionMismatchThrows) {
  Publication pub{PublicationId{1}, {0.1, 0.2}};
  EXPECT_THROW((void)enc.encrypt(pub), std::invalid_argument);
  Subscription sub;
  sub.predicates = {{0.0, 1.0}};
  EXPECT_THROW((void)enc.encrypt(sub), std::invalid_argument);
}

// ---- matchers ------------------------------------------------------------------

// All plain matchers must produce identical results; run the same suite
// over each via a typed parameterized fixture.
// Explicit values: ctest registers each case with its GetParam() bytes in
// the name, so renumbering would rename the IntervalIndex cases.
enum class MatcherKind { kBrute = 0, kInterval = 2 };

class PlainMatcherTest : public ::testing::TestWithParam<MatcherKind> {
 protected:
  std::unique_ptr<Matcher> make() const {
    switch (GetParam()) {
      case MatcherKind::kBrute:
        return std::make_unique<BruteForceMatcher>();
      case MatcherKind::kInterval:
        return std::make_unique<IntervalIndexMatcher>();
    }
    return nullptr;
  }
};

TEST_P(PlainMatcherTest, AgreesWithDirectEvaluation) {
  auto matcher = make();
  workload::PlainWorkload gen{{3, 0.1, 77}};
  std::vector<Subscription> subs;
  for (std::uint64_t i = 0; i < 500; ++i) {
    subs.push_back(gen.subscription(i));
    matcher->add(AnySubscription{subs.back()});
  }
  EXPECT_EQ(matcher->subscription_count(), 500u);
  for (int p = 0; p < 100; ++p) {
    const Publication pub = gen.next_publication();
    auto outcome = matcher->match(AnyPublication{pub});
    std::vector<SubscriberId> expected;
    for (const auto& s : subs) {
      if (s.matches(pub)) expected.push_back(s.subscriber);
    }
    std::sort(outcome.subscribers.begin(), outcome.subscribers.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(outcome.subscribers, expected) << "publication " << p;
    EXPECT_GT(outcome.work_units, 0.0);
  }
}

TEST_P(PlainMatcherTest, RemoveStopsMatching) {
  auto matcher = make();
  Subscription sub;
  sub.id = SubscriptionId{1};
  sub.subscriber = SubscriberId{5};
  sub.predicates = {{0.0, 1.0}};
  matcher->add(AnySubscription{sub});
  Publication pub{PublicationId{1}, {0.5}};
  EXPECT_EQ(matcher->match(AnyPublication{pub}).subscribers.size(), 1u);
  EXPECT_TRUE(matcher->remove(SubscriptionId{1}));
  EXPECT_FALSE(matcher->remove(SubscriptionId{1}));
  EXPECT_TRUE(matcher->match(AnyPublication{pub}).subscribers.empty());
  EXPECT_EQ(matcher->subscription_count(), 0u);
}

TEST_P(PlainMatcherTest, StateRoundTripPreservesMatches) {
  auto matcher = make();
  workload::PlainWorkload gen{{3, 0.2, 31}};
  for (std::uint64_t i = 0; i < 100; ++i) {
    matcher->add(AnySubscription{gen.subscription(i)});
  }
  BinaryWriter w;
  matcher->serialize_state(w);
  auto restored = matcher->clone_empty();
  BinaryReader r{w.buffer()};
  restored->restore_state(r);
  EXPECT_EQ(restored->subscription_count(), matcher->subscription_count());
  const Publication pub = gen.next_publication();
  auto a = matcher->match(AnyPublication{pub}).subscribers;
  auto b = restored->match(AnyPublication{pub}).subscribers;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_P(PlainMatcherTest, StateBytesGrowWithSubscriptions) {
  auto matcher = make();
  workload::PlainWorkload gen{{4, 0.1, 3}};
  const std::size_t empty = matcher->state_bytes();
  for (std::uint64_t i = 0; i < 50; ++i) {
    matcher->add(AnySubscription{gen.subscription(i)});
  }
  EXPECT_GT(matcher->state_bytes(), empty);
}

INSTANTIATE_TEST_SUITE_P(AllPlainMatchers, PlainMatcherTest,
                         ::testing::Values(MatcherKind::kBrute,
                                           MatcherKind::kInterval),
                         [](const auto& info) {
                           switch (info.param) {
                             case MatcherKind::kBrute:
                               return "BruteForce";
                             case MatcherKind::kInterval:
                               return "IntervalIndex";
                           }
                           return "Unknown";
                         });

// ---- interval index specifics --------------------------------------------------

// The covering rule registers only the narrowest predicate per
// subscription: a publication stabbing the wide (dominated) attribute but
// not the narrow one must pay for zero candidates -- only the tree
// descents. With N subscriptions whose attribute 0 spans the whole domain
// and whose attribute 1 is a tiny disjoint sliver, the per-publication
// work must stay far below the brute-force O(N) scan.
TEST(IntervalIndexTest, CoveringRuleIndexesTheNarrowestPredicate) {
  IntervalIndexMatcher interval;
  BruteForceMatcher brute;
  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    Subscription s;
    s.id = SubscriptionId{i + 1};
    s.subscriber = SubscriberId{i + 1};
    const double at = static_cast<double>(i) / static_cast<double>(kN);
    s.predicates = {Range{0.0, 1.0},             // wide: dominated
                    Range{at, at + 0.0001}};     // narrow: registered
    interval.add(AnySubscription{s});
    brute.add(AnySubscription{s});
  }
  // Attribute 1 value that no sliver contains (the slivers tile [0, 1) at
  // stride 1/kN with width 0.0001 << stride after the first few).
  Publication pub{PublicationId{1}, {0.5, 0.12345}};
  const auto from_index = interval.match(AnyPublication{pub});
  const auto from_brute = brute.match(AnyPublication{pub});
  EXPECT_EQ(from_index.subscribers, from_brute.subscribers);
  EXPECT_GT(from_index.work_units, 0.0);
  // Brute pays 0.02 * 2000 = 40 units; the index pays a descent plus a
  // handful of candidates. An order of magnitude is a conservative floor.
  EXPECT_LT(from_index.work_units, from_brute.work_units / 10.0);

  // A value inside sliver i = 1000 finds exactly that subscription.
  Publication hit{PublicationId{2}, {0.5, 0.50005}};
  const auto outcome = interval.match(AnyPublication{hit});
  ASSERT_EQ(outcome.subscribers.size(), 1u);
  EXPECT_EQ(outcome.subscribers[0], SubscriberId{1001});
}

// Zero-dimension subscriptions (no predicates) have nothing to register:
// they must match exactly the zero-attribute publications, and nothing
// else.
TEST(IntervalIndexTest, ZeroDimensionSubscriptionsMatchZeroDimPublications) {
  IntervalIndexMatcher m;
  Subscription none;
  none.id = SubscriptionId{1};
  none.subscriber = SubscriberId{11};
  m.add(AnySubscription{none});
  Subscription one;
  one.id = SubscriptionId{2};
  one.subscriber = SubscriberId{22};
  one.predicates = {Range{0.0, 1.0}};
  m.add(AnySubscription{one});

  Publication empty{PublicationId{1}, {}};
  const auto e = m.match(AnyPublication{empty});
  ASSERT_EQ(e.subscribers.size(), 1u);
  EXPECT_EQ(e.subscribers[0], SubscriberId{11});

  Publication wide{PublicationId{2}, {0.5}};
  const auto w = m.match(AnyPublication{wide});
  ASSERT_EQ(w.subscribers.size(), 1u);
  EXPECT_EQ(w.subscribers[0], SubscriberId{22});
}

// Work units are an exact function of the live subscription set: a replica
// restored from serialized state and a slot-churned instance holding the
// same live set charge identical work for the same publication.
TEST(IntervalIndexTest, WorkUnitsAreSlotLayoutIndependent) {
  workload::PlainWorkload gen{{3, 0.05, 909}};
  IntervalIndexMatcher churned;
  // Build with interleaved removals so slots are reused out of id order.
  for (std::uint64_t i = 0; i < 300; ++i) {
    churned.add(AnySubscription{gen.subscription(i)});
  }
  for (std::uint64_t i = 0; i < 300; i += 3) {
    EXPECT_TRUE(
        churned.remove(subscription_id(AnySubscription{gen.subscription(i)})));
  }
  for (std::uint64_t i = 300; i < 400; ++i) {
    churned.add(AnySubscription{gen.subscription(i)});
  }
  BinaryWriter w;
  churned.serialize_state(w);
  auto restored = churned.clone_empty();
  BinaryReader r{w.buffer()};
  restored->restore_state(r);
  for (int p = 0; p < 30; ++p) {
    const Publication pub = gen.next_publication();
    const auto a = churned.match(AnyPublication{pub});
    const auto b = restored->match(AnyPublication{pub});
    EXPECT_EQ(a.subscribers, b.subscribers) << "publication " << p;
    EXPECT_DOUBLE_EQ(a.work_units, b.work_units) << "publication " << p;
  }
}

// The trees are maintained per attribute from sorted orders that churn
// updates incrementally; they must come out exactly as a from-scratch build
// would. After every match of a seeded add/remove/match interleaving, a
// clone_empty() replica restored from the store's serialized state returns
// the same subscribers in the same order for the same work units. The
// stream frees and reuses slots between rebuilds, draws endpoints and
// publication values from a coarse grid (equal-endpoint ties, values on a
// center), mixes in zero-dimension subscriptions, adds a late subscription
// wider than any before, and splits/absorbs and restores mid-stream.
// An empty predicate (low > high, or a NaN bound) matches nothing. Such a
// subscription stays stored -- counted, serialized, split and removed like
// any other -- but is registered in no tree: an inverted interval used to
// send build_node's recursion left forever (stack overflow on the first
// match), and an all-NaN one would have gone on the zero-dimension list.
TEST(IntervalIndexTest, EmptyPredicatesAreStoredButNeverMatch) {
  Rng rng{0x1e7e57edULL};
  IntervalIndexMatcher m;
  BruteForceMatcher brute;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::uint64_t id = 1; id <= 300; ++id) {
    Subscription s;
    s.id = SubscriptionId{id};
    s.subscriber = SubscriberId{id};
    for (std::size_t a = 0; a < 2; ++a) {
      const double x = rng.next_double();
      const double y = rng.next_double();
      s.predicates.push_back(Range{std::min(x, y), std::max(x, y)});
    }
    if (id % 5 == 0) {
      s.predicates[id % 2] = Range{0.6, 0.4};
    } else if (id % 7 == 0) {
      s.predicates = {Range{nan, nan}, Range{nan, 0.5}};
    }
    m.add(AnySubscription{s});
    brute.add(AnySubscription{s});
  }
  EXPECT_EQ(m.subscription_count(), 300u);
  const auto check = [&] {
    for (std::uint64_t p = 1; p <= 50; ++p) {
      Publication pub{PublicationId{p}, {rng.next_double(), 0.5}};
      auto got = m.match(AnyPublication{pub}).subscribers;
      auto want = brute.match(AnyPublication{pub}).subscribers;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << "publication " << p;
      for (const SubscriberId s : got) {
        EXPECT_NE(s.value() % 5, 0u) << "inverted subscription matched";
      }
    }
    // Zero-dimension publications match zero-dimension subscriptions only.
    EXPECT_TRUE(m.match(AnyPublication{Publication{PublicationId{99}, {}}})
                    .subscribers.empty());
  };
  check();
  BinaryWriter w;
  m.serialize_state(w);
  auto fresh = m.clone_empty();
  BinaryReader r{w.buffer()};
  fresh->restore_state(r);
  EXPECT_EQ(fresh->subscription_count(), 300u);
  BinaryWriter w2;
  fresh->serialize_state(w2);
  EXPECT_EQ(w2.buffer(), w.buffer());
  BinaryWriter split;
  BinaryWriter brute_split;
  EXPECT_EQ(m.split_state(KeyCoverage{}.split_child(), split),
            brute.split_state(KeyCoverage{}.split_child(), brute_split));
  for (const std::uint64_t id : {10, 14, 15, 21, 35}) {
    EXPECT_EQ(m.remove(SubscriptionId{id}), brute.remove(SubscriptionId{id}))
        << id;
  }
  EXPECT_EQ(m.subscription_count(), brute.subscription_count());
  check();
}

TEST(IntervalIndexTest, InterleavedChurnMatchesFreshStore) {
  Rng rng{0x1d7e5eedULL};
  IntervalIndexMatcher m;
  std::map<std::uint64_t, Subscription> live;  // the reference live set
  std::uint64_t next_id = 1;
  std::size_t max_dims = 3;
  const auto grid = [&] {
    return static_cast<double>(rng.next_below(9)) / 8.0;
  };
  const auto add = [&](std::size_t d) {
    Subscription s;
    s.id = SubscriptionId{next_id};
    s.subscriber = SubscriberId{1000 + next_id};
    ++next_id;
    for (std::size_t a = 0; a < d; ++a) {
      const double x = grid();
      const double y = grid();
      s.predicates.push_back(Range{std::min(x, y), std::max(x, y)});
    }
    m.add(AnySubscription{s});
    live.emplace(s.id.value(), s);
  };
  const auto remove_any = [&] {
    if (live.empty()) return;
    auto it = live.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(live.size())));
    EXPECT_TRUE(m.remove(it->second.id));
    live.erase(it);
  };
  std::uint64_t matches = 0;
  const auto check = [&](std::size_t d) {
    Publication pub{PublicationId{++matches}, {}};
    for (std::size_t a = 0; a < d; ++a) {
      pub.attributes.push_back(rng.next_bool() ? grid() : rng.next_double());
    }
    const auto got = m.match(AnyPublication{pub});
    BinaryWriter w;
    m.serialize_state(w);
    auto fresh = m.clone_empty();
    BinaryReader r{w.buffer()};
    fresh->restore_state(r);
    const auto want = fresh->match(AnyPublication{pub});
    EXPECT_EQ(got.subscribers, want.subscribers) << "match " << matches;
    EXPECT_EQ(got.work_units, want.work_units) << "match " << matches;
    std::vector<SubscriberId> direct;
    for (const auto& [id, sub] : live) {
      if (sub.matches(pub)) direct.push_back(sub.subscriber);
    }
    auto sorted = got.subscribers;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, direct) << "match " << matches;
    EXPECT_EQ(m.subscription_count(), live.size());
  };

  for (int i = 0; i < 40; ++i) add(3);
  for (int i = 0; i < 3; ++i) add(0);
  check(3);
  check(0);
  // Freed slots refilled (LIFO) before the next rebuild, twice over for
  // one of them, and a zero-dimension slot reused by a 3-d subscription.
  remove_any();
  add(3);
  remove_any();
  remove_any();
  add(3);
  add(0);
  EXPECT_TRUE(m.remove(SubscriptionId{next_id - 1}));
  live.erase(next_id - 1);
  add(3);
  const auto zero_dim =
      std::find_if(live.begin(), live.end(), [](const auto& entry) {
        return entry.second.predicates.empty();
      });
  ASSERT_NE(zero_dim, live.end());
  EXPECT_TRUE(m.remove(zero_dim->second.id));
  live.erase(zero_dim);
  add(3);
  check(3);
  check(0);

  for (int step = 0; step < 400; ++step) {
    if (step == 120) {
      // Wider than any subscription so far: new attribute columns.
      add(5);
      max_dims = 5;
    }
    if (step == 200) {
      // Split half the store off and absorb it back.
      const KeyCoverage child = KeyCoverage{}.split_child();
      BinaryWriter w;
      const std::size_t moved = m.split_state(child, w);
      EXPECT_GT(moved, 0u);
      EXPECT_EQ(m.subscription_count() + moved, live.size());
      std::map<std::uint64_t, Subscription> kept;
      for (const auto& [id, sub] : live) {
        if (!child.covers(id)) kept.emplace(id, sub);
      }
      std::swap(live, kept);
      check(3);
      BinaryReader r{w.buffer()};
      m.absorb_state(r);
      std::swap(live, kept);
      check(3);
    }
    if (step == 300) {
      // Restore onto itself mid-stream, with updates pending.
      add(3);
      remove_any();
      BinaryWriter w;
      m.serialize_state(w);
      BinaryReader r{w.buffer()};
      m.restore_state(r);
      check(3);
    }
    const std::uint64_t op = rng.next_below(20);
    if (op < 9) {
      add(rng.next_below(20) == 0 ? 0 : std::min<std::size_t>(
                                            max_dims, 3 + rng.next_below(3)));
    } else if (op < 16) {
      remove_any();
    } else {
      const std::uint64_t shape = rng.next_below(8);
      check(shape == 0 ? 0 : (shape == 1 ? max_dims : 3));
    }
  }
  EXPECT_GT(matches, 60u);
}

TEST(AspeMatcherTest, EndToEndEncryptedMatching) {
  Rng rng{41};
  const AspeKey key = AspeKey::generate(4, rng);
  AspeEncryptor enc{key, Rng{42}};
  workload::PlainWorkload gen{{4, 0.05, 55}};

  AspeMatcher matcher;
  std::vector<Subscription> subs;
  for (std::uint64_t i = 0; i < 200; ++i) {
    subs.push_back(gen.subscription(i));
    matcher.add(AnySubscription{enc.encrypt(subs.back())});
  }
  for (int p = 0; p < 40; ++p) {
    const Publication pub = gen.next_publication();
    auto outcome = matcher.match(AnyPublication{enc.encrypt(pub)});
    std::vector<SubscriberId> expected;
    for (const auto& s : subs) {
      if (s.matches(pub)) expected.push_back(s.subscriber);
    }
    std::sort(outcome.subscribers.begin(), outcome.subscribers.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(outcome.subscribers, expected);
  }
}

TEST(AspeMatcherTest, WorkUnitsScaleWithStoreSize) {
  Rng rng{4};
  const AspeKey key = AspeKey::generate(4, rng);
  AspeEncryptor enc{key, Rng{5}};
  workload::PlainWorkload gen{{4, 0.01, 6}};
  AspeMatcher matcher;
  for (std::uint64_t i = 0; i < 10; ++i) {
    matcher.add(AnySubscription{enc.encrypt(gen.subscription(i))});
  }
  const double ten = matcher.estimate_match_units();
  for (std::uint64_t i = 10; i < 20; ++i) {
    matcher.add(AnySubscription{enc.encrypt(gen.subscription(i))});
  }
  EXPECT_DOUBLE_EQ(matcher.estimate_match_units(), 2.0 * ten);
}

TEST(AspeMatcherTest, StateRoundTrip) {
  Rng rng{8};
  const AspeKey key = AspeKey::generate(4, rng);
  AspeEncryptor enc{key, Rng{9}};
  workload::PlainWorkload gen{{4, 0.5, 10}};
  AspeMatcher matcher;
  for (std::uint64_t i = 0; i < 30; ++i) {
    matcher.add(AnySubscription{enc.encrypt(gen.subscription(i))});
  }
  BinaryWriter w;
  matcher.serialize_state(w);
  EXPECT_NEAR(static_cast<double>(w.size()),
              static_cast<double>(matcher.state_bytes()), 600.0);
  auto restored = matcher.clone_empty();
  BinaryReader r{w.buffer()};
  restored->restore_state(r);
  EXPECT_EQ(restored->subscription_count(), 30u);
  const Publication pub = gen.next_publication();
  const auto epub = enc.encrypt(pub);
  EXPECT_EQ(restored->match(AnyPublication{epub}).subscribers,
            matcher.match(AnyPublication{epub}).subscribers);
}

TEST(AspeMatcherTest, WrongPayloadTypeThrows) {
  AspeMatcher matcher;
  Subscription plain;
  EXPECT_THROW(matcher.add(AnySubscription{plain}), std::bad_variant_access);
}

}  // namespace
}  // namespace esh::filter
