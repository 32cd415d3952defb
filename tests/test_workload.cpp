#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/simulator.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"
#include "workload/oracle.hpp"
#include "workload/schedule.hpp"

namespace esh::workload {
namespace {

// ---- generators -----------------------------------------------------------------

TEST(PlainWorkload, SubscriptionsDeterministicPerIndex) {
  PlainWorkload a{{4, 0.01, 9}};
  PlainWorkload b{{4, 0.01, 9}};
  const auto s1 = a.subscription(5);
  const auto s2 = b.subscription(5);
  EXPECT_EQ(s1.id, s2.id);
  ASSERT_EQ(s1.predicates.size(), s2.predicates.size());
  for (std::size_t i = 0; i < s1.predicates.size(); ++i) {
    EXPECT_DOUBLE_EQ(s1.predicates[i].low, s2.predicates[i].low);
  }
}

TEST(PlainWorkload, WidthsProductEqualsMatchingRate) {
  PlainWorkload gen{{4, 0.01, 3}};
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto sub = gen.subscription(i);
    double product = 1.0;
    for (const auto& p : sub.predicates) {
      EXPECT_GE(p.low, 0.0);
      EXPECT_LE(p.high, 1.0);
      product *= p.width();
    }
    EXPECT_NEAR(product, 0.01, 1e-9);
  }
}

TEST(PlainWorkload, EmpiricalMatchingRateNearTarget) {
  PlainWorkload gen{{4, 0.02, 11}};
  std::vector<filter::Subscription> subs;
  for (std::uint64_t i = 0; i < 400; ++i) subs.push_back(gen.subscription(i));
  std::uint64_t matches = 0, trials = 0;
  for (int p = 0; p < 500; ++p) {
    const auto pub = gen.next_publication();
    for (const auto& s : subs) {
      ++trials;
      if (s.matches(pub)) ++matches;
    }
  }
  const double rate = static_cast<double>(matches) / trials;
  EXPECT_NEAR(rate, 0.02, 0.004);
}

TEST(PlainWorkload, PublicationIdsIncrease) {
  PlainWorkload gen{{4, 0.01, 5}};
  EXPECT_EQ(gen.next_publication().id, PublicationId{1});
  EXPECT_EQ(gen.next_publication().id, PublicationId{2});
}

TEST(PlainWorkload, RejectsBadParams) {
  EXPECT_THROW((PlainWorkload{{0, 0.1, 1}}), std::invalid_argument);
  EXPECT_THROW((PlainWorkload{{4, 0.0, 1}}), std::invalid_argument);
  EXPECT_THROW((PlainWorkload{{4, 1.5, 1}}), std::invalid_argument);
}

TEST(EncryptedWorkload, RoundTripMatchesPlain) {
  EncryptedWorkload enc{{4, 0.05, 21}};
  PlainWorkload plain{{4, 0.05, 21}};
  const auto esub = enc.subscription(3);
  const auto psub = plain.subscription(3);
  EXPECT_EQ(esub.id, psub.id);
  filter::Publication ppub;
  const auto epub = enc.next_publication(&ppub);
  EXPECT_EQ(filter::encrypted_match(esub, epub), psub.matches(ppub));
}

// ---- oracle --------------------------------------------------------------------

TEST(MatchOracle, DeterministicPerPublication) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 10'000,
                      .matching_rate = 0.01, .m_slices = 4, .seed = 99}};
  const auto a = oracle.matches(PublicationId{42});
  const auto b = oracle.matches(PublicationId{42});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, oracle.matches(PublicationId{43}));
  // A without-replacement sample, ascending: no duplicate indices.
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end());
}

TEST(MatchOracle, MatchCountNearExpectation) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 10'000,
                      .matching_rate = 0.01, .m_slices = 4, .seed = 1}};
  RunningStats counts;
  for (std::uint64_t p = 1; p <= 200; ++p) {
    counts.add(static_cast<double>(oracle.matches(PublicationId{p}).size()));
  }
  EXPECT_NEAR(counts.mean(), 100.0, 3.0);
  EXPECT_GT(counts.stddev(), 2.0);  // binomial spread, not constant
}

TEST(MatchOracle, PartitionConsistentWithFlatMatches) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 5'000,
                      .matching_rate = 0.02, .m_slices = 8, .seed = 5}};
  const PublicationId pub{7};
  const auto flat = oracle.matches(pub);
  const auto& partition = oracle.partitioned_matches(pub);
  ASSERT_EQ(partition.size(), 8u);
  std::vector<std::uint64_t> merged;
  for (std::size_t s = 0; s < partition.size(); ++s) {
    for (auto idx : partition[s]) {
      EXPECT_EQ(oracle.slice_of(idx), s);
      merged.push_back(idx);
    }
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, flat);
}

TEST(MatchOracle, SkewedIdsStayUniqueAndConcentrateInBucketZero) {
  MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 10'000,
                      .matching_rate = 0.01, .m_slices = 4, .seed = 9,
                      .hot_fraction = 0.55}};
  std::set<std::uint64_t> ids;
  std::size_t in_hot_bucket = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    const auto id = oracle.sub_id(i);
    EXPECT_TRUE(ids.insert(id.value()).second) << "duplicate id " << i;
    // slice_of must stay the modulo of the (skewed) id, matching AP.
    EXPECT_EQ(oracle.slice_of(i), id.value() % 4);
    if (oracle.slice_of(i) == 0) ++in_hot_bucket;
  }
  EXPECT_EQ(in_hot_bucket, 5'500u);  // hot_fraction of the population
  // Uniform scheme untouched: ids are still index + 1.
  MatchOracle uniform{{.dimensions = 4, .total_subscriptions = 100,
                       .matching_rate = 0.01, .m_slices = 4, .seed = 9}};
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(uniform.sub_id(i).value(), i + 1);
  }
}

TEST(MatchOracle, RejectsBadParams) {
  OracleParams no_slices;
  no_slices.m_slices = 0;
  EXPECT_THROW((MatchOracle{no_slices}), std::invalid_argument);
  OracleParams bad_rate;
  bad_rate.matching_rate = 1.5;
  EXPECT_THROW((MatchOracle{bad_rate}), std::invalid_argument);
  OracleParams bad_hot;
  bad_hot.hot_fraction = -0.1;
  EXPECT_THROW((MatchOracle{bad_hot}), std::invalid_argument);
  OracleParams bad_churn;
  bad_churn.churn_fraction = 1.5;
  EXPECT_THROW((MatchOracle{bad_churn}), std::invalid_argument);
}

TEST(MatchOracle, IndexOfInvertsSubIdOverHotUniformAndFringe) {
  for (const double hot : {0.0, 0.3}) {
    const MatchOracle oracle{{.dimensions = 4, .total_subscriptions = 1'000,
                              .matching_rate = 0.01, .m_slices = 5,
                              .seed = 4, .hot_fraction = hot}};
    // Indices >= total_subscriptions are the churn fringe.
    for (std::uint64_t i = 0; i < 3'000; ++i) {
      const auto back = oracle.index_of(oracle.sub_id(i));
      ASSERT_TRUE(back.has_value()) << i;
      EXPECT_EQ(*back, i) << "hot " << hot;
    }
    EXPECT_FALSE(oracle.index_of(SubscriptionId{0}).has_value());
    EXPECT_FALSE(oracle.index_of(SubscriptionId{}).has_value());
  }
  // Under skew, multiples of m_slices past the hot range are never ids.
  const MatchOracle skewed{{.dimensions = 4, .total_subscriptions = 1'000,
                            .matching_rate = 0.01, .m_slices = 5, .seed = 4,
                            .hot_fraction = 0.3}};
  EXPECT_EQ(skewed.index_of(SubscriptionId{300 * 5}), 299u);
  EXPECT_FALSE(skewed.index_of(SubscriptionId{301 * 5}).has_value());
}

TEST(ChurnStream, DeterministicWithFreshUniqueIds) {
  const OracleParams params{.dimensions = 4, .total_subscriptions = 1'000,
                            .matching_rate = 0.01, .m_slices = 4, .seed = 21,
                            .hot_fraction = 0.4, .churn_fraction = 0.2};
  auto oracle = std::make_shared<MatchOracle>(params);
  ChurnStream a{oracle, 7};
  ChurnStream b{oracle, 7};
  EXPECT_EQ(a.target_fringe(), 200u);

  // Ids of the base population plus every churned-in fringe subscription
  // must be globally unique: sub_id() is injective over all indices, even
  // under hot_fraction skew.
  std::set<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < params.total_subscriptions; ++i) {
    EXPECT_TRUE(ids.insert(oracle->sub_id(i).value()).second) << i;
  }
  std::set<std::uint64_t> fringe_live;
  for (int step = 0; step < 2'000; ++step) {
    const auto ea = a.next();
    const auto eb = b.next();
    EXPECT_EQ(ea.subscribe, eb.subscribe) << step;
    EXPECT_EQ(ea.index, eb.index) << step;
    if (ea.subscribe) {
      // Fresh indices only, beyond the base population, never reused.
      EXPECT_GE(ea.index, params.total_subscriptions);
      EXPECT_TRUE(fringe_live.insert(ea.index).second) << step;
      EXPECT_TRUE(ids.insert(oracle->sub_id(ea.index).value()).second)
          << "duplicate id at step " << step;
      // AP's modulo routing applies to the fringe like any other traffic.
      EXPECT_EQ(oracle->slice_of(ea.index),
                oracle->sub_id(ea.index).value() % params.m_slices);
    } else {
      // Unsubscribes only ever target a currently live fringe index.
      EXPECT_EQ(fringe_live.erase(ea.index), 1u) << step;
    }
    EXPECT_EQ(a.live_fringe(), fringe_live.size());
  }
  // The walk reached and then held the target fringe size (within the
  // random-walk band), and kept spawning fresh subscriptions throughout.
  EXPECT_GT(a.spawned(), 500u);
  EXPECT_GT(a.live_fringe(), 100u);
  EXPECT_LT(a.live_fringe(), 400u);
}

TEST(OracleMatcher, OnlyStoredSubscriptionsMatch) {
  OracleParams params{.dimensions = 4, .total_subscriptions = 1'000,
                      .matching_rate = 0.05, .m_slices = 2, .seed = 77};
  OracleWorkload workload{params};
  auto m0 = workload.make_matcher({}, 0);
  // Store only half of slice 0's partition (even indices).
  std::set<std::uint64_t> stored;
  for (std::uint64_t i = 0; i < 1'000; ++i) {
    if (workload.oracle()->slice_of(i) == 0 && i % 2 == 0) {
      m0->add(filter::AnySubscription{workload.subscription(i)});
      stored.insert(i);
    }
  }
  const auto pub = workload.next_publication();
  const auto outcome = m0->match(filter::AnyPublication{pub});
  const auto truth = workload.oracle()->matches(pub.id);
  std::size_t expected = 0;
  for (auto idx : truth) {
    if (stored.contains(idx)) ++expected;
  }
  EXPECT_EQ(outcome.subscribers.size(), expected);
}

TEST(OracleMatcher, StateRoundTripPadsToEncryptedSize) {
  OracleParams params{.dimensions = 4, .total_subscriptions = 100,
                      .matching_rate = 0.1, .m_slices = 2, .seed = 3};
  OracleWorkload workload{params};
  cluster::CostModel cost;
  auto matcher = workload.make_matcher(cost, 0);
  std::size_t added = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (workload.oracle()->slice_of(i) == 0) {
      matcher->add(filter::AnySubscription{workload.subscription(i)});
      ++added;
    }
  }
  EXPECT_EQ(matcher->subscription_count(), added);
  EXPECT_EQ(matcher->state_bytes(), added * cost.subscription_bytes(4));
  BinaryWriter w;
  matcher->serialize_state(w);
  // Serialized blob within ~2 % of the declared encrypted size.
  EXPECT_NEAR(static_cast<double>(w.size()),
              static_cast<double>(matcher->state_bytes()),
              0.05 * static_cast<double>(matcher->state_bytes()) + 64);
  auto restored = matcher->clone_empty();
  BinaryReader r{w.buffer()};
  restored->restore_state(r);
  EXPECT_EQ(restored->subscription_count(), added);
}

// ---- oracle golden digests -------------------------------------------------------
//
// Pinned 64-bit FNV-1a digests of oracle outputs. They pin the sampler's
// draws and the state wire format: any change to either moves a digest.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_bytes(const std::vector<std::byte>& bytes) {
  std::uint64_t h = kFnvBasis;
  for (const std::byte b : bytes) {
    h ^= std::to_integer<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Digest of the match sets of publications 1..500, each index with the
// id it maps to (hot_fraction moves ids, not the sampled indices).
std::uint64_t match_digest(const OracleParams& params) {
  const MatchOracle oracle{params};
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t p = 1; p <= 500; ++p) {
    const auto m = oracle.matches(PublicationId{p});
    h = fnv1a_u64(h, m.size());
    for (const std::uint64_t index : m) {
      h = fnv1a_u64(fnv1a_u64(h, index), oracle.sub_id(index).value());
    }
  }
  return h;
}

TEST(MatchOracle, GoldenMatchSetsUniformAndHot) {
  OracleParams params{.dimensions = 4, .total_subscriptions = 20'000,
                      .matching_rate = 0.01, .m_slices = 8, .seed = 123};
  EXPECT_EQ(match_digest(params), 12338515340936850379ULL);
  params.hot_fraction = 0.3;
  EXPECT_EQ(match_digest(params), 5535867530821671280ULL);
}

TEST(OracleMatcher, GoldenStateBytesAfterChurnAndSplit) {
  // Hot and uniform ids interleave in id order, and the fringe (indices
  // >= total_subscriptions) extends the uniform range: the wire order must
  // still be ascending id.
  const OracleParams params{.dimensions = 4, .total_subscriptions = 3'000,
                            .matching_rate = 0.02, .m_slices = 4, .seed = 31,
                            .hot_fraction = 0.3};
  const OracleWorkload workload{params};
  const auto& oracle = *workload.oracle();
  auto matcher = workload.make_matcher(cluster::CostModel{}, 0);
  for (std::uint64_t i = 0; i < 3'200; ++i) {
    if (i % 3 != 1) {
      matcher->add(filter::AnySubscription{workload.subscription(i)});
    }
  }
  for (std::uint64_t i = 0; i < 3'200; i += 7) {
    (void)matcher->remove(oracle.sub_id(i));
  }
  BinaryWriter before;
  matcher->serialize_state(before);
  BinaryWriter split;
  const std::size_t moved =
      matcher->split_state(KeyCoverage{}.split_child(), split);
  BinaryWriter after;
  matcher->serialize_state(after);
  EXPECT_EQ(moved, 917u);
  EXPECT_EQ(matcher->subscription_count(), 911u);
  EXPECT_EQ(fnv1a_bytes(before.buffer()), 397596063290869905ULL);
  EXPECT_EQ(fnv1a_bytes(split.buffer()), 17941865255355267797ULL);
  EXPECT_EQ(fnv1a_bytes(after.buffer()), 13826040708770358962ULL);

  // Restore onto a clone is a byte fixpoint, and absorbing the split
  // half back reunites the pre-split store.
  auto clone = matcher->clone_empty();
  BinaryReader after_reader{after.buffer()};
  clone->restore_state(after_reader);
  BinaryReader split_reader{split.buffer()};
  clone->absorb_state(split_reader);
  BinaryWriter reunited;
  clone->serialize_state(reunited);
  EXPECT_EQ(reunited.buffer(), before.buffer());
}

TEST(OracleMatcher, RejectsSubscriptionsTheOracleDidNotGenerate) {
  const OracleWorkload workload{{.dimensions = 4, .total_subscriptions = 100,
                                 .matching_rate = 0.1, .m_slices = 4,
                                 .seed = 3, .hot_fraction = 0.5}};
  auto matcher = workload.make_matcher({}, 0);
  auto foreign_id = workload.subscription(7);
  foreign_id.id = SubscriptionId{51 * 4};  // a multiple of 4 past the hot range
  EXPECT_THROW(matcher->add(filter::AnySubscription{foreign_id}),
               std::invalid_argument);
  auto foreign_subscriber = workload.subscription(7);
  foreign_subscriber.subscriber = SubscriberId{8};
  EXPECT_THROW(matcher->add(filter::AnySubscription{foreign_subscriber}),
               std::invalid_argument);
  EXPECT_EQ(matcher->subscription_count(), 0u);
  EXPECT_FALSE(matcher->remove(SubscriptionId{51 * 4}));
  matcher->add(filter::AnySubscription{workload.subscription(7)});
  matcher->add(filter::AnySubscription{workload.subscription(7)});
  EXPECT_EQ(matcher->subscription_count(), 1u);
  EXPECT_TRUE(matcher->remove(workload.oracle()->sub_id(7)));
  EXPECT_FALSE(matcher->remove(workload.oracle()->sub_id(7)));
}

TEST(OracleMatcher, SplitChildMatchesExactlyItsStoredSubset) {
  const OracleParams params{.dimensions = 4, .total_subscriptions = 2'000,
                            .matching_rate = 0.05, .m_slices = 4, .seed = 12,
                            .hot_fraction = 0.3};
  const OracleWorkload workload{params};
  const auto& oracle = *workload.oracle();
  // A split child (slice index >= m_slices) holding a subset of every
  // bucket, plus fringe subscriptions that never match.
  auto child = workload.make_matcher({}, params.m_slices + 1);
  std::set<std::uint64_t> stored;
  Rng rng{5};
  for (std::uint64_t i = 0; i < 2'100; ++i) {
    if (rng.next_double() < 0.4) {
      child->add(filter::AnySubscription{workload.subscription(i)});
      stored.insert(i);
    }
  }
  for (std::uint64_t p = 1; p <= 50; ++p) {
    filter::EncryptedPublication pub;
    pub.id = PublicationId{p};
    const auto outcome = child->match(filter::AnyPublication{pub});
    // Bucket by bucket, ascending within a bucket.
    std::vector<SubscriberId> expected;
    for (std::size_t s = 0; s < params.m_slices; ++s) {
      for (const std::uint64_t index : oracle.matches(pub.id)) {
        if (oracle.slice_of(index) == s && stored.contains(index)) {
          expected.push_back(oracle.subscriber_of(index));
        }
      }
    }
    EXPECT_EQ(outcome.subscribers, expected) << "publication " << p;
  }
}

TEST(OracleWorkload, MockCiphertextsHaveRealSizes) {
  OracleWorkload workload{{.dimensions = 4, .total_subscriptions = 100,
                           .matching_rate = 0.1, .m_slices = 2, .seed = 3}};
  const auto sub = workload.subscription(0);
  EXPECT_EQ(sub.comparisons.size(), 8u);
  EXPECT_EQ(sub.comparisons[0].share_a.size(), 7u);
  auto pub = workload.next_publication();
  EXPECT_EQ(pub.share_a.size(), 7u);
  EXPECT_EQ(pub.id, PublicationId{1});
}

// ---- schedules -----------------------------------------------------------------

TEST(Schedules, ConstantRate) {
  ConstantRate schedule{100.0, seconds(60)};
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(10)), 100.0);
  EXPECT_EQ(schedule.duration(), seconds(60));
  EXPECT_DOUBLE_EQ(schedule.peak_rate(), 100.0);
}

TEST(Schedules, TrapezoidShape) {
  TrapezoidRate schedule{350.0, seconds(100), seconds(50), seconds(100)};
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(0)), 0.0);
  EXPECT_NEAR(schedule.rate(seconds(50)), 175.0, 1e-9);
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(100)), 350.0);
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(125)), 350.0);
  EXPECT_NEAR(schedule.rate(seconds(200)), 175.0, 1e-9);
  EXPECT_DOUBLE_EQ(schedule.rate(seconds(260)), 0.0);
  EXPECT_EQ(schedule.duration(), seconds(250));
}

TEST(FrankfurtCurve, ReproducesFigure1Features) {
  // Quiet before the market opens.
  EXPECT_LT(FrankfurtTrace::base_curve(6.0), 1.0);
  // Sharp surge at the 9:00 open.
  EXPECT_GT(FrankfurtTrace::base_curve(9.0),
            5.0 * FrankfurtTrace::base_curve(8.5));
  // Afternoon spike above the midday level.
  EXPECT_GT(FrankfurtTrace::base_curve(15.5),
            1.5 * FrankfurtTrace::base_curve(13.0));
  // Sharp decline after the 17:30 close.
  EXPECT_LT(FrankfurtTrace::base_curve(18.0),
            0.3 * FrankfurtTrace::base_curve(17.0));
  // Quiet evening.
  EXPECT_LT(FrankfurtTrace::base_curve(21.0), 1.0);
  EXPECT_DOUBLE_EQ(FrankfurtTrace::base_peak(), 1200.0);
}

TEST(FrankfurtTrace, CompressionAndScaling) {
  FrankfurtTrace::Config config;
  config.start_hour = 7.0;
  config.end_hour = 20.5;
  config.speedup = 20.0;
  config.peak_rate = 190.0;
  config.noise = 0.0;
  FrankfurtTrace trace{config};
  // 13.5 hours at 20x -> 2430 s experiment.
  EXPECT_EQ(trace.duration(), seconds(2430));
  // Peak of the compressed trace ~ peak_rate (9:00 is at (9-7)*3600/20 s).
  const SimTime open{static_cast<std::int64_t>(2.0 * 3600.0 / 20.0 * 1e6)};
  EXPECT_NEAR(trace.rate(open), 190.0 * 1150.0 / 1200.0, 5.0);
  EXPECT_DOUBLE_EQ(trace.rate(seconds(0)), 0.0);
}

TEST(FrankfurtTrace, NoiseIsDeterministicAndBounded) {
  FrankfurtTrace::Config config;
  config.noise = 0.15;
  FrankfurtTrace a{config}, b{config};
  for (int s = 0; s < 2000; s += 100) {
    EXPECT_DOUBLE_EQ(a.rate(seconds(s)), b.rate(seconds(s)));
    EXPECT_GE(a.rate(seconds(s)), 0.0);
  }
}

// ---- driver --------------------------------------------------------------------

TEST(PublicationDriver, GeneratesApproximatelyTheScheduledVolume) {
  sim::Simulator sim;
  auto schedule = std::make_shared<ConstantRate>(200.0, seconds(60));
  std::uint64_t count = 0;
  PublicationDriver driver{sim, schedule, [&] { ++count; }, 5};
  driver.start();
  sim.run();
  // 200/s for 60 s = 12000 expected (Poisson, ~1 % tolerance at 3 sigma).
  EXPECT_NEAR(static_cast<double>(count), 12'000.0, 400.0);
  EXPECT_EQ(driver.published(), count);
  EXPECT_FALSE(driver.running());
}

TEST(PublicationDriver, TracksTimeVaryingRate) {
  sim::Simulator sim;
  auto schedule =
      std::make_shared<TrapezoidRate>(100.0, seconds(30), seconds(0),
                                      seconds(30));
  std::uint64_t first_half = 0, second_half = 0;
  PublicationDriver driver{
      sim, schedule,
      [&] { (sim.now() < seconds(30) ? first_half : second_half)++; }, 6};
  driver.start();
  sim.run();
  // Symmetric triangle: halves roughly equal, total ~ 3000.
  EXPECT_NEAR(static_cast<double>(first_half + second_half), 3000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(first_half),
              static_cast<double>(second_half),
              0.25 * static_cast<double>(first_half));
}

TEST(PublicationDriver, StopHalts) {
  sim::Simulator sim;
  auto schedule = std::make_shared<ConstantRate>(1000.0, seconds(100));
  std::uint64_t count = 0;
  PublicationDriver driver{sim, schedule, [&] { ++count; }, 8};
  driver.start();
  sim.run_until(seconds(1));
  driver.stop();
  const auto at_stop = count;
  sim.run_until(seconds(5));
  EXPECT_EQ(count, at_stop);
}

TEST(PublicationDriver, OnDoneFires) {
  sim::Simulator sim;
  auto schedule = std::make_shared<ConstantRate>(10.0, seconds(5));
  bool done = false;
  PublicationDriver driver{sim, schedule, [] {}, 9, [&] { done = true; }};
  driver.start();
  sim.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace esh::workload
