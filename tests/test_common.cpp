#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace esh {
namespace {

TEST(Ids, DefaultIsInvalid) {
  HostId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(HostId{3}.valid());
  EXPECT_EQ(HostId::invalid(), HostId{});
}

TEST(Ids, ComparesByValue) {
  EXPECT_EQ(SliceId{7}, SliceId{7});
  EXPECT_NE(SliceId{7}, SliceId{8});
  EXPECT_LT(SliceId{7}, SliceId{8});
}

TEST(Ids, DistinctTagTypesDoNotMix) {
  static_assert(!std::is_same_v<HostId, SliceId>);
  static_assert(!std::is_convertible_v<HostId, SliceId>);
}

TEST(Ids, HashSpreads) {
  std::unordered_set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<SliceId>{}(SliceId{i}));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(SimTimeHelpers, Conversions) {
  EXPECT_EQ(millis(3), micros(3000));
  EXPECT_EQ(seconds(2), millis(2000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(micros(1500)), 1.5);
}

TEST(Rng, Deterministic) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{9};
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    min = std::min(min, x);
    max = std::max(max, x);
  }
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(Rng, NormalMoments) {
  Rng rng{11};
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng{13};
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, SplitIndependence) {
  Rng a{42};
  Rng b = a.split();
  // The split stream differs from the parent's continuation.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, ShufflePermutes) {
  Rng rng{17};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(RunningStats, Moments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(PercentileTracker, ExactQuartiles) {
  PercentileTracker t;
  for (int i = 1; i <= 101; ++i) t.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(t.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(50), 51.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 101.0);
  EXPECT_NEAR(t.percentile(25), 26.0, 1e-9);
}

TEST(PercentileTracker, AddAfterQueryResorts) {
  PercentileTracker t;
  t.add(10.0);
  t.add(20.0);
  EXPECT_DOUBLE_EQ(t.percentile(100), 20.0);
  t.add(5.0);
  EXPECT_DOUBLE_EQ(t.percentile(0), 5.0);
}

TEST(PercentileTracker, ErrorsOnEmptyOrBadPercentile) {
  PercentileTracker t;
  // The (void) casts keep [[nodiscard]] quiet under -Werror: the value is
  // intentionally unused because the call must throw before producing one.
  EXPECT_THROW((void)t.percentile(50), std::logic_error);
  t.add(1.0);
  EXPECT_THROW((void)t.percentile(-1), std::invalid_argument);
  EXPECT_THROW((void)t.percentile(101), std::invalid_argument);
}

TEST(TimeBinnedSeries, BinsByWidth) {
  TimeBinnedSeries series{seconds(30)};
  series.add(seconds(1), 1.0);
  series.add(seconds(29), 3.0);
  series.add(seconds(31), 10.0);
  series.add(seconds(95), 7.0);
  ASSERT_EQ(series.bins().size(), 3u);
  EXPECT_EQ(series.bins()[0].start, seconds(0));
  EXPECT_DOUBLE_EQ(series.bins()[0].stats.mean(), 2.0);
  EXPECT_EQ(series.bins()[1].start, seconds(30));
  EXPECT_EQ(series.bins()[2].start, seconds(90));
}

TEST(TimeBinnedSeries, RejectsOutOfOrder) {
  TimeBinnedSeries series{seconds(30)};
  series.add(seconds(40), 1.0);
  EXPECT_THROW(series.add(seconds(5), 1.0), std::logic_error);
}

TEST(Serde, RoundTripScalars) {
  BinaryWriter w;
  w.write_u8(7);
  w.write_u32(123456);
  w.write_u64(0xdeadbeefcafebabeULL);
  w.write_i64(-42);
  w.write_f64(3.14159);
  w.write_bool(true);
  w.write_id(SliceId{99});
  w.write_string("hello world");
  w.write_f64_span(std::vector<double>{1.0, 2.5, -3.0});

  BinaryReader r{w.buffer()};
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 123456u);
  EXPECT_EQ(r.read_u64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_id<SliceTag>(), SliceId{99});
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_f64_vector(), (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, TruncatedInputThrows) {
  BinaryWriter w;
  w.write_u32(1);
  BinaryReader r{w.buffer()};
  EXPECT_THROW(r.read_u64(), std::out_of_range);
}

TEST(Serde, SizeTracksWrites) {
  BinaryWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.write_u64(1);
  EXPECT_EQ(w.size(), 8u);
  w.write_string("abc");
  EXPECT_EQ(w.size(), 8u + 8u + 3u);
}

}  // namespace
}  // namespace esh
