// Determinism tests of the pooled match_batch backend: for every matcher
// (brute force, interval index, ASPE) the same seeded subscription and
// publication stream is driven through a scalar instance and through
// pooled instances at 1, 2, 4 and 8 threads, and every observable must be
// byte-identical -- the exact per-publication subscriber vectors (order
// included), the simulated work_units, state_bytes, and the serialized
// state. A differential-harness run with the pool installed additionally
// checks pooled matchers against the independent oracle under add/remove
// churn and serialize -> clone_empty -> restore round-trips (which must
// preserve the installed pool).
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/serde.hpp"
#include "common/thread_pool.hpp"
#include "filter/interval_index.hpp"
#include "filter/matcher.hpp"
#include "matcher_harness.hpp"
#include "workload/generator.hpp"

namespace esh::filter {
namespace {

constexpr std::size_t kDims = 4;
constexpr std::size_t kPlainSubs = 20000;  // ~20 brute tiles, ~40 ASPE ranges
constexpr std::size_t kAspeSubs = 2000;
constexpr std::size_t kPubs = 128;
constexpr std::size_t kBatch = 48;

std::vector<MatchOutcome> run_batches(Matcher& matcher,
                                      const std::vector<AnyPublication>& pubs) {
  std::vector<MatchOutcome> out;
  out.reserve(pubs.size());
  for (std::size_t i = 0; i < pubs.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, pubs.size() - i);
    auto chunk =
        matcher.match_batch(std::span<const AnyPublication>{pubs.data() + i, n});
    for (auto& outcome : chunk) out.push_back(std::move(outcome));
  }
  return out;
}

std::vector<std::byte> serialized(const Matcher& matcher) {
  BinaryWriter w;
  matcher.serialize_state(w);
  return w.buffer();
}

// Replays the identical seeded stream at every thread count and requires
// byte identity with the scalar run on every observable.
void expect_identical_at_all_thread_counts(
    const std::function<std::unique_ptr<Matcher>()>& fresh_loaded_matcher,
    const std::vector<AnyPublication>& pubs) {
  const auto scalar = fresh_loaded_matcher();
  ASSERT_EQ(scalar->thread_pool(), nullptr);
  const std::vector<MatchOutcome> ref = run_batches(*scalar, pubs);
  const std::size_t ref_bytes = scalar->state_bytes();
  const std::vector<std::byte> ref_serialized = serialized(*scalar);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool{threads};
    const auto pooled = fresh_loaded_matcher();
    pooled->set_thread_pool(&pool);
    const std::vector<MatchOutcome> got = run_batches(*pooled, pubs);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t p = 0; p < ref.size(); ++p) {
      // Exact vector equality: order and duplicates included, no sorting.
      EXPECT_EQ(got[p].subscribers, ref[p].subscribers)
          << "publication " << p;
      EXPECT_EQ(got[p].work_units, ref[p].work_units) << "publication " << p;
    }
    EXPECT_EQ(pooled->state_bytes(), ref_bytes);
    EXPECT_EQ(serialized(*pooled), ref_serialized);
  }
}

std::vector<AnyPublication> plain_publications(workload::PlainWorkload& gen) {
  std::vector<AnyPublication> pubs;
  pubs.reserve(kPubs);
  for (std::size_t i = 0; i < kPubs; ++i) {
    pubs.emplace_back(gen.next_publication());
  }
  return pubs;
}

// The subscription stream is generated ONCE and shared by every rebuilt
// instance: ASPE ciphertexts embed fresh encryption randomness, so
// re-generating them would legitimately change the serialized state.
TEST(ParallelMatchTest, BruteForceIdenticalAtEveryThreadCount) {
  workload::PlainWorkload gen{{kDims, 0.01, 11}};
  std::vector<AnySubscription> subs;
  subs.reserve(kPlainSubs);
  for (std::size_t i = 0; i < kPlainSubs; ++i) {
    subs.emplace_back(gen.subscription(i));
  }
  auto pubs = plain_publications(gen);
  expect_identical_at_all_thread_counts(
      [&] {
        auto matcher = std::make_unique<BruteForceMatcher>();
        for (const AnySubscription& sub : subs) matcher->add(sub);
        return matcher;
      },
      pubs);
}

TEST(ParallelMatchTest, IntervalIndexIdenticalAtEveryThreadCount) {
  workload::PlainWorkload gen{{kDims, 0.01, 11}};
  std::vector<AnySubscription> subs;
  subs.reserve(kPlainSubs);
  for (std::size_t i = 0; i < kPlainSubs; ++i) {
    subs.emplace_back(gen.subscription(i));
  }
  auto pubs = plain_publications(gen);
  expect_identical_at_all_thread_counts(
      [&] {
        auto matcher = std::make_unique<IntervalIndexMatcher>();
        for (const AnySubscription& sub : subs) matcher->add(sub);
        return matcher;
      },
      pubs);
}

TEST(ParallelMatchTest, AspeIdenticalAtEveryThreadCount) {
  workload::EncryptedWorkload gen{{kDims, 0.01, 11}};
  std::vector<AnySubscription> subs;
  subs.reserve(kAspeSubs);
  for (std::size_t i = 0; i < kAspeSubs; ++i) {
    subs.emplace_back(gen.subscription(i));
  }
  std::vector<AnyPublication> pubs;
  pubs.reserve(kPubs);
  for (std::size_t i = 0; i < kPubs; ++i) {
    pubs.emplace_back(gen.next_publication());
  }
  expect_identical_at_all_thread_counts(
      [&] {
        auto matcher = std::make_unique<AspeMatcher>();
        for (const AnySubscription& sub : subs) matcher->add(sub);
        return matcher;
      },
      pubs);
}

TEST(ParallelMatchTest, CloneEmptyPropagatesPool) {
  ThreadPool pool{2};
  BruteForceMatcher matcher;
  matcher.set_thread_pool(&pool);
  const auto clone = matcher.clone_empty();
  EXPECT_EQ(clone->thread_pool(), &pool);
}

// Pooled matchers against the independent oracle under churn: adds,
// removes, batched publishes and mid-stream restore round-trips, all with
// the pool fanning the matching compute out.
TEST(ParallelMatchDifferentialTest, PooledSchemesMatchOracleUnderChurn) {
  ThreadPool pool{4};
  harness::DifferentialHarness::Params params;
  params.seed = 77;
  params.operations = 600;
  harness::DifferentialHarness h{params};

  auto brute = std::make_unique<BruteForceMatcher>();
  brute->set_thread_pool(&pool);
  h.add_scheme("brute-pooled", std::move(brute), /*encrypted=*/false,
               /*batched=*/true);
  auto interval = std::make_unique<IntervalIndexMatcher>();
  interval->set_thread_pool(&pool);
  h.add_scheme("interval-pooled", std::move(interval), /*encrypted=*/false,
               /*batched=*/true);
  auto aspe = std::make_unique<AspeMatcher>();
  aspe->set_thread_pool(&pool);
  h.add_scheme("aspe-pooled", std::move(aspe), /*encrypted=*/true,
               /*batched=*/true);

  h.run();
  EXPECT_GT(h.publications_checked(), 0u);
  EXPECT_GT(h.restores_run(), 0u);  // round-trips kept the pool installed
}

}  // namespace
}  // namespace esh::filter
