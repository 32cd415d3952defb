// Micro-benchmarks of the filtering substrate (google-benchmark):
//  - real ASPE encryption and matching, sweeping the attribute count d to
//    exhibit the O(d^2) per-operation cost the paper's workload analysis
//    relies on (§VI-B);
//  - plain-text matchers (brute force vs interval index) sweeping the
//    number of stored subscriptions;
//  - the oracle matcher used by the cluster-scale experiments.
//  - an index sweep (--index_sweep): per-publication match work-units and
//    wall-clock of IntervalIndexMatcher vs BruteForceMatcher while the
//    store scales 100 K -> 1 M subscriptions at a 1 % matching rate,
//    emitted as JSON (BENCH_index.json), with subscriber-set agreement
//    verified at every size -- before and after a churn phase -- and the
//    wall-clock cost one churned update adds to the next match (its tree
//    rebuild) as rebuild_us_per_update.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/keyspace.hpp"
#include "common/rng.hpp"
#include "filter/aspe.hpp"
#include "filter/interval_index.hpp"
#include "filter/matcher.hpp"
#include "workload/generator.hpp"
#include "workload/oracle.hpp"

namespace {

using namespace esh;

void BM_AspeEncryptPublication(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  const filter::AspeKey key = filter::AspeKey::generate(d, rng);
  filter::AspeEncryptor enc{key, Rng{2}};
  workload::PlainWorkload gen{{d, 0.01, 3}};
  auto pub = gen.next_publication();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encrypt(pub));
  }
  state.SetComplexityN(static_cast<std::int64_t>(d));
}
BENCHMARK(BM_AspeEncryptPublication)->RangeMultiplier(2)->Range(2, 16)
    ->Complexity(benchmark::oNSquared);

void BM_AspeEncryptSubscription(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  const filter::AspeKey key = filter::AspeKey::generate(d, rng);
  filter::AspeEncryptor enc{key, Rng{2}};
  workload::PlainWorkload gen{{d, 0.01, 3}};
  const auto sub = gen.subscription(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encrypt(sub));
  }
}
BENCHMARK(BM_AspeEncryptSubscription)->RangeMultiplier(2)->Range(2, 16);

// One encrypted publication against one stored subscription: the paper's
// per-operation cost, quadratic in d (2d scalar products of length d+3).
void BM_AspeMatchOnePair(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  const filter::AspeKey key = filter::AspeKey::generate(d, rng);
  filter::AspeEncryptor enc{key, Rng{2}};
  workload::PlainWorkload gen{{d, 0.5, 3}};
  const auto esub = enc.encrypt(gen.subscription(0));
  const auto epub = enc.encrypt(gen.next_publication());
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::encrypted_match(esub, epub));
  }
  state.SetComplexityN(static_cast<std::int64_t>(d));
}
BENCHMARK(BM_AspeMatchOnePair)->RangeMultiplier(2)->Range(2, 32)
    ->Complexity(benchmark::oNSquared);

void BM_AspeMatcherStore(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng{1};
  const filter::AspeKey key = filter::AspeKey::generate(4, rng);
  filter::AspeEncryptor enc{key, Rng{2}};
  workload::PlainWorkload gen{{4, 0.01, 3}};
  filter::AspeMatcher matcher;
  for (std::uint64_t i = 0; i < n; ++i) {
    matcher.add(filter::AnySubscription{enc.encrypt(gen.subscription(i))});
  }
  const auto epub = enc.encrypt(gen.next_publication());
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(filter::AnyPublication{epub}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AspeMatcherStore)->RangeMultiplier(4)->Range(64, 16384);

template <typename MatcherT>
void plain_matcher_bench(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  workload::PlainWorkload gen{{4, 0.01, 3}};
  MatcherT matcher;
  for (std::uint64_t i = 0; i < n; ++i) {
    matcher.add(filter::AnySubscription{gen.subscription(i)});
  }
  const auto pub = gen.next_publication();
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(filter::AnyPublication{pub}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_PlainBruteForce(benchmark::State& state) {
  plain_matcher_bench<filter::BruteForceMatcher>(state);
}
BENCHMARK(BM_PlainBruteForce)->RangeMultiplier(4)->Range(256, 65536);

void BM_PlainIntervalIndex(benchmark::State& state) {
  plain_matcher_bench<filter::IntervalIndexMatcher>(state);
}
BENCHMARK(BM_PlainIntervalIndex)->RangeMultiplier(4)->Range(256, 65536);

// One slice's match per fresh publication (every call misses the oracle's
// memo, so it times sampling, partitioning and the membership scan).
// `split_child` stores half of bucket 0 in a child slice (index m_slices),
// which scans every bucket.
void oracle_matcher_bench(benchmark::State& state, double hot_fraction,
                          bool split_child) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  workload::OracleParams params;
  params.total_subscriptions = n;
  params.m_slices = 16;
  params.hot_fraction = hot_fraction;
  workload::OracleWorkload wl{params};
  const KeyCoverage child_keys = KeyCoverage{16, 0, 0, 0}.split_child();
  auto matcher = wl.make_matcher({}, split_child ? params.m_slices : 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (wl.oracle()->slice_of(i) != 0) continue;
    if (split_child && !child_keys.covers(wl.oracle()->sub_id(i).value())) {
      continue;
    }
    matcher->add(filter::AnySubscription{wl.subscription(i)});
  }
  std::uint64_t pub = 0;
  for (auto _ : state) {
    filter::EncryptedPublication p;
    p.id = PublicationId{++pub};
    benchmark::DoNotOptimize(matcher->match(filter::AnyPublication{p}));
  }
}

void BM_OracleMatcher(benchmark::State& state) {
  oracle_matcher_bench(state, 0.0, false);
}
BENCHMARK(BM_OracleMatcher)->RangeMultiplier(4)->Range(4096, 262144);

void BM_OracleMatcherHot(benchmark::State& state) {
  oracle_matcher_bench(state, 0.3, false);
}
BENCHMARK(BM_OracleMatcherHot)->RangeMultiplier(4)->Range(4096, 262144);

void BM_OracleMatcherSplitChild(benchmark::State& state) {
  oracle_matcher_bench(state, 0.3, true);
}
BENCHMARK(BM_OracleMatcherSplitChild)->RangeMultiplier(4)->Range(4096, 262144);

// The ground-truth sampler alone: one publication's sorted match set.
void BM_MatchOracleSample(benchmark::State& state) {
  workload::OracleParams params;
  params.total_subscriptions = static_cast<std::uint64_t>(state.range(0));
  const workload::MatchOracle oracle{params};
  std::uint64_t pub = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.matches(PublicationId{++pub}));
  }
}
BENCHMARK(BM_MatchOracleSample)->RangeMultiplier(4)->Range(4096, 262144);

void BM_AspeStateSerialization(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Rng rng{1};
  const filter::AspeKey key = filter::AspeKey::generate(4, rng);
  filter::AspeEncryptor enc{key, Rng{2}};
  workload::PlainWorkload gen{{4, 0.01, 3}};
  filter::AspeMatcher matcher;
  for (std::uint64_t i = 0; i < n; ++i) {
    matcher.add(filter::AnySubscription{enc.encrypt(gen.subscription(i))});
  }
  for (auto _ : state) {
    BinaryWriter w;
    matcher.serialize_state(w);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(matcher.state_bytes()));
}
BENCHMARK(BM_AspeStateSerialization)->RangeMultiplier(4)->Range(256, 4096);

// Best-of-`reps` wall time of `fn`, in seconds.
double time_best_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// ---- index sweep: sublinear matching at 100 K -> 1 M subscriptions -----------
//
// The million-subscriber question: how does per-publication match cost
// scale with the store when predicates are selective? The workload is a
// social-feed shape -- each subscription has one narrow "topic" interval
// (attribute 0, width 0.02) and three broad contextual intervals sized so
// the overall matching rate stays at the paper's 1 % -- and a uniform
// publication stream. BruteForceMatcher pays O(subs) per publication by
// construction; IntervalIndexMatcher's covering rule registers the narrow
// interval, so candidates scale with its selectivity, not the store. The
// sweep reports simulated work-units per publication (the figure-relevant
// number) and the wall-clock of scalar match() loops as a sanity check,
// verifies subscriber-set agreement at every size, then churns ~2 % of the
// store (removals + fresh inserts forcing slot reuse and a tree rebuild)
// and re-verifies against a direct evaluation.

constexpr std::size_t kIndexDims = 4;
constexpr double kIndexNarrowWidth = 0.02;
constexpr double kIndexMatchingRate = 0.01;

filter::Subscription index_sweep_subscription(std::uint64_t index) {
  Rng rng{0x5eedULL ^ (index * 0x9e3779b97f4a7c15ULL + 5)};
  // Width product = matching rate: one narrow topic interval plus three
  // equal broad ones covering the residual.
  const double broad = std::cbrt(kIndexMatchingRate / kIndexNarrowWidth);
  filter::Subscription s;
  s.id = SubscriptionId{index + 1};
  s.subscriber = SubscriberId{index + 1};
  s.predicates.resize(kIndexDims);
  for (std::size_t a = 0; a < kIndexDims; ++a) {
    const double w = a == 0 ? kIndexNarrowWidth : broad;
    const double low = rng.uniform(0.0, 1.0 - w);
    s.predicates[a] = filter::Range{low, low + w};
  }
  return s;
}

std::vector<filter::AnyPublication> index_sweep_publications(std::size_t count) {
  std::vector<filter::AnyPublication> pubs;
  pubs.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    Rng rng{0xb0b0ULL ^ (p * 0xbf58476d1ce4e5b9ULL + 3)};
    filter::Publication pub;
    pub.id = PublicationId{p + 1};
    pub.attributes.resize(kIndexDims);
    for (double& v : pub.attributes) v = rng.next_double();
    pubs.emplace_back(std::move(pub));
  }
  return pubs;
}

std::vector<SubscriberId> sorted_subscribers(std::vector<SubscriberId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// One store size: returns false (after reporting on stderr) on any
// divergence between the index backend, the brute reference, and the
// direct post-churn evaluation.
bool index_sweep_size(std::size_t n, bool last) {
  constexpr std::size_t kPubs = 32;
  filter::BruteForceMatcher brute;
  filter::IntervalIndexMatcher interval;
  std::vector<filter::Subscription> all_subs;
  all_subs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    all_subs.push_back(index_sweep_subscription(i));
    brute.add(filter::AnySubscription{all_subs.back()});
    interval.add(filter::AnySubscription{all_subs.back()});
  }
  const std::vector<filter::AnyPublication> pubs =
      index_sweep_publications(kPubs);
  const auto match_all = [&pubs](filter::Matcher& matcher) {
    std::vector<filter::MatchOutcome> out;
    out.reserve(pubs.size());
    for (const filter::AnyPublication& pub : pubs) {
      out.push_back(matcher.match(pub));
    }
    return out;
  };

  // Warm passes double as the agreement check (and trigger the one-off
  // index build before timing).
  const auto ref = match_all(brute);
  const auto got = match_all(interval);
  bool ok = true;
  double brute_units = 0.0;
  double index_units = 0.0;
  std::uint64_t total_matches = 0;
  for (std::size_t p = 0; p < pubs.size(); ++p) {
    if (sorted_subscribers(got[p].subscribers) !=
        sorted_subscribers(ref[p].subscribers)) {
      std::fprintf(stderr,
                   "index_sweep: %zu subs, publication %zu subscriber sets "
                   "diverge (index %zu vs brute %zu)\n",
                   n, p, got[p].subscribers.size(), ref[p].subscribers.size());
      ok = false;
    }
    brute_units += ref[p].work_units;
    index_units += got[p].work_units;
    total_matches += ref[p].subscribers.size();
  }
  brute_units /= static_cast<double>(pubs.size());
  index_units /= static_cast<double>(pubs.size());

  const double brute_s = time_best_seconds(3, [&] { (void)match_all(brute); });
  const double index_s =
      time_best_seconds(3, [&] { (void)match_all(interval); });
  const double brute_rate = static_cast<double>(pubs.size()) / brute_s;
  const double index_rate = static_cast<double>(pubs.size()) / index_s;

  // Churn phase: remove ~2 % of the store, insert the same number of fresh
  // subscriptions (slot reuse + rebuild), verify against direct evaluation.
  std::vector<char> dead(all_subs.size(), 0);
  std::size_t removed = 0;
  for (std::size_t i = 7; i < n; i += 50) {
    if (!interval.remove(all_subs[i].id)) {
      std::fprintf(stderr, "index_sweep: remove of stored id failed\n");
      ok = false;
    }
    dead[i] = 1;
    ++removed;
  }
  for (std::uint64_t j = 0; j < removed; ++j) {
    all_subs.push_back(index_sweep_subscription(n + j));
    dead.push_back(0);
    interval.add(filter::AnySubscription{all_subs.back()});
  }
  constexpr std::size_t kChurnPubs = 4;
  for (std::size_t p = 0; p < kChurnPubs; ++p) {
    const auto& plain = std::get<filter::Publication>(pubs[p]);
    std::vector<SubscriberId> expected;
    for (std::size_t i = 0; i < all_subs.size(); ++i) {
      if (!dead[i] && all_subs[i].matches(plain)) {
        expected.push_back(all_subs[i].subscriber);
      }
    }
    const auto outcome = interval.match(pubs[p]);
    if (sorted_subscribers(outcome.subscribers) !=
        sorted_subscribers(std::move(expected))) {
      std::fprintf(stderr,
                   "index_sweep: %zu subs, post-churn publication %zu "
                   "diverges from direct evaluation\n",
                   n, p);
      ok = false;
    }
  }

  // Rebuild cost of one churned update: each timed cycle replaces one live
  // subscription (add a fresh one, remove an old one) so the next match
  // must rebuild; the cycle minus a steady match on the same publication
  // is what the update costs the matching path.
  const double steady_s =
      time_best_seconds(5, [&] { (void)interval.match(pubs[0]); });
  std::size_t victim = 0;
  const double cycle_s = time_best_seconds(5, [&] {
    all_subs.push_back(index_sweep_subscription(all_subs.size()));
    dead.push_back(0);
    interval.add(filter::AnySubscription{all_subs.back()});
    while (dead[victim]) ++victim;
    ok &= interval.remove(all_subs[victim].id);
    dead[victim] = 1;
    (void)interval.match(pubs[0]);
  });
  const double rebuild_us = (cycle_s - steady_s) * 1e6;

  std::printf("    {\"subscriptions\": %zu, \"publications\": %zu,\n"
              "     \"matches_per_pub\": %.1f,\n"
              "     \"brute_work_units_per_pub\": %.1f, "
              "\"index_work_units_per_pub\": %.1f,\n"
              "     \"work_reduction_factor\": %.1f,\n"
              "     \"brute_pubs_per_sec\": %.1f, "
              "\"index_pubs_per_sec\": %.1f, \"wall_clock_speedup\": %.2f,\n"
              "     \"rebuild_us_per_update\": %.1f,\n"
              "     \"churned\": %zu, \"results_identical\": %s}%s\n",
              n, pubs.size(),
              static_cast<double>(total_matches) /
                  static_cast<double>(pubs.size()),
              brute_units, index_units, brute_units / index_units, brute_rate,
              index_rate, index_rate / brute_rate, rebuild_us, removed,
              ok ? "true" : "false", last ? "" : ",");
  return ok;
}

int run_index_sweep() {
  const std::vector<std::size_t> sizes = {100'000, 250'000, 500'000,
                                          1'000'000};
  std::printf("{\n  \"benchmark\": \"micro_filter_index_sweep\",\n"
              "  \"dimensions\": %zu,\n  \"matching_rate\": %.3f,\n"
              "  \"narrow_width\": %.3f,\n  \"sizes\": [\n",
              kIndexDims, kIndexMatchingRate, kIndexNarrowWidth);
  bool ok = true;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ok &= index_sweep_size(sizes[i], i + 1 == sizes.size());
  }
  std::printf("  ]\n}\n");
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--index_sweep") return run_index_sweep();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
