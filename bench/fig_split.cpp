// Key-level elasticity experiment: a skewed subscription population makes
// one M slice a hotspot that whole-slice migration cannot dilute — the
// slice alone exceeds what migrating it to any (empty) host could absorb.
// Three governance modes run the identical workload:
//
//   static     enforcement off: the hot slice saturates its host and the
//              backlog grows for the whole window.
//   migrate    enforcer with whole-slice migration only: the local rule
//              fires, but every plan keeps the hotspot intact — moving the
//              hot slice, or its neighbours, leaves one host saturated.
//   split      enforcer with key-level rules enabled: the hotspot-split
//              rule halves the slice's key coverage onto the least-loaded
//              host; after the automatic split the deployment sustains the
//              offered rate. When the load stops, the cold-merge rule folds
//              the pair back.
//
// Reported per mode: sustained tail throughput (completions/s over the
// last third of the publication window), delivery delay p50/p99, the
// split/merge/migration counts and the exactly-once audit after a full
// drain. With --json the same data is emitted as a JSON document.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/chaos.hpp"
#include "workload/schedule.hpp"

namespace {

constexpr double kRate = 780.0;          // pub/s, above one host's capacity
constexpr std::size_t kWindowSec = 60;   // publication window
constexpr std::size_t kTailSec = 20;     // sustained-throughput window

struct Mode {
  std::string name;
  bool enforce = false;
  bool splits = false;
};

struct RunResult {
  Mode mode;
  double tail_rate = 0.0;   // completions/s over the last kTailSec
  double window_rate = 0.0; // completions/s over the whole window
  double delay_p50_ms = 0.0;
  double delay_p99_ms = 0.0;
  std::size_t splits = 0;
  std::size_t merges = 0;
  std::size_t migrations = 0;
  bool drained = false;
  esh::harness::DeliveryAudit audit;
};

esh::harness::TestbedConfig split_config() {
  esh::harness::TestbedConfig config;
  // Five workers: AP+EP on the first two, the four M slices paired on the
  // next two, one spare. The skewed bucket gives M slice 0 more than half
  // of the 20 K subscriptions, so its host saturates below the offered
  // rate while the spare host idles.
  config.worker_hosts = 5;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 20'000;
  config.workload.matching_rate = 0.01;
  config.workload.m_slices = 4;
  config.workload.hot_fraction = 0.55;
  config.source_slices = 2;
  config.ap_slices = 4;
  config.ep_slices = 4;
  config.sink_slices = 2;
  config.engine.probe_interval = esh::millis(500);
  config.iaas.max_hosts = 8;
  config.with_manager = true;
  config.manager.policy.target = 0.5;
  config.manager.policy.global_high = 0.95;
  config.manager.policy.global_low = 0.0;
  config.manager.policy.local_high = 0.9;
  config.manager.policy.local_low = 0.0;
  config.manager.policy.placement_cap = 0.6;
  config.manager.policy.grace = esh::seconds(5);
  config.manager.policy.scale_out_grace = esh::seconds(3);
  config.manager.policy.split_share = 0.6;
  config.manager.policy.merge_share = 0.10;
  config.placement = [](const std::vector<esh::HostId>& workers) {
    esh::pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["EP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[2], workers[3]};
    return assignment;  // workers[4] stays empty: migration headroom
  };
  config.seed = 77;
  return config;
}

RunResult run_one(const Mode& mode) {
  using namespace esh;
  RunResult result;
  result.mode = mode;

  auto config = split_config();
  config.manager.policy.enable_splits = mode.splits;
  harness::Testbed bed{config};
  bed.manager()->set_enforcement(mode.enforce);
  bed.delays().enable_audit();
  bed.store_subscriptions(config.workload.total_subscriptions);

  const SimTime publish_start = bed.simulator().now();
  auto driver = bed.drive(
      std::make_shared<workload::ConstantRate>(kRate, seconds(kWindowSec)));

  // Completions at the tail boundary: everything after this point was
  // delivered at the post-enforcement steady state.
  const std::uint64_t before = bed.delays().publications_completed();
  std::uint64_t at_tail_start = 0;
  bed.simulator().schedule(seconds(kWindowSec - kTailSec), [&] {
    at_tail_start = bed.delays().publications_completed();
  });
  bed.run_for(seconds(kWindowSec) + millis(10));
  const std::uint64_t at_window_end = bed.delays().publications_completed();
  driver->stop();

  result.window_rate = static_cast<double>(at_window_end - before) /
                       static_cast<double>(kWindowSec);
  result.tail_rate = static_cast<double>(at_window_end - at_tail_start) /
                     static_cast<double>(kTailSec);

  // Full drain: the saturated modes take tens of simulated seconds to work
  // off their backlog; exactly-once must hold for every mode regardless.
  result.drained = bed.run_until(
      [&] {
        return bed.delays().publications_completed() >=
               bed.hub().publications_sent();
      },
      seconds(300));
  bed.run_for(seconds(1));

  if (bed.delays().delays_ms().count() > 0) {
    result.delay_p50_ms = bed.delays().delays_ms().percentile(50);
    result.delay_p99_ms = bed.delays().delays_ms().percentile(99);
  }
  result.splits = bed.engine().splits_completed();
  result.merges = bed.engine().merges_completed();
  result.migrations = bed.manager()->migrations().size();
  result.audit = harness::verify_exactly_once(bed);
  (void)publish_start;
  return result;
}

void print_tables(const std::vector<RunResult>& results) {
  using namespace esh;
  bench::print_header(
      "Key-level split: skewed workload (55 % of 20 K subscriptions in one "
      "M slice) at 780 pub/s");
  bench::print_row({"mode", "tail pub/s", "window", "p50 (ms)", "p99 (ms)",
                    "splits", "merges", "migr", "exact-1x"},
                   11);
  for (const RunResult& r : results) {
    bench::print_row(
        {r.mode.name, bench::fmt(r.tail_rate, 0),
         bench::fmt(r.window_rate, 0), bench::fmt(r.delay_p50_ms, 0),
         bench::fmt(r.delay_p99_ms, 0), std::to_string(r.splits),
         std::to_string(r.merges), std::to_string(r.migrations),
         r.audit.exactly_once() ? "yes" : "NO"},
        11);
    std::printf(
        "    published %llu  delivered %llu  missing %llu  duplicated %llu"
        "  mismatched %llu  drained %s\n",
        static_cast<unsigned long long>(r.audit.published),
        static_cast<unsigned long long>(r.audit.delivered),
        static_cast<unsigned long long>(r.audit.missing),
        static_cast<unsigned long long>(r.audit.duplicated),
        static_cast<unsigned long long>(r.audit.mismatched),
        r.drained ? "yes" : "no");
  }
  std::printf(
      "\n  The hotspot slice exceeds one host's capacity: only the split\n"
      "  mode sustains the offered rate through the tail window.\n");
}

void print_json(const std::vector<RunResult>& results) {
  std::printf("{\n  \"benchmark\": \"fig_split\",\n"
              "  \"rate_pub_per_sec\": %.0f,\n  \"window_s\": %zu,\n"
              "  \"tail_s\": %zu,\n  \"modes\": [",
              kRate, kWindowSec, kTailSec);
  bool first = true;
  for (const RunResult& r : results) {
    std::printf(
        "%s\n    {\"mode\": \"%s\", \"tail_rate\": %.1f, "
        "\"window_rate\": %.1f, \"delay_p50_ms\": %.1f, "
        "\"delay_p99_ms\": %.1f,\n     \"splits\": %zu, \"merges\": %zu, "
        "\"migrations\": %zu, \"drained\": %s,\n"
        "     \"audit\": {\"published\": %llu, \"delivered\": %llu, "
        "\"missing\": %llu, \"duplicated\": %llu, \"mismatched\": %llu, "
        "\"exactly_once\": %s}}",
        first ? "" : ",", r.mode.name.c_str(), r.tail_rate, r.window_rate,
        r.delay_p50_ms, r.delay_p99_ms, r.splits, r.merges, r.migrations,
        r.drained ? "true" : "false",
        static_cast<unsigned long long>(r.audit.published),
        static_cast<unsigned long long>(r.audit.delivered),
        static_cast<unsigned long long>(r.audit.missing),
        static_cast<unsigned long long>(r.audit.duplicated),
        static_cast<unsigned long long>(r.audit.mismatched),
        r.audit.exactly_once() ? "true" : "false");
    first = false;
  }
  std::printf("]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = esh::bench::parse_flag(argc, argv, "--json");
  const std::vector<Mode> modes{
      {"static", false, false},
      {"migrate", true, false},
      {"split", true, true},
  };
  std::vector<RunResult> results;
  for (const Mode& mode : modes) {
    if (!json) std::printf("running: %s ...\n", mode.name.c_str());
    results.push_back(run_one(mode));
  }
  if (json) {
    print_json(results);
  } else {
    print_tables(results);
  }
  // The split mode must out-sustain both baselines and stay exactly-once.
  const RunResult& split = results.back();
  bool ok = split.drained && split.splits >= 1;
  for (const RunResult& r : results) {
    ok = ok && r.audit.exactly_once();
    if (r.mode.name != "split") ok = ok && split.tail_rate > r.tail_rate;
  }
  return ok ? 0 : 2;
}
