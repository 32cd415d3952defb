// Table I: operator slice migration times under a constant flow of 100
// publications/s, with 12.5 K or 50 K subscriptions stored per M slice
// (100 K / 500 K total over 8 M slices). 25 migrations per row, each
// moving a random slice of the operator to a random other host.
//
// Paper: AP 232 +- 31 ms, M(12.5 K) 1497 +- 354 ms, M(50 K) 2533 +- 1557 ms,
// EP 275 +- 52 ms. AP is stateless, EP state is transient and small, M
// migration time grows (sub-linearly, via the fixed library-init part)
// with the stored-subscription state.
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "workload/schedule.hpp"

namespace {

using namespace esh;

harness::TestbedConfig table1_config(std::size_t subscriptions) {
  auto config = bench::paper_config(8, subscriptions);
  // Table I layout: 4/8/4 slices on 2/4/2 hosts.
  config.ap_slices = 4;
  config.workload.m_slices = 8;
  config.ep_slices = 4;
  config.placement = [](const std::vector<HostId>& workers) {
    pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[2], workers[3], workers[4], workers[5]};
    assignment["EP"] = {workers[6], workers[7]};
    return assignment;
  };
  return config;
}

struct RowStats {
  RunningStats total_ms;
  RunningStats interruption_ms;
  RunningStats state_mb;
};

RowStats run_migrations(harness::Testbed& bed, const std::string& op,
                        int count, Rng& rng) {
  RowStats stats;
  const auto slices = bed.hub().slices_of(op);
  const auto workers = bed.worker_hosts();
  for (int i = 0; i < count; ++i) {
    const SliceId slice =
        slices[rng.next_below(slices.size())];
    const HostId src = bed.engine().slice_host(slice);
    HostId dst = src;
    while (dst == src) {
      dst = workers[rng.next_below(workers.size())];
    }
    std::optional<engine::ElasticReport> report;
    bed.engine().migrate(slice, dst, [&](const engine::ElasticReport& r) {
      report = r;
    });
    const bool ok = bed.run_until([&] { return report.has_value(); },
                                  seconds(120));
    if (!ok) {
      std::fprintf(stderr, "migration of %s timed out\n", op.c_str());
      continue;
    }
    stats.total_ms.add(to_millis(report->total_duration()));
    stats.interruption_ms.add(to_millis(report->interruption()));
    stats.state_mb.add(static_cast<double>(report->state_bytes) / 1e6);
    // Settling gap between migrations.
    bed.run_for(seconds(2));
  }
  return stats;
}

void print_stats(const std::string& label, const RowStats& stats) {
  bench::print_row({label, bench::fmt(stats.total_ms.mean(), 0),
                    bench::fmt(stats.total_ms.stddev(), 0),
                    bench::fmt(stats.interruption_ms.mean(), 0),
                    bench::fmt(stats.state_mb.mean(), 1)},
                   14);
}

}  // namespace

int main() {
  using namespace esh;
  constexpr int kMigrations = 25;
  bench::print_header("Table I: slice migration times, 100 pub/s");
  bench::print_row({"operator", "avg (ms)", "std (ms)", "interrupt", "MB"},
                   14);
  Rng rng{77};

  {
    auto config = table1_config(100'000);
    harness::Testbed bed{config};
    bed.store_subscriptions(100'000);
    auto driver = bed.drive(std::make_shared<workload::ConstantRate>(
        100.0, seconds(100'000)));
    bed.run_for(seconds(10));
    print_stats("AP", run_migrations(bed, "AP", kMigrations, rng));
    print_stats("EP", run_migrations(bed, "EP", kMigrations, rng));
    print_stats("M (12.5K)", run_migrations(bed, "M", kMigrations, rng));
    driver->stop();
  }
  {
    auto config = table1_config(500'000);
    harness::Testbed bed{config};
    bed.store_subscriptions(500'000);
    // The paper drives 100 pub/s in both rows. Under the calibrated cost
    // model this 8-host layout saturates at ~63 pub/s with 500 K stored
    // subscriptions (each publication costs 5x the 100 K case), so we keep
    // the same relative load (~60 % of capacity) instead of overdriving
    // the deployment into unbounded queueing.
    auto driver = bed.drive(std::make_shared<workload::ConstantRate>(
        40.0, seconds(100'000)));
    bed.run_for(seconds(10));
    print_stats("M (50K)", run_migrations(bed, "M", kMigrations, rng));
    driver->stop();
  }

  std::printf(
      "\nPaper: AP 232+-31, M(12.5K) 1497+-354, M(50K) 2533+-1557,\n"
      "EP 275+-52 (ms). Expected shape: AP ~ EP << M, with M growing\n"
      "sub-linearly in state size (fixed replica/library setup cost).\n");
  return 0;
}
