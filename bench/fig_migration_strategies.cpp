// Migration-strategy tradeoff sweep: the identical workload runs once per
// registered protocol (buffered-replay, stop-and-restart, incremental
// pre-copy) and one M slice migrates under constant publication load — the
// paper's Fig. 7 setting, where the matcher's stored-subscription state is
// the big transfer and the M migration is the visible delay spike. The
// matcher state is static once storage finishes, so this is pre-copy's
// best case: the baseline ships while the source serves, the first dirty
// round comes back empty, and the final stop-and-copy carries nothing —
// the stopped window collapses to the control round-trip. (The
// dirty-delta machinery itself is exercised against a mutating EP slice by
// the crash-torture suite in tests/test_chaos.cpp.)
//
// Reported per strategy: the protocol byte accounting (final transfer,
// pre-copy rounds, mirror duplicates), the source-stopped window
// ("downtime": frozen -> activated), the end-to-end protocol duration, the
// per-second delivery-delay series around the migration (the paper's Fig. 7
// view) with its steady-state baseline and spike, and the exactly-once
// audit after a full drain. With --json the same data is emitted as a JSON
// document (BENCH_migration_strategies.json via scripts/bench_snapshot.sh).
//
// The tradeoff the strategy lab exists for, asserted by the exit code:
// stop-and-restart ships the fewest bytes (one checkpoint, no mirror, no
// rounds), incremental pre-copy stops the source for the shortest window
// (only the last dirty delta ships inside the freeze).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/migration_strategy.hpp"
#include "harness/chaos.hpp"
#include "workload/schedule.hpp"

namespace {

constexpr double kRate = 300.0;         // pub/s across the window
constexpr std::size_t kWindowSec = 30;  // publication window
constexpr std::size_t kMigrateAtSec = 10;
constexpr std::size_t kSpikeWindowSec = 5;  // bins scanned for the spike

struct SeriesPoint {
  double t_s = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t count = 0;
};

struct RunResult {
  const esh::engine::MigrationStrategy* strategy = nullptr;
  esh::engine::ElasticReport report;
  double downtime_ms = 0.0;
  double duration_ms = 0.0;
  double steady_ms = 0.0;  // mean bin delay before the migration
  double spike_ms = 0.0;   // max bin delay in the bins after it
  double delay_p50_ms = 0.0;
  double delay_p99_ms = 0.0;
  std::vector<SeriesPoint> series;
  bool drained = false;
  esh::harness::DeliveryAudit audit;
};

esh::harness::TestbedConfig strategies_config() {
  esh::harness::TestbedConfig config;
  config.worker_hosts = 5;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 20'000;
  config.workload.matching_rate = 0.01;
  config.workload.m_slices = 4;
  config.source_slices = 2;
  config.ap_slices = 4;
  config.ep_slices = 2;
  config.sink_slices = 2;
  config.engine.flush_interval = esh::millis(10);
  config.engine.control_tick = esh::millis(5);
  config.engine.checkpoints.enabled = true;
  config.engine.checkpoints.interval = esh::millis(500);
  config.iaas.max_hosts = 7;
  // AP and EP share the first two workers, the M pair-per-host fills the
  // next two, and the last worker stays empty: the migration headroom every
  // strategy moves the same M slice into.
  config.placement = [](const std::vector<esh::HostId>& workers) {
    esh::pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["EP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[2], workers[3]};
    return assignment;
  };
  config.seed = 2014;
  return config;
}

RunResult run_one(const esh::engine::MigrationStrategy& strategy) {
  using namespace esh;
  RunResult result;
  result.strategy = &strategy;

  harness::Testbed bed{strategies_config()};
  bed.delays().enable_audit();
  bed.delays().enable_series(seconds(1));
  bed.store_subscriptions(strategies_config().workload.total_subscriptions);

  const SimTime start = bed.simulator().now();
  auto driver = bed.drive(
      std::make_shared<workload::ConstantRate>(kRate, seconds(kWindowSec)));

  const SliceId slice = bed.hub().slices_of("M")[0];
  const HostId src = bed.engine().slice_host(slice);
  HostId dst = src;
  for (const HostId host : bed.worker_hosts()) {
    if (bed.engine().slices_on(host).empty()) dst = host;
  }
  if (dst == src) {  // no empty worker: the other EP host
    for (const HostId host : bed.worker_hosts()) {
      if (host != src && !bed.engine().slices_on(host).empty()) dst = host;
    }
  }
  std::vector<engine::ElasticReport> reports;
  bed.simulator().schedule(seconds(kMigrateAtSec), [&] {
    bed.engine().migrate(slice, dst, strategy.kind(),
                         [&](const engine::ElasticReport& r) {
                           reports.push_back(r);
                         });
  });

  bed.run_for(seconds(kWindowSec) + millis(10));
  driver->stop();
  result.drained = bed.run_until(
      [&] {
        return bed.delays().publications_completed() >=
               bed.hub().publications_sent();
      },
      seconds(120));
  bed.run_for(seconds(1));

  if (!reports.empty()) {
    result.report = reports.front();
    result.downtime_ms =
        to_millis(result.report.activated - result.report.frozen);
    result.duration_ms = to_millis(result.report.total_duration());
  }
  if (bed.delays().delays_ms().count() > 0) {
    result.delay_p50_ms = bed.delays().delays_ms().percentile(50);
    result.delay_p99_ms = bed.delays().delays_ms().percentile(99);
  }

  // The per-second delay curve: steady state is the mean of the bins fully
  // before the migration, the spike is the worst bin in the window after it.
  const SimTime migrate_at = start + seconds(kMigrateAtSec);
  double steady_sum = 0.0;
  std::size_t steady_bins = 0;
  for (const auto& bin : bed.delays().series()->bins()) {
    SeriesPoint point;
    point.t_s = to_seconds(bin.start - start);
    point.mean_ms = bin.stats.count() > 0 ? bin.stats.mean() : 0.0;
    point.max_ms = bin.stats.count() > 0 ? bin.stats.max() : 0.0;
    point.count = bin.stats.count();
    result.series.push_back(point);
    if (bin.stats.count() == 0) continue;
    if (bin.start + seconds(1) <= migrate_at) {
      steady_sum += bin.stats.mean();
      ++steady_bins;
    } else if (bin.start < migrate_at + seconds(kSpikeWindowSec)) {
      result.spike_ms = std::max(result.spike_ms, bin.stats.max());
    }
  }
  if (steady_bins > 0) result.steady_ms = steady_sum / steady_bins;

  result.audit = harness::verify_exactly_once(bed);
  return result;
}

void print_tables(const std::vector<RunResult>& results) {
  using namespace esh;
  bench::print_header(
      "Migration strategies: one M slice migrates at t=10 s under 300 "
      "pub/s (20 K subscriptions)");
  bench::print_row({"strategy", "bytes", "transfer", "precopy", "duplicate",
                    "down (ms)", "total", "steady", "spike", "exact-1x"},
                   12);
  for (const RunResult& r : results) {
    bench::print_row(
        {std::string(r.strategy->name()),
         std::to_string(r.report.bytes_shipped()),
         std::to_string(r.report.transfer_bytes),
         std::to_string(r.report.precopy_bytes),
         std::to_string(r.report.duplicate_bytes),
         bench::fmt(r.downtime_ms, 2), bench::fmt(r.duration_ms, 1),
         bench::fmt(r.steady_ms, 1), bench::fmt(r.spike_ms, 1),
         r.audit.exactly_once() ? "yes" : "NO"},
        12);
  }
  std::printf(
      "\n  stop-and-restart ships one checkpoint and nothing else (fewest\n"
      "  bytes) but the slice is stopped for the whole transfer;\n"
      "  incremental pre-copy ships the image while the source serves and\n"
      "  stops only for the residual delta (shortest stop); buffered\n"
      "  replay also freezes across the full transfer, paying mirror\n"
      "  duplicates on top of the checkpoint.\n");
}

void print_json(const std::vector<RunResult>& results) {
  std::printf("{\n  \"benchmark\": \"fig_migration_strategies\",\n"
              "  \"rate_pub_per_sec\": %.0f,\n  \"window_s\": %zu,\n"
              "  \"migrate_at_s\": %zu,\n  \"strategies\": [",
              kRate, kWindowSec, kMigrateAtSec);
  bool first = true;
  for (const RunResult& r : results) {
    std::printf(
        "%s\n    {\"strategy\": \"%s\", \"outcome\": \"%s\",\n"
        "     \"bytes_shipped\": %zu, \"transfer_bytes\": %zu, "
        "\"precopy_bytes\": %zu, \"duplicate_bytes\": %zu, "
        "\"state_bytes\": %zu,\n"
        "     \"downtime_ms\": %.3f, \"duration_ms\": %.3f, "
        "\"delay_steady_ms\": %.2f, \"delay_spike_ms\": %.2f, "
        "\"delay_p50_ms\": %.2f, \"delay_p99_ms\": %.2f, \"drained\": %s,\n"
        "     \"audit\": {\"published\": %llu, \"delivered\": %llu, "
        "\"missing\": %llu, \"duplicated\": %llu, \"mismatched\": %llu, "
        "\"exactly_once\": %s},\n     \"series\": [",
        first ? "" : ",", std::string(r.strategy->name()).c_str(),
        r.report.outcome == esh::engine::MigrationOutcome::kCompleted
            ? "completed"
            : "not-completed",
        r.report.bytes_shipped(), r.report.transfer_bytes,
        r.report.precopy_bytes, r.report.duplicate_bytes,
        r.report.state_bytes, r.downtime_ms, r.duration_ms, r.steady_ms,
        r.spike_ms, r.delay_p50_ms, r.delay_p99_ms,
        r.drained ? "true" : "false",
        static_cast<unsigned long long>(r.audit.published),
        static_cast<unsigned long long>(r.audit.delivered),
        static_cast<unsigned long long>(r.audit.missing),
        static_cast<unsigned long long>(r.audit.duplicated),
        static_cast<unsigned long long>(r.audit.mismatched),
        r.audit.exactly_once() ? "true" : "false");
    bool first_point = true;
    for (const SeriesPoint& p : r.series) {
      std::printf("%s{\"t_s\": %.0f, \"mean_ms\": %.2f, \"max_ms\": %.2f, "
                  "\"count\": %llu}",
                  first_point ? "" : ", ", p.t_s, p.mean_ms, p.max_ms,
                  static_cast<unsigned long long>(p.count));
      first_point = false;
    }
    std::printf("]}");
    first = false;
  }
  std::printf("]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = esh::bench::parse_flag(argc, argv, "--json");
  std::vector<RunResult> results;
  for (const esh::engine::MigrationStrategy* strategy :
       esh::engine::migration_strategies()) {
    if (!json) std::printf("running: %s ...\n",
                           std::string(strategy->name()).c_str());
    results.push_back(run_one(*strategy));
  }
  if (json) {
    print_json(results);
  } else {
    print_tables(results);
  }
  // The tradeoff ordering is the point of the sweep; a run that loses it
  // (or loses a notification) fails the snapshot.
  const RunResult* br = nullptr;
  const RunResult* sr = nullptr;
  const RunResult* pc = nullptr;
  for (const RunResult& r : results) {
    switch (r.strategy->kind()) {
      case esh::engine::MigrationStrategyKind::kBufferedReplay: br = &r; break;
      case esh::engine::MigrationStrategyKind::kStopAndRestart: sr = &r; break;
      case esh::engine::MigrationStrategyKind::kIncrementalPrecopy:
        pc = &r;
        break;
    }
  }
  bool ok = br != nullptr && sr != nullptr && pc != nullptr;
  for (const RunResult& r : results) {
    ok = ok && r.drained && r.audit.exactly_once() &&
         r.report.outcome == esh::engine::MigrationOutcome::kCompleted;
  }
  if (ok) {
    ok = sr->report.bytes_shipped() < br->report.bytes_shipped() &&
         sr->report.bytes_shipped() < pc->report.bytes_shipped() &&
         pc->downtime_ms < br->downtime_ms && pc->downtime_ms < sr->downtime_ms;
  }
  return ok ? 0 : 2;
}
