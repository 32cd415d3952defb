// Shared runner for the full elastic-scaling experiments (Figures 8 and
// 9): drives a rate schedule against a manager-governed deployment and
// prints, per 30-second period, the publication rate, active host count,
// host CPU envelope (min/avg/max) and notification delays — the four plots
// of the paper's Figures 8 and 9.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "workload/schedule.hpp"

namespace esh::bench {

struct ElasticOutcome {
  std::size_t peak_hosts = 0;
  std::size_t final_hosts = 0;
  std::size_t migrations = 0;
  double delay_p50_ms = 0.0;
  double delay_p99_ms = 0.0;
};

inline ElasticOutcome run_elastic_experiment(
    const std::string& title, harness::TestbedConfig config,
    std::shared_ptr<const workload::RateSchedule> schedule,
    SimDuration tail = seconds(180)) {
  config.with_manager = true;
  harness::Testbed bed{config};
  bed.store_subscriptions(config.workload.total_subscriptions);
  bed.delays().enable_series(seconds(30));
  bed.delays().reset_counts();

  const SimDuration total = schedule->duration() + tail;
  auto driver = bed.drive(std::move(schedule));

  print_header(title);
  print_row({"t(s)", "pub/s", "hosts", "cpu-min", "cpu-avg", "cpu-max",
             "delay-avg", "delay-max"},
            10);

  ElasticOutcome outcome;
  outcome.peak_hosts = 1;
  std::uint64_t last_sent = bed.hub().publications_sent();
  const SimTime start = bed.simulator().now();
  std::size_t delay_bins_printed = 0;
  while (bed.simulator().now() - start < total) {
    bed.run_for(seconds(30));
    const std::uint64_t sent = bed.hub().publications_sent();
    const double rate = static_cast<double>(sent - last_sent) / 30.0;
    last_sent = sent;

    const auto* manager = bed.manager();
    outcome.peak_hosts =
        std::max(outcome.peak_hosts, manager->managed_host_count());
    // CPU envelope over the probe rounds of this period.
    double cmin = 1.0, cavg = 0.0, cmax = 0.0;
    std::size_t rounds = 0;
    const SimTime period_start = bed.simulator().now() - seconds(30);
    for (auto it = manager->load_history().rbegin();
         it != manager->load_history().rend() && it->time >= period_start;
         ++it) {
      cmin = std::min(cmin, it->min_cpu);
      cmax = std::max(cmax, it->max_cpu);
      cavg += it->avg_cpu;
      ++rounds;
    }
    if (rounds > 0) {
      cavg /= static_cast<double>(rounds);
    } else {
      cmin = 0.0;
    }

    // Delay stats of the latest completed series bin.
    const auto* series = bed.delays().series();
    double davg = 0.0, dmax = 0.0;
    if (series != nullptr && series->bins().size() > delay_bins_printed) {
      const auto& bin = series->bins()[delay_bins_printed];
      davg = bin.stats.mean();
      dmax = bin.stats.max();
      ++delay_bins_printed;
    }

    print_row({fmt(to_seconds(bed.simulator().now() - start), 0),
               fmt(rate, 0), std::to_string(manager->managed_host_count()),
               fmt(cmin * 100, 0), fmt(cavg * 100, 0), fmt(cmax * 100, 0),
               fmt(davg, 0), fmt(dmax, 0)},
              10);
  }
  driver->stop();

  outcome.final_hosts = bed.manager()->managed_host_count();
  outcome.migrations = bed.manager()->migrations().size();
  if (bed.delays().delays_ms().count() > 0) {
    outcome.delay_p50_ms = bed.delays().delays_ms().percentile(50);
    outcome.delay_p99_ms = bed.delays().delays_ms().percentile(99);
  }
  std::printf(
      "\nSummary: peak hosts %zu, final hosts %zu, migrations %zu,\n"
      "median delay %.0f ms, p99 delay %.0f ms, publications %llu,\n"
      "notifications %llu\n",
      outcome.peak_hosts, outcome.final_hosts, outcome.migrations,
      outcome.delay_p50_ms, outcome.delay_p99_ms,
      static_cast<unsigned long long>(bed.delays().publications_completed()),
      static_cast<unsigned long long>(bed.delays().notifications()));
  return outcome;
}

}  // namespace esh::bench
