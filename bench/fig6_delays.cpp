// Figure 6 (bottom): notification delay distribution per static
// configuration, at an incoming rate of half the configuration's maximal
// throughput (the elasticity policy's target load). The paper reports
// stacked percentiles; e.g. at 12 hosts the minimum is 55 ms and 75 % of
// publications complete within 247 ms.
#include <cstdio>

#include "bench_common.hpp"
#include "workload/schedule.hpp"

int main(int argc, char** argv) {
  esh::bench::parse_flag(argc, argv);
  using namespace esh;
  bench::print_header(
      "Figure 6 (bottom): delay percentiles at 50% of max throughput (ms)");
  bench::print_row(
      {"hosts", "min", "p25", "p50", "p75", "p90", "p99", "max"}, 9);
  for (std::size_t hosts : {2, 4, 6, 8, 10, 12}) {
    auto config = bench::paper_config(hosts);
    harness::Testbed bed{config};
    bed.store_subscriptions(config.workload.total_subscriptions);

    const std::size_t m_hosts = hosts / 2;
    const std::size_t worst_slices = (16 + m_hosts - 1) / m_hosts;
    const double per_pub_core_us =
        static_cast<double>(worst_slices) *
        (static_cast<double>(config.workload.total_subscriptions) / 16.0) *
        config.engine.cost.aspe_match_units(4);
    const double max_rate = 8.0 * 1e6 / per_pub_core_us;
    const double rate = max_rate / 2.0;

    auto driver =
        bed.drive(std::make_shared<workload::ConstantRate>(rate, seconds(75)));
    bed.run_for(seconds(15));  // reach steady state
    bed.delays().reset_counts();
    bed.run_for(seconds(60));
    driver->stop();
    bed.run_for(seconds(5));

    const auto& delays = bed.delays().delays_ms();
    if (delays.count() == 0) {
      bench::print_row({std::to_string(hosts), "-"}, 9);
      continue;
    }
    const auto p = delays.percentiles({0, 25, 50, 75, 90, 99, 100});
    bench::print_row({std::to_string(hosts), bench::fmt(p[0], 0),
                      bench::fmt(p[1], 0), bench::fmt(p[2], 0),
                      bench::fmt(p[3], 0), bench::fmt(p[4], 0),
                      bench::fmt(p[5], 0), bench::fmt(p[6], 0)},
                     9);
  }
  std::printf(
      "\nPaper (12 hosts): min 55 ms, p75 247 ms; distribution stable\n"
      "across configurations at the 50%% operating point.\n");
  return 0;
}
