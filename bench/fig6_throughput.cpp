// Figure 6 (top): maximal throughput of static configurations of 2 to 12
// engine hosts with 100 K stored subscriptions (d = 4 ASPE). The paper
// reports perfectly linear scaling up to 422 publications/s at 12 hosts
// (42.2 M encrypted filtering operations and 422 K notifications per
// second).
//
// Method: drive each configuration well past saturation and measure the
// completed-publication rate at the sink; the bottleneck (M operator)
// capacity is the sustained completion rate.
#include <cstdio>

#include "bench_common.hpp"
#include "workload/schedule.hpp"

namespace {

double measure_max_throughput(std::size_t hosts) {
  using namespace esh;
  auto config = bench::paper_config(hosts);
  harness::Testbed bed{config};
  bed.store_subscriptions(config.workload.total_subscriptions);

  // Expected ceiling from the cost model: the M host carrying the most
  // slices bounds the throughput (16 slices spread over hosts/2 M hosts).
  const std::size_t m_hosts = hosts / 2;
  const std::size_t worst_slices = (16 + m_hosts - 1) / m_hosts;
  const double per_pub_core_us =
      static_cast<double>(worst_slices) *
      (static_cast<double>(config.workload.total_subscriptions) / 16.0) *
      config.engine.cost.aspe_match_units(4);
  const double estimate = 8.0 * 1e6 / per_pub_core_us;

  // Saturate: offer 1.5x the estimate, measure completions in steady state.
  const double offered = estimate * 1.5;
  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(offered, seconds(40)));
  bed.run_for(seconds(15));  // warm-up, queues filling
  bed.delays().reset_counts();
  bed.run_for(seconds(20));
  const double completed =
      static_cast<double>(bed.delays().publications_completed()) / 20.0;
  driver->stop();
  return completed;
}

}  // namespace

int main(int argc, char** argv) {
  esh::bench::parse_flag(argc, argv);
  using namespace esh;
  bench::print_header(
      "Figure 6 (top): max throughput vs engine hosts, 100 K subscriptions");
  bench::print_row({"hosts", "pubs/s", "Mops/s", "notif/s", "pubs/s/host"});
  double first_rate = 0.0;
  std::size_t first_hosts = 0;
  for (std::size_t hosts : {2, 4, 6, 8, 10, 12}) {
    const double rate = measure_max_throughput(hosts);
    if (first_hosts == 0) {
      first_hosts = hosts;
      first_rate = rate;
    }
    bench::print_row({std::to_string(hosts), bench::fmt(rate, 1),
                      bench::fmt(rate * 100'000 / 1e6, 1),
                      bench::fmt(rate * 1000, 0),
                      bench::fmt(rate / static_cast<double>(hosts), 1)});
  }
  std::printf(
      "\nPaper: linear scaling, 422 pub/s at 12 hosts (42.2 M encrypted\n"
      "matching operations/s, 422 K notifications/s).\n");
  (void)first_rate;
  (void)first_hosts;
  return 0;
}
