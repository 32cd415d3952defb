// Figure 9 (final experiment, §VI-E): elastic scaling replaying the
// Frankfurt Stock Exchange tick trace, time-compressed and rescaled to a
// peak of 190 publications/s (19 M filtering operations and 19 K
// notifications per second at peak). The paper observes the host count
// following the daily activity between 1 and 8 hosts, the load envelope
// respected, and average notification delays below one second throughout.
#include <memory>

#include "bench_common.hpp"
#include "elastic_experiment.hpp"
#include "workload/schedule.hpp"

int main(int argc, char** argv) {
  esh::bench::parse_flag(argc, argv);
  using namespace esh;
  auto config = bench::paper_config(1);
  config.placement = nullptr;  // all slices start on one host
  config.iaas.max_hosts = 30;
  config.with_manager = true;

  workload::FrankfurtTrace::Config trace;
  trace.start_hour = 7.0;
  trace.end_hour = 20.5;
  trace.speedup = 20.0;
  trace.peak_rate = 190.0;
  trace.noise = 0.10;
  auto schedule = std::make_shared<workload::FrankfurtTrace>(trace);

  bench::run_elastic_experiment(
      "Figure 9: elastic scaling on the Frankfurt tick trace (compressed)",
      config, std::move(schedule), seconds(120));
  std::printf(
      "\nPaper: hosts range 1..8 following the trading day (open surge,\n"
      "afternoon spike, evening decline); loads inside the envelope;\n"
      "average delay below 1 s for the entire run.\n");
  return 0;
}
