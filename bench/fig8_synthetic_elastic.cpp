// Figure 8: elastic scaling under a synthetic workload. The system starts
// on a single host running all 32 slices with 100 K stored encrypted
// subscriptions; the publication rate ramps to 350/s, holds, and ramps
// back to zero. The paper observes the host count growing to ~15 and back,
// host CPU staying within a 40-70 % envelope around the 50 % target, and
// delays remaining stable except around the first 1 -> 2 host migration.
#include <memory>

#include "bench_common.hpp"
#include "elastic_experiment.hpp"
#include "workload/schedule.hpp"

int main(int argc, char** argv) {
  esh::bench::parse_flag(argc, argv);
  using namespace esh;
  auto config = bench::paper_config(1);
  config.placement = nullptr;  // all 32 slices start on the single host
  config.iaas.max_hosts = 30;
  config.with_manager = true;

  auto schedule = std::make_shared<workload::TrapezoidRate>(
      350.0, seconds(500), seconds(250), seconds(500));
  bench::run_elastic_experiment(
      "Figure 8: elastic scaling, synthetic ramp to 350 pub/s", config,
      std::move(schedule));
  std::printf(
      "\nPaper: hosts 1 -> ~15 -> 1; load within the 40-70%% envelope\n"
      "around the 50%% target; delays stable, worst spike at the initial\n"
      "1 -> 2 host migration.\n");
  return 0;
}
