// Policy ablation: the paper's elasticity enforcer (global/local rules,
// subset-sum selection minimizing state transfer, First Fit Decreasing
// placement) against an EC2-AutoScaling-style threshold baseline (paper
// §II-A) on the same load ramp. Quantifies what the enforcer buys:
// fewer/cheaper migrations and a tighter utilization envelope at
// comparable fleet sizes.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "elastic/threshold_policy.hpp"
#include "workload/schedule.hpp"

namespace {

using namespace esh;

struct PolicyOutcome {
  std::size_t peak_hosts = 0;
  std::size_t migrations = 0;
  double state_moved_mb = 0.0;
  double cpu_band_fraction = 0.0;  // probe rounds with avg in [0.3, 0.7]
  double delay_p50 = 0.0;
  double delay_p99 = 0.0;
};

PolicyOutcome run(bool threshold_baseline) {
  auto config = bench::paper_config(1, 50'000);
  config.placement = nullptr;
  config.iaas.max_hosts = 30;
  config.with_manager = true;
  harness::Testbed bed{config};
  if (threshold_baseline) {
    elastic::ThresholdEnforcer baseline{elastic::ThresholdPolicyConfig{}};
    bed.manager()->set_policy(
        [baseline](const elastic::SystemView& view) mutable {
          return baseline.evaluate(view);
        });
  }
  bed.store_subscriptions(config.workload.total_subscriptions);
  bed.delays().reset_counts();

  auto schedule = std::make_shared<workload::TrapezoidRate>(
      250.0, seconds(250), seconds(150), seconds(250));
  auto driver = bed.drive(schedule);
  PolicyOutcome outcome;
  outcome.peak_hosts = 1;
  const SimTime start = bed.simulator().now();
  while (bed.simulator().now() - start < seconds(800)) {
    bed.run_for(seconds(10));
    outcome.peak_hosts =
        std::max(outcome.peak_hosts, bed.manager()->managed_host_count());
  }
  driver->stop();

  outcome.migrations = bed.manager()->migrations().size();
  for (const auto& report : bed.manager()->migrations()) {
    outcome.state_moved_mb += static_cast<double>(report.state_bytes) / 1e6;
  }
  std::size_t in_band = 0;
  const auto& history = bed.manager()->load_history();
  for (const auto& sample : history) {
    if (sample.avg_cpu >= 0.30 && sample.avg_cpu <= 0.70) ++in_band;
  }
  outcome.cpu_band_fraction =
      history.empty() ? 0.0
                      : static_cast<double>(in_band) /
                            static_cast<double>(history.size());
  if (bed.delays().delays_ms().count() > 0) {
    outcome.delay_p50 = bed.delays().delays_ms().percentile(50);
    outcome.delay_p99 = bed.delays().delays_ms().percentile(99);
  }
  return outcome;
}

void print(const char* label, const PolicyOutcome& o) {
  bench::print_row({label, std::to_string(o.peak_hosts),
                    std::to_string(o.migrations),
                    bench::fmt(o.state_moved_mb, 0),
                    bench::fmt(o.cpu_band_fraction * 100, 0),
                    bench::fmt(o.delay_p50, 0), bench::fmt(o.delay_p99, 0)},
                   12);
}

}  // namespace

int main(int argc, char** argv) {
  esh::bench::parse_flag(argc, argv);
  using namespace esh;
  bench::print_header(
      "Policy ablation: e-STREAMHUB enforcer vs threshold auto-scaler");
  bench::print_row({"policy", "peak hosts", "migrations", "state MB",
                    "in-band %", "p50 ms", "p99 ms"},
                   12);
  print("enforcer", run(false));
  print("threshold", run(true));
  std::printf(
      "\nExpected: the enforcer sizes the fleet toward the utilization\n"
      "target, so it tracks the ramp and keeps delays at steady-state\n"
      "levels; the fixed-step threshold scaler falls behind the load and\n"
      "lets queues (and delays) grow by orders of magnitude.\n");
  return 0;
}
