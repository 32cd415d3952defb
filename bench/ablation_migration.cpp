// Ablations around the migration mechanism (DESIGN.md):
//  (a) migration cost vs state size: total time, service interruption and
//      worst delay spike as the per-M-slice subscription count grows —
//      isolating the fixed (replica/library init, control rounds) and
//      variable (serialize/transfer/deserialize) components behind
//      Table I's sub-linear growth;
//  (b) output batching (flush interval) vs steady-state delay: the
//      pipelining design choice that trades per-message overhead against
//      the notification delay floor.
#include <cstdio>
#include <memory>
#include <optional>

#include "bench_common.hpp"
#include "workload/schedule.hpp"

namespace {

using namespace esh;

harness::TestbedConfig base_config(std::size_t subs) {
  auto config = bench::paper_config(8, subs);
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

void state_size_sweep() {
  bench::print_header(
      "Ablation (a): M-slice migration cost vs state size, 100 pub/s");
  bench::print_row({"subs/slice", "state MB", "total ms", "interrupt ms",
                    "delay max ms"},
                   14);
  for (std::size_t per_slice : {3125u, 6250u, 12'500u, 25'000u, 50'000u}) {
    const std::size_t total_subs = per_slice * 8;
    auto config = base_config(total_subs);
    harness::Testbed bed{config};
    bed.store_subscriptions(total_subs);
    // 40 pub/s keeps even the 50 K-per-slice point below saturation, so
    // the sweep isolates migration cost from queueing collapse.
    auto driver = bed.drive(
        std::make_shared<workload::ConstantRate>(40.0, seconds(10'000)));
    bed.run_for(seconds(10));
    bed.delays().enable_series(seconds(5));

    const SliceId slice = bed.hub().slices_of("M")[0];
    const HostId dst = bed.worker_hosts()[0];  // an AP host
    std::optional<engine::ElasticReport> report;
    bed.engine().migrate(slice, dst, [&](const engine::ElasticReport& r) {
      report = r;
    });
    bed.run_until([&] { return report.has_value(); }, seconds(120));
    bed.run_for(seconds(15));  // observe the recovery
    driver->stop();

    double max_delay = 0.0;
    for (const auto& bin : bed.delays().series()->bins()) {
      max_delay = std::max(max_delay, bin.stats.max());
    }
    bench::print_row(
        {std::to_string(per_slice),
         bench::fmt(static_cast<double>(report->state_bytes) / 1e6, 1),
         bench::fmt(to_millis(report->total_duration()), 0),
         bench::fmt(to_millis(report->interruption()), 0),
         bench::fmt(max_delay, 0)},
        14);
  }
  std::printf(
      "\nExpected: a fixed ~1.2 s floor (replica + library init + control\n"
      "rounds) plus a component linear in state (serialize + transfer +\n"
      "deserialize) -- the sub-linear growth of Table I.\n");
}

void flush_interval_sweep() {
  bench::print_header(
      "Ablation (b): output batching interval vs steady-state delay");
  bench::print_row({"flush ms", "min", "p50", "p90", "max"}, 10);
  for (int flush_ms : {25, 50, 100, 200}) {
    auto config = base_config(100'000);
    config.engine.flush_interval = millis(flush_ms);
    harness::Testbed bed{config};
    bed.store_subscriptions(100'000);
    auto driver = bed.drive(
        std::make_shared<workload::ConstantRate>(100.0, seconds(60)));
    bed.run_for(seconds(15));
    bed.delays().reset_counts();
    bed.run_for(seconds(40));
    driver->stop();
    const auto& d = bed.delays().delays_ms();
    const auto p = d.percentiles({0, 50, 90, 100});
    bench::print_row({std::to_string(flush_ms), bench::fmt(p[0], 0),
                      bench::fmt(p[1], 0), bench::fmt(p[2], 0),
                      bench::fmt(p[3], 0)},
                     10);
  }
  std::printf(
      "\nExpected: the delay floor scales with the per-hop batching\n"
      "interval (4 batched hops source->AP->M->EP->sink).\n");
}

}  // namespace

int main(int argc, char** argv) {
  esh::bench::parse_flag(argc, argv);
  state_size_sweep();
  flush_interval_sweep();
  return 0;
}
