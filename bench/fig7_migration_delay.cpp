// Figure 7: impact of migrations on notification delays. Same layout as
// Table I with 100 K stored subscriptions and a constant 100 pub/s flow;
// two AP slices, then two M slices, then one EP slice migrate at fixed
// times. The paper observes a steady-state delay around 500 ms rising to
// less than two seconds around the M migrations.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "workload/schedule.hpp"

int main() {
  using namespace esh;
  auto config = bench::paper_config(8, 100'000);
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
  harness::Testbed bed{config};
  bed.store_subscriptions(100'000);
  bed.delays().enable_series(seconds(5));

  auto driver = bed.drive(
      std::make_shared<workload::ConstantRate>(100.0, seconds(280)));

  struct PlannedMigration {
    SimTime at;
    const char* op;
    std::size_t index;
  };
  const std::vector<PlannedMigration> plan{
      {seconds(60), "AP", 0},  {seconds(85), "AP", 1},
      {seconds(115), "M", 0},  {seconds(155), "M", 1},
      {seconds(200), "EP", 0},
  };
  const auto workers = bed.worker_hosts();
  std::vector<std::pair<SimTime, std::string>> markers;
  for (const auto& planned : plan) {
    bed.simulator().schedule_at(planned.at, [&bed, &markers, planned,
                                             workers] {
      const SliceId slice = bed.hub().slices_of(planned.op)[planned.index];
      const HostId src = bed.engine().slice_host(slice);
      // Deterministic "other host": next worker in the ring.
      HostId dst = src;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (workers[i] == src) {
          dst = workers[(i + 1) % workers.size()];
          break;
        }
      }
      bed.engine().migrate(slice, dst, [&markers, planned](
                                            const engine::ElasticReport& r) {
        markers.emplace_back(
            r.finished,
            std::string(planned.op) + ":" + std::to_string(planned.index) +
                " done, total " +
                format_double(to_millis(r.total_duration()), 0) + " ms");
      });
      markers.emplace_back(planned.at, std::string("migrate ") + planned.op +
                                           ":" +
                                           std::to_string(planned.index));
    });
  }

  bed.run_for(seconds(290));
  driver->stop();

  bench::print_header("Figure 7: notification delay around migrations (ms)");
  bench::print_row({"t (s)", "avg", "std", "min", "max"}, 10);
  const auto* series = bed.delays().series();
  std::size_t marker = 0;
  for (const auto& bin : series->bins()) {
    while (marker < markers.size() && markers[marker].first < bin.start) {
      std::printf("    >>> %s\n", markers[marker].second.c_str());
      ++marker;
    }
    bench::print_row({bench::fmt(to_seconds(bin.start), 0),
                      bench::fmt(bin.stats.mean(), 0),
                      bench::fmt(bin.stats.stddev(), 0),
                      bench::fmt(bin.stats.min(), 0),
                      bench::fmt(bin.stats.max(), 0)},
                     10);
  }
  while (marker < markers.size()) {
    std::printf("    >>> %s\n", markers[marker].second.c_str());
    ++marker;
  }
  std::printf(
      "\nPaper: steady state ~500 ms; spikes below 2 s around the M-slice\n"
      "migrations; AP/EP migrations barely visible.\n");
  return 0;
}
