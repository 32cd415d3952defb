// Figure 1: typical volume of ticks at the Frankfurt Stock Exchange over
// one trading day (2011-11-18 in the paper; shape-equivalent synthetic
// curve here — the real trace is proprietary, see DESIGN.md).
//
// Prints the tick rate in 5-minute bins over the day, plus a coarse ASCII
// sparkline so the open-surge / afternoon-spike / close-decline features
// are visible at a glance.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "workload/schedule.hpp"

int main(int argc, char** argv) {
  esh::bench::parse_flag(argc, argv);
  using namespace esh;
  bench::print_header("Figure 1: Frankfurt Stock Exchange tick volume");
  std::printf("%8s %12s  %s\n", "hour", "ticks/s", "");
  const double peak = workload::FrankfurtTrace::base_peak();
  for (int minutes = 0; minutes < 24 * 60; minutes += 15) {
    const double hour = minutes / 60.0;
    const double rate = workload::FrankfurtTrace::base_curve(hour);
    const int bar = static_cast<int>(rate / peak * 60.0);
    std::printf("%8s %12s  %s\n",
                (std::to_string(minutes / 60) + ":" +
                 (minutes % 60 < 10 ? "0" : "") + std::to_string(minutes % 60))
                    .c_str(),
                bench::fmt(rate, 0).c_str(), std::string(bar, '#').c_str());
  }
  std::printf(
      "\nFeatures reproduced: pre-market trickle from 8:00, surge at the\n"
      "9:00 open (peak %.0f ticks/s), afternoon spike ~15:30, decline\n"
      "after the 17:30 close.\n",
      peak);
  return 0;
}
