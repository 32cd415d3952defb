// Shared helpers for the experiment-reproduction binaries: paper-scale
// testbed configurations and table printing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "harness/testbed.hpp"

namespace esh::bench {

// The paper's worker layout (§VI-C): twice as many hosts for the M
// operator as for each of AP and EP; with 2 hosts, AP and EP share one.
inline pubsub::HostAssignment paper_layout(const std::vector<HostId>& workers) {
  pubsub::HostAssignment assignment;
  const std::size_t n = workers.size();
  if (n == 1) {
    assignment["AP"] = workers;
    assignment["M"] = workers;
    assignment["EP"] = workers;
    return assignment;
  }
  const std::size_t m_hosts = std::max<std::size_t>(1, n / 2);
  const std::size_t rest = n - m_hosts;
  const std::size_t ap_hosts = (rest + 1) / 2;
  std::vector<HostId> m(workers.end() - static_cast<std::ptrdiff_t>(m_hosts),
                        workers.end());
  std::vector<HostId> ap(workers.begin(), workers.begin() + ap_hosts);
  std::vector<HostId> ep(workers.begin() + ap_hosts,
                         workers.begin() + rest);
  if (ep.empty()) ep = ap;  // with 2 hosts, AP and EP share one (paper §VI-C)
  assignment["AP"] = std::move(ap);
  assignment["EP"] = std::move(ep);
  assignment["M"] = std::move(m);
  return assignment;
}

// Paper-scale testbed (§VI-A/B): d = 4 ASPE, 100 K subscriptions at 1 %
// matching rate, 8/16/8 AP/M/EP slices, 4 source + 4 sink slices on
// dedicated hosts, 8-core Xeon-class workers.
inline harness::TestbedConfig paper_config(std::size_t worker_hosts,
                                           std::size_t subscriptions =
                                               100'000) {
  harness::TestbedConfig config;
  config.worker_hosts = worker_hosts;
  config.io_hosts = 4;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = subscriptions;
  config.workload.matching_rate = 0.01;
  config.workload.m_slices = 16;
  config.ap_slices = 8;
  config.ep_slices = 8;
  config.source_slices = 4;
  config.sink_slices = 4;
  config.engine.probe_interval = seconds(5);
  config.placement = paper_layout;
  config.seed = 2014;
  return config;
}

// Accepts no argument but `flag` (none at all when it is empty) and says
// whether it was given. Anything else prints a usage line and exits 2: a
// stale or misspelt flag must fail loudly instead of running the default
// configuration.
inline bool parse_flag(int argc, char** argv, std::string_view flag = {}) {
  bool given = false;
  for (int i = 1; i < argc; ++i) {
    if (flag.empty() || argv[i] != flag) {
      const std::string usage =
          flag.empty() ? "" : " [" + std::string{flag} + "]";
      std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s%s\n",
                   argv[0], argv[i], argv[0], usage.c_str());
      std::exit(2);
    }
    given = true;
  }
  return given;
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 1) {
  return format_double(v, precision);
}

}  // namespace esh::bench
