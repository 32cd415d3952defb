// Recovery experiment: cost of healing a faulty worker under constant
// publication load, across three fault shapes.
//
//   crash      the worker dies outright; the manager detects the silence,
//              quarantines the host, re-places the lost slices and replays
//              the logged suffixes. Run at two checkpoint intervals:
//              longer intervals retain longer logs, so the replay phase
//              and the delivery gap grow with the interval.
//   partition  the worker is cut off bidirectionally for longer than the
//              failure detector's conviction window. From the cluster's
//              point of view this is a crash (the host is declared dead
//              and quarantined; healing cannot resurrect it), so the same
//              MTTR breakdown applies — but the wire sees partition drops
//              instead of a dead endpoint.
//   gray       the worker's NIC slows down x4 without losing a message.
//              The latency-aware detector marks it suspect and the manager
//              drains it proactively (graceful degradation); reported as
//              the drain's detect / dwell / drain breakdown instead of a
//              recovery MTTR.
//
// Reported per scenario: the phase breakdown, the delivery gap (longest
// stretch without a single new publication completing, sampled every
// 50 ms), the oracle's exactly-once verdict and the NetworkStats counters
// (so the snapshot captures network health alongside latency). With
// --json the same data is emitted as a JSON document instead of tables.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/chaos.hpp"
#include "workload/schedule.hpp"

namespace {

struct Scenario {
  enum class Kind { kCrash, kPartition, kGray };
  std::string name;
  Kind kind = Kind::kCrash;
  esh::SimDuration checkpoint{};
};

struct RunResult {
  Scenario scenario;
  esh::SimTime fault_at{};
  esh::elastic::RecoveryReport report;  // crash / partition
  esh::elastic::DrainReport drain;      // gray
  double gap_ms = 0.0;
  bool healed = false;
  bool drained = false;
  esh::harness::DeliveryAudit audit;
  esh::net::NetworkStats net;
};

esh::harness::TestbedConfig recovery_config(const Scenario& scenario) {
  esh::harness::TestbedConfig config;
  config.worker_hosts = 4;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 5000;
  config.workload.matching_rate = 0.02;
  config.workload.m_slices = 4;
  config.source_slices = 2;
  config.ap_slices = 4;
  config.ep_slices = 4;
  config.sink_slices = 2;
  config.engine.flush_interval = esh::millis(10);
  config.engine.control_tick = esh::millis(5);
  config.engine.probe_interval = esh::millis(100);
  config.engine.checkpoints.enabled = true;
  config.engine.checkpoints.interval = scenario.checkpoint;
  // Orchestration rides the reliable control channel, so the MTTR numbers
  // hold under the injected faults by construction (retransmit counts land
  // in the network stats).
  config.engine.reliable_control = true;
  config.iaas.max_hosts = 8;
  config.iaas.boot_delay = esh::millis(500);
  config.with_manager = true;
  config.manager.recovery.enabled = true;
  config.manager.recovery.detector =
      esh::elastic::FailureDetectorConfig{esh::millis(100), 2, 4};
  config.manager.recovery.attempt_timeout = esh::seconds(5);
  if (scenario.kind == Scenario::Kind::kGray) {
    // The gray host never goes silent; only the latency score can convict
    // it, and sustained suspicion triggers the proactive drain. The dwell
    // is a full second so warm-up latency spikes (5000 subscriptions are
    // stored before the drive starts) clear before any drain is armed.
    config.manager.recovery.detector.latency_suspect_factor = 2.0;
    config.manager.recovery.drain_suspects = true;
    config.manager.recovery.drain_after = esh::seconds(1);
  }
  config.seed = 11;
  return config;
}

RunResult run_one(const Scenario& scenario) {
  using namespace esh;
  RunResult result;
  result.scenario = scenario;

  harness::Testbed bed{recovery_config(scenario)};
  bed.manager()->set_enforcement(false);
  bed.delays().enable_audit();
  bed.store_subscriptions(5000);

  const SimDuration window = seconds(30);
  const SimTime publish_start = bed.simulator().now();
  const SimTime fault_at = publish_start + seconds(15);
  result.fault_at = fault_at;
  const SimTime publish_end = publish_start + window;
  auto driver = bed.drive(std::make_shared<workload::ConstantRate>(
      300.0, window));

  harness::FaultSchedule schedule;
  switch (scenario.kind) {
    case Scenario::Kind::kCrash:
      schedule.crashes.push_back({fault_at, 1, 0.0, SimDuration{}});
      break;
    case Scenario::Kind::kPartition:
      // 2 s of isolation outlasts the conviction window (400 ms of
      // silence), so the host is declared dead mid-partition.
      schedule.partitions.push_back({fault_at, seconds(2), {1}});
      break;
    case Scenario::Kind::kGray:
      // Degraded until the end of the run: the drain must finish while the
      // slowdown is still active.
      schedule.gray_degrades.push_back({fault_at, SimDuration{}, 1, 4.0});
      break;
  }
  harness::ChaosRunner chaos{bed, schedule};
  chaos.arm();

  // Completion progress, sampled every 50 ms over the publication window:
  // the delivery gap is the longest stretch without any new completion.
  std::vector<SimTime> progress{publish_start};
  std::uint64_t completed = bed.delays().publications_completed();
  std::function<void()> sample = [&] {
    const auto now_completed = bed.delays().publications_completed();
    if (now_completed != completed) {
      completed = now_completed;
      progress.push_back(bed.simulator().now());
    }
    if (bed.simulator().now() < publish_end) {
      bed.simulator().schedule(millis(50), sample);
    }
  };
  bed.simulator().schedule(millis(50), sample);

  // The drain that answers the gray scenario: the degraded worker itself,
  // convicted after the fault fired (a warm-up suspicion of some other
  // host must not satisfy the wait).
  const HostId gray_host = bed.worker_hosts()[1];
  const auto gray_drain = [&]() -> const elastic::DrainReport* {
    for (const elastic::DrainReport& d : bed.manager()->drains()) {
      if (d.host == gray_host && d.suspected >= fault_at) return &d;
    }
    return nullptr;
  };
  if (scenario.kind == Scenario::Kind::kGray) {
    result.healed = bed.run_until(
        [&] {
          const elastic::DrainReport* d = gray_drain();
          return d != nullptr && (d->complete || d->aborted);
        },
        seconds(60));
  } else {
    result.healed = bed.run_until(
        [&] {
          return !bed.manager()->recoveries().empty() &&
                 !bed.manager()->recovery_in_progress();
        },
        seconds(60));
  }
  result.drained = bed.run_until(
      [&] {
        return bed.simulator().now() > publish_end &&
               bed.delays().publications_completed() >=
                   bed.hub().publications_sent();
      },
      seconds(120));
  driver->stop();

  if (!bed.manager()->recoveries().empty()) {
    result.report = bed.manager()->recoveries().front();
  }
  if (const elastic::DrainReport* d = gray_drain()) {
    result.drain = *d;
  }
  SimDuration gap{};
  for (std::size_t i = 1; i < progress.size(); ++i) {
    gap = std::max(gap, progress[i] - progress[i - 1]);
  }
  result.gap_ms = to_millis(gap);
  result.audit = harness::verify_exactly_once(bed);
  result.net = bed.network().stats();
  return result;
}

// Phase breakdown, unified over the two report shapes: for crash/partition
// the RecoveryReport's detect / quarantine / place / replay, for gray the
// DrainReport's detect / dwell(=drain_after) / 0 / drain.
struct Phases {
  double detect_ms = 0, second_ms = 0, third_ms = 0, fourth_ms = 0;
  double total_ms = 0;
  std::size_t slices = 0;
  bool complete = false;
};

Phases phases_of(const RunResult& r) {
  using namespace esh;
  Phases p;
  if (r.scenario.kind == Scenario::Kind::kGray) {
    p.complete = r.healed && r.drain.complete;
    if (!p.complete) return p;
    p.detect_ms = to_millis(r.drain.suspected - r.fault_at);
    p.second_ms = to_millis(r.drain.started - r.drain.suspected);
    p.third_ms = 0.0;
    p.fourth_ms = to_millis(r.drain.completed - r.drain.started);
    p.total_ms = to_millis(r.drain.completed - r.fault_at);
    p.slices = r.drain.slices_moved;
    return p;
  }
  p.complete = r.healed && r.report.complete;
  if (!p.complete) return p;
  p.detect_ms = to_millis(r.report.detected - r.fault_at);
  p.second_ms = to_millis(r.report.quarantined - r.report.detected);
  p.third_ms = to_millis(r.report.placed - r.report.quarantined);
  p.fourth_ms = to_millis(r.report.recovered - r.report.placed);
  p.total_ms = to_millis(r.report.mttr());
  p.slices = r.report.slices_recovered;
  return p;
}

void print_tables(const std::vector<RunResult>& results) {
  using namespace esh;
  bench::print_header(
      "Recovery: phase breakdown per fault scenario (worker fault under "
      "300 pub/s)");
  bench::print_row({"scenario", "ckpt (s)", "detect", "phase2", "phase3",
                    "phase4", "total (ms)", "gap (ms)", "slices", "exact-1x"},
                   11);
  for (const RunResult& r : results) {
    const Phases p = phases_of(r);
    if (!p.complete) {
      std::printf("  %s: recovery did not complete\n",
                  r.scenario.name.c_str());
      continue;
    }
    bench::print_row(
        {r.scenario.name,
         bench::fmt(to_millis(r.scenario.checkpoint) / 1000.0, 0),
         bench::fmt(p.detect_ms, 0), bench::fmt(p.second_ms, 0),
         bench::fmt(p.third_ms, 0), bench::fmt(p.fourth_ms, 0),
         bench::fmt(p.total_ms, 0), bench::fmt(r.gap_ms, 0),
         std::to_string(p.slices), r.audit.exactly_once() ? "yes" : "NO"},
        11);
    std::printf(
        "    published %llu  delivered %llu  missing %llu  duplicated %llu"
        "  mismatched %llu  drained %s\n",
        static_cast<unsigned long long>(r.audit.published),
        static_cast<unsigned long long>(r.audit.delivered),
        static_cast<unsigned long long>(r.audit.missing),
        static_cast<unsigned long long>(r.audit.duplicated),
        static_cast<unsigned long long>(r.audit.mismatched),
        r.drained ? "yes" : "no");
    std::printf(
        "    net: sent %llu delivered %llu dropped %llu lost %llu"
        " duplicated %llu reordered %llu retransmitted %llu partitioned"
        " %llu\n",
        static_cast<unsigned long long>(r.net.messages_sent),
        static_cast<unsigned long long>(r.net.messages_delivered),
        static_cast<unsigned long long>(r.net.messages_dropped),
        static_cast<unsigned long long>(r.net.messages_lost),
        static_cast<unsigned long long>(r.net.messages_duplicated),
        static_cast<unsigned long long>(r.net.messages_reordered),
        static_cast<unsigned long long>(r.net.messages_retransmitted),
        static_cast<unsigned long long>(r.net.messages_partitioned));
  }
  std::printf(
      "\n  crash/partition phases: detect quarantine place replay;"
      " gray phases: detect dwell - drain\n");
}

void print_json(const std::vector<RunResult>& results) {
  using namespace esh;
  std::printf("{\n  \"benchmark\": \"fig_recovery\",\n"
              "  \"rate_pub_per_sec\": 300.0,\n  \"scenarios\": [");
  bool first = true;
  for (const RunResult& r : results) {
    const Phases p = phases_of(r);
    std::printf("%s\n    {\"scenario\": \"%s\", \"checkpoint_s\": %.0f, "
                "\"healed\": %s, \"drained\": %s, \"complete\": %s",
                first ? "" : ",", r.scenario.name.c_str(),
                to_millis(r.scenario.checkpoint) / 1000.0,
                r.healed ? "true" : "false", r.drained ? "true" : "false",
                p.complete ? "true" : "false");
    first = false;
    if (p.complete) {
      const bool gray = r.scenario.kind == Scenario::Kind::kGray;
      std::printf(",\n     \"phases_ms\": {\"detect\": %.1f, \"%s\": %.1f, "
                  "\"%s\": %.1f, \"%s\": %.1f},\n"
                  "     \"total_ms\": %.1f, \"gap_ms\": %.1f, "
                  "\"slices\": %zu",
                  p.detect_ms, gray ? "dwell" : "quarantine", p.second_ms,
                  gray ? "idle" : "place", p.third_ms,
                  gray ? "drain" : "replay", p.fourth_ms, p.total_ms,
                  r.gap_ms, p.slices);
    }
    std::printf(",\n     \"audit\": {\"published\": %llu, \"delivered\": "
                "%llu, \"missing\": %llu, \"duplicated\": %llu, "
                "\"mismatched\": %llu, \"exactly_once\": %s}",
                static_cast<unsigned long long>(r.audit.published),
                static_cast<unsigned long long>(r.audit.delivered),
                static_cast<unsigned long long>(r.audit.missing),
                static_cast<unsigned long long>(r.audit.duplicated),
                static_cast<unsigned long long>(r.audit.mismatched),
                r.audit.exactly_once() ? "true" : "false");
    std::printf(",\n     \"network\": {\"sent\": %llu, \"delivered\": %llu, "
                "\"dropped\": %llu, \"lost\": %llu, \"duplicated\": %llu, "
                "\"reordered\": %llu, \"corrupted\": %llu, "
                "\"retransmitted\": %llu, \"partitioned\": %llu}}",
                static_cast<unsigned long long>(r.net.messages_sent),
                static_cast<unsigned long long>(r.net.messages_delivered),
                static_cast<unsigned long long>(r.net.messages_dropped),
                static_cast<unsigned long long>(r.net.messages_lost),
                static_cast<unsigned long long>(r.net.messages_duplicated),
                static_cast<unsigned long long>(r.net.messages_reordered),
                static_cast<unsigned long long>(r.net.messages_corrupted),
                static_cast<unsigned long long>(r.net.messages_retransmitted),
                static_cast<unsigned long long>(r.net.messages_partitioned));
  }
  std::printf("]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = esh::bench::parse_flag(argc, argv, "--json");
  using namespace esh;
  const std::vector<Scenario> scenarios{
      {"crash-ckpt-2s", Scenario::Kind::kCrash, seconds(2)},
      {"crash-ckpt-10s", Scenario::Kind::kCrash, seconds(10)},
      {"partition", Scenario::Kind::kPartition, seconds(2)},
      {"gray-drain", Scenario::Kind::kGray, seconds(2)},
  };
  std::vector<RunResult> results;
  for (const Scenario& scenario : scenarios) {
    if (!json) std::printf("running: %s ...\n", scenario.name.c_str());
    results.push_back(run_one(scenario));
  }
  if (json) {
    print_json(results);
  } else {
    print_tables(results);
  }
  bool ok = true;
  for (const RunResult& r : results) {
    ok = ok && r.healed && r.drained && r.audit.exactly_once();
  }
  return ok ? 0 : 2;
}
