// End-to-end benchmark of the e-STREAMHUB simulation: one process runs one
// workload and prints every metric by name and unit, with a JSON object as
// the last line of standard output.
//
//   e2e --workload <kernels-churn|elastic-ramp> --seed <n>
//       --seconds <s> --trace <0|1> [--threads <n>] [--trace-file <path>]
//
// The benchmark assembles the deployment itself from the same public
// constructors and calls harness::Testbed uses, and times the system only
// from outside: around its calls into the simulator, the pub/sub API and the
// workload generators, and -- in the traced run -- through a decorator that
// wraps each M slice's filter::Matcher.
//
// A workload runs in passes. Each pass builds a fresh deployment, stores the
// subscriptions and warms up (set-up), then runs the workload's model window,
// a fixed span of virtual time, as its timed window and drains. Publishing
// is open loop in virtual time, so the simulated system never slows the
// generator. The simulation is a function of the seed, so every pass of a
// run does the same work.
//
// --trace 0 runs timed passes (no output ledger, so peak memory is the
// system's own) until the requested wall time is spent, at least three,
// then one audited pass C with the delivery ledger on and every publication
// checked. setup_s and pubs_per_wall_s are medians over the passes; the
// model_* metrics come from C and must equal every timed pass's.
// --trace 1 runs an untraced and a traced pass over the model window (and,
// on kernels-churn, a traced single-threaded pass) and reports per-layer
// metrics from the traced pass's spans.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/iaas.hpp"
#include "coord/coord.hpp"
#include "elastic/manager.hpp"
#include "engine/engine.hpp"
#include "filter/interval_index.hpp"
#include "filter/matcher.hpp"
#include "net/network.hpp"
#include "pubsub/streamhub.hpp"
#include "sim/simulator.hpp"
#include "trace.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"
#include "workload/oracle.hpp"
#include "workload/schedule.hpp"

namespace perfbench {
namespace {

using namespace esh;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear interpolation between the closest ranks, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The engine seed is deployment configuration, not workload input: it sets
// every slice's output-flush phase, which shifts the whole delay
// distribution by tens of milliseconds. It stays fixed (fig6's 2014) so
// the model_* metrics depend on the workload seed only through the inputs.
constexpr std::uint64_t kEngineSeed = 2014;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Timing decorator for an M slice's matcher (traced pass only).

struct KernelStats {
  double match_s = 0.0;
  double update_s = 0.0;
  double work_units = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t pubs = 0;  // (slice, publication) evaluations
  std::uint64_t matches = 0;
  std::uint64_t updates = 0;

  friend KernelStats operator-(KernelStats a, const KernelStats& b) {
    a.match_s -= b.match_s;
    a.update_s -= b.update_s;
    a.work_units -= b.work_units;
    a.calls -= b.calls;
    a.pubs -= b.pubs;
    a.matches -= b.matches;
    a.updates -= b.updates;
    return a;
  }
};

// Records a span around every call into the wrapped matcher; with `stats`
// it also counts the kernel's work.
class TimingMatcher final : public filter::Matcher {
 public:
  TimingMatcher(std::unique_ptr<filter::Matcher> inner, SpanRecorder& recorder,
                SpanKind match_kind, SpanKind update_kind, KernelStats* stats)
      : inner_(std::move(inner)),
        recorder_(recorder),
        match_kind_(match_kind),
        update_kind_(update_kind),
        stats_(stats) {}

  void add(const filter::AnySubscription& sub) override {
    const std::size_t span = recorder_.open(update_kind_, 0);
    inner_->add(sub);
    note_update(recorder_.close(span));
  }
  bool remove(SubscriptionId id) override {
    const std::size_t span = recorder_.open(update_kind_, 0);
    const bool removed = inner_->remove(id);
    note_update(recorder_.close(span));
    return removed;
  }
  [[nodiscard]] filter::MatchOutcome match(
      const filter::AnyPublication& pub) override {
    const std::size_t span =
        recorder_.open(match_kind_, filter::publication_id(pub).value());
    filter::MatchOutcome out = inner_->match(pub);
    note_match(recorder_.close(span), {&out, 1});
    return out;
  }
  [[nodiscard]] std::vector<filter::MatchOutcome> match_batch(
      std::span<const filter::AnyPublication> pubs) override {
    // set_thread_pool is not virtual: the M handler installs the engine
    // pool on this decorator, which hands it on to the wrapped kernel.
    inner_->set_thread_pool(thread_pool());
    const std::uint64_t first =
        pubs.empty() ? 0 : filter::publication_id(pubs.front()).value();
    const std::size_t span = recorder_.open(match_kind_, first);
    std::vector<filter::MatchOutcome> outs = inner_->match_batch(pubs);
    note_match(recorder_.close(span), outs);
    return outs;
  }
  [[nodiscard]] double estimate_match_units() const override {
    return inner_->estimate_match_units();
  }
  [[nodiscard]] std::size_t subscription_count() const override {
    return inner_->subscription_count();
  }
  [[nodiscard]] std::size_t state_bytes() const override {
    return inner_->state_bytes();
  }
  void serialize_state(BinaryWriter& w) const override {
    inner_->serialize_state(w);
  }
  void restore_state(BinaryReader& r) override { inner_->restore_state(r); }
  std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w) override {
    return inner_->split_state(cov, w);
  }
  void absorb_state(BinaryReader& r) override { inner_->absorb_state(r); }
  [[nodiscard]] std::unique_ptr<filter::Matcher> clone_empty() const override {
    auto clone = std::make_unique<TimingMatcher>(
        inner_->clone_empty(), recorder_, match_kind_, update_kind_, stats_);
    clone->set_thread_pool(thread_pool());
    return clone;
  }
  [[nodiscard]] std::string scheme_name() const override {
    return inner_->scheme_name();
  }

 private:
  void note_update(std::int64_t ns) {
    if (stats_ == nullptr) return;
    stats_->update_s += static_cast<double>(ns) / 1e9;
    ++stats_->updates;
  }
  void note_match(std::int64_t ns, std::span<const filter::MatchOutcome> outs) {
    if (stats_ == nullptr) return;
    stats_->match_s += static_cast<double>(ns) / 1e9;
    ++stats_->calls;
    for (const auto& out : outs) {
      ++stats_->pubs;
      stats_->matches += out.subscribers.size();
      stats_->work_units += out.work_units;
    }
  }

  std::unique_ptr<filter::Matcher> inner_;
  SpanRecorder& recorder_;
  SpanKind match_kind_;
  SpanKind update_kind_;
  KernelStats* stats_;
};

// ---------------------------------------------------------------------------
// The deployment: one manager host, dedicated I/O hosts for source and
// sink, worker hosts for AP/M/EP -- the layout harness::Testbed builds.

struct DeploymentSpec {
  std::size_t worker_hosts = 1;
  std::size_t io_hosts = 1;
  pubsub::StreamHubParams hub;
  std::function<pubsub::HostAssignment(const std::vector<HostId>&)> placement;
  engine::EngineConfig engine;
  cluster::IaasConfig iaas;
  std::optional<elastic::ManagerConfig> manager;
  std::uint64_t seed = 1;
};

struct Deployment {
  explicit Deployment(const DeploymentSpec& spec) {
    network = std::make_unique<net::Network>(sim);
    cluster::IaasConfig iaas = spec.iaas;
    iaas.max_hosts += 1 + spec.io_hosts;
    pool = std::make_unique<cluster::IaasPool>(sim, iaas);
    coord = std::make_unique<coord::CoordService>(sim, coord::CoordConfig{});
    manager_host = pool->allocate(nullptr);
    for (std::size_t i = 0; i < spec.io_hosts; ++i) {
      io_hosts.push_back(pool->allocate(nullptr));
    }
    for (std::size_t i = 0; i < spec.worker_hosts; ++i) {
      worker_hosts.push_back(pool->allocate(nullptr));
    }
    sim.run_until(sim.now() + spec.iaas.boot_delay + millis(1));

    engine = std::make_unique<engine::Engine>(sim, *network, manager_host,
                                              spec.engine, spec.seed);
    for (HostId host : io_hosts) engine->add_host(pool->host(host));
    for (HostId host : worker_hosts) engine->add_host(pool->host(host));

    hub = std::make_unique<pubsub::StreamHub>(*engine, spec.hub);
    pubsub::HostAssignment assignment = spec.placement(worker_hosts);
    assignment[spec.hub.names.source] = io_hosts;
    assignment[spec.hub.names.sink] = io_hosts;
    hub->deploy(assignment);

    if (spec.manager) {
      manager = std::make_unique<elastic::Manager>(
          sim, *network, *engine, *pool, *coord, manager_host, *spec.manager);
      manager->start(worker_hosts);
    }
  }
  ~Deployment() {
    manager.reset();
    hub.reset();
    engine.reset();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] std::size_t dedicated_hosts() const {
    return 1 + io_hosts.size();
  }
  [[nodiscard]] bool is_worker(HostId host) const {
    return host != manager_host &&
           std::find(io_hosts.begin(), io_hosts.end(), host) == io_hosts.end();
  }

  sim::Simulator sim;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<cluster::IaasPool> pool;
  std::unique_ptr<coord::CoordService> coord;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<pubsub::StreamHub> hub;
  std::unique_ptr<elastic::Manager> manager;
  HostId manager_host;
  std::vector<HostId> io_hosts;
  std::vector<HostId> worker_hosts;
};

// Worker host-seconds held over [from, to] (the paper's resource cost).
double worker_host_seconds(const Deployment& dep, SimTime from, SimTime to) {
  const auto& history = dep.pool->count_history();
  double total = 0.0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const SimTime begin = std::max(history[i].time, from);
    const SimTime end =
        std::min(i + 1 < history.size() ? history[i + 1].time : to, to);
    if (end <= begin) continue;
    const auto workers = static_cast<double>(history[i].count) -
                         static_cast<double>(dep.dedicated_hosts());
    total += workers * to_seconds(end - begin);
  }
  return total;
}

// ---------------------------------------------------------------------------
// One pass: a fresh deployment, set-up, a timed window, drain and checks.

struct Shape {
  SimDuration settle{0};        // after storage, before any publication
  SimDuration warmup{0};        // publishing before the window
  SimDuration model_window{0};  // the window: virtual span of every metric
  std::size_t setups = 0;       // set-ups per timed run, at least (median)
};

// Deterministic figures over the model window.
struct ModelStats {
  double delay_p50_ms = 0.0;
  double delay_p99_ms = 0.0;
  std::uint64_t delay_samples = 0;
  double host_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t notifications = 0;
  double util_mean = 0.0;
  double util_max = 0.0;
  std::uint64_t net_messages = 0;
  double net_mbytes = 0.0;
  std::uint64_t coord_ops = 0;
  std::uint64_t plans = 0;
  std::size_t hosts_peak = 0;
  std::uint64_t migrations = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  double migration_bytes = 0.0;
  double interruption_ms_max = 0.0;

  // The figures two passes of one seed must agree on.
  [[nodiscard]] bool same_figures(const ModelStats& o) const {
    return delay_p50_ms == o.delay_p50_ms && delay_p99_ms == o.delay_p99_ms &&
           delay_samples == o.delay_samples && host_s == o.host_s &&
           completed == o.completed && notifications == o.notifications;
  }
};

struct WindowStats {
  double wall_s = 0.0;
  double virtual_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  std::size_t span_begin = 0;
  std::size_t span_end = 0;
  double peak_rss_mb = 0.0;  // process high-water mark where it ends
  [[nodiscard]] double pubs_per_wall_s() const {
    return static_cast<double>(completed) / wall_s;
  }
};

struct CheckStats {
  std::uint64_t published = 0;
  std::uint64_t missing = 0;        // never completed after the drain
  std::uint64_t audited = 0;        // model-window publications checked
  std::uint64_t audit_failed = 0;   // missing, duplicated or wrong set
  std::uint64_t sets_compared = 0;  // subscriber sets compared to truth
  std::uint64_t ontime = 0;         // correct and delivered within 1 s
  [[nodiscard]] std::uint64_t failed() const { return missing + audit_failed; }
};

class Pass {
 public:
  Pass(Shape shape, SpanRecorder* recorder)
      : shape_(shape), recorder_(recorder) {}
  virtual ~Pass() = default;
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  // Deployment, subscription storage and warm-up; ends where the first
  // timed publication is due. Returns its wall seconds.
  double setup() {
    const std::int64_t t0 = now_ns();
    dep_ = std::make_unique<Deployment>(spec());
    store();
    run(shape_.settle);
    if (shape_.warmup > SimDuration{0}) {
      begin_publishing();
      run(shape_.warmup);
    }
    return seconds_since(t0);
  }

  // The timed window: the model window in one span of virtual time.
  // `audit` turns the delivery ledger on, so every window publication can
  // be checked.
  WindowStats run_window(bool audit) {
    auto& collector = *dep_->hub->collector();
    completed_before_window_ = collector.publications_completed();
    collector.reset_counts();
    if (audit) collector.enable_audit();
    auditing_ = audit;
    window_start_ = dep_->sim.now();
    window_open_ = true;
    begin_model_counters();
    model_window_edge(true);
    if (!publishing_) begin_publishing();

    WindowStats w;
    w.span_begin = recorder_ != nullptr ? recorder_->size() : 0;
    const std::int64_t t0 = now_ns();
    w.events = run(shape_.model_window);
    w.wall_s = seconds_since(t0);
    w.peak_rss_mb = peak_rss_mb();
    end_model_counters();
    model_window_edge(false);
    w.span_end = recorder_ != nullptr ? recorder_->size() : 0;
    w.virtual_s = to_seconds(shape_.model_window);
    w.completed = collector.publications_completed();
    window_open_ = false;
    return w;
  }

  // Stops publishing, drains every publication, and checks the outputs.
  CheckStats finish() {
    stop_drivers();
    auto& collector = *dep_->hub->collector();
    const auto completed = [&] {
      return completed_before_window_ + collector.publications_completed();
    };
    const SimTime deadline = dep_->sim.now() + seconds(600);
    while (completed() < published_ && dep_->sim.now() < deadline) {
      run(seconds(1));
    }
    CheckStats c;
    c.published = published_;
    c.missing = published_ - std::min(published_, completed());
    if (!auditing_) return c;
    prepare_truth();
    const auto& ledger = collector.audit();
    for (std::size_t k = 0; k < window_pubs_.size(); ++k) {
      const PublicationId id = window_pubs_[k];
      ++c.audited;
      const auto it = ledger.find(id);
      if (it == ledger.end() || it->second.deliveries != 1) {
        ++c.audit_failed;
        continue;
      }
      auto got = it->second.subscribers;
      std::sort(got.begin(), got.end());
      const std::optional<bool> correct = check_delivery(id, got);
      if (correct.has_value()) ++c.sets_compared;
      if (correct.has_value() && !*correct) {
        ++c.audit_failed;
        continue;
      }
      if (ontime_[k]) ++c.ontime;
    }
    return c;
  }

  [[nodiscard]] const ModelStats& model() const { return model_; }
  [[nodiscard]] const Shape& shape() const { return shape_; }

 protected:
  virtual DeploymentSpec spec() = 0;
  virtual void store() = 0;
  virtual void start_drivers() = 0;
  virtual void stop_drivers() = 0;
  // Called where the model window begins and ends.
  virtual void model_window_edge(bool /*begin*/) {}
  // Ground truth for the publications of the model window is built here,
  // after the drain (outside every timed span).
  virtual void prepare_truth() {}
  // True/false when the delivered set was compared with the ground truth,
  // nullopt when this publication is outside the checked sample.
  virtual std::optional<bool> check_delivery(
      PublicationId id, const std::vector<SubscriberId>& sorted_got) = 0;

  // Advances virtual time by `d` inside one sim.run_until span; returns
  // the number of events run.
  std::uint64_t run(SimDuration d) {
    if (d <= SimDuration{0}) return 0;
    Scope span(recorder_, SpanKind::kRunUntil);
    return dep_->sim.run_until(dep_->sim.now() + d);
  }

  // Schedules `count` subscription calls one pacing gap apart (the
  // storage phase of harness::Testbed) and runs until `stored()` holds.
  void store_paced(std::size_t count,
                   std::function<void(std::size_t)> subscribe,
                   const std::function<bool()>& stored) {
    const auto gap = micros(static_cast<std::int64_t>(1e6 / kStoreRate) + 1);
    auto fn = std::make_shared<std::function<void(std::size_t)>>(
        std::move(subscribe));
    auto fired = std::make_shared<std::size_t>(0);
    SimTime at = dep_->sim.now();
    for (std::size_t i = 0; i < count; ++i) {
      at += gap;
      dep_->sim.schedule_at(at, [fn, fired, i] {
        (*fn)(i);
        ++*fired;
      });
    }
    const SimTime deadline = dep_->sim.now() + seconds(600);
    while (*fired < count || !stored()) {
      if (dep_->sim.now() >= deadline) {
        throw std::runtime_error{"subscription storage timed out"};
      }
      run(millis(100));
    }
  }

  // Book-keeping after each hub.publish; returns true when the publication
  // falls in the model window.
  bool note_published(PublicationId id) {
    ++published_;
    if (!window_open_) return false;
    const std::size_t k = window_pubs_.size();
    window_pubs_.push_back(id);
    ontime_.push_back(false);
    if (auditing_) {
      // Delivered within 1 s of virtual time from the due time? The
      // ledger answers once that second has passed.
      dep_->sim.schedule(seconds(1), [this, k, id] {
        ontime_[k] = dep_->hub->collector()->audit().contains(id);
      });
    }
    return true;
  }

  SpanRecorder* recorder() { return recorder_; }

  static constexpr double kStoreRate = 20'000.0;  // subscriptions per second
  std::unique_ptr<Deployment> dep_;

 private:
  void begin_publishing() {
    start_drivers();
    publishing_ = true;
  }

  void begin_model_counters() {
    const auto& net = dep_->network->stats();
    net_messages0_ = net.messages_sent;
    net_bytes0_ = net.bytes_sent;
    coord_ops0_ = dep_->coord->committed_ops();
    splits0_ = dep_->engine->splits_completed();
    merges0_ = dep_->engine->merges_completed();
    if (dep_->manager) {
      plans0_ = dep_->manager->plans_executed();
      migrations0_ = dep_->manager->migrations().size();
    }
    util_sum_ = 0.0;
    util_n_ = 0;
    model_.util_max = 0.0;
    last_busy_.clear();
    sample_utilization();
    sampler_ = std::make_unique<sim::PeriodicTimer>(
        dep_->sim, seconds(1), [this] { sample_utilization(); });
  }

  void end_model_counters() {
    sampler_.reset();
    auto& collector = *dep_->hub->collector();
    const auto& delays = collector.delays_ms();
    model_.delay_samples = delays.count();
    if (model_.delay_samples > 0) {
      model_.delay_p50_ms = delays.percentile(50);
      model_.delay_p99_ms = delays.percentile(99);
    }
    model_.completed = collector.publications_completed();
    model_.notifications = collector.notifications();
    model_.host_s = worker_host_seconds(*dep_, window_start_, dep_->sim.now());
    model_.util_mean =
        util_n_ > 0 ? util_sum_ / static_cast<double>(util_n_) : 0.0;
    const auto& net = dep_->network->stats();
    model_.net_messages = net.messages_sent - net_messages0_;
    model_.net_mbytes =
        static_cast<double>(net.bytes_sent - net_bytes0_) / (1024.0 * 1024.0);
    model_.coord_ops = dep_->coord->committed_ops() - coord_ops0_;
    model_.splits = dep_->engine->splits_completed() - splits0_;
    model_.merges = dep_->engine->merges_completed() - merges0_;
    std::size_t peak = 0;
    for (const auto& sample : dep_->pool->count_history()) {
      if (sample.time <= window_start_) peak = sample.count;  // at the start
    }
    for (const auto& sample : dep_->pool->count_history()) {
      if (sample.time > window_start_) peak = std::max(peak, sample.count);
    }
    model_.hosts_peak = peak - dep_->dedicated_hosts();
    if (dep_->manager) {
      model_.plans = dep_->manager->plans_executed() - plans0_;
      const auto& reports = dep_->manager->migrations();
      for (std::size_t i = migrations0_; i < reports.size(); ++i) {
        if (reports[i].outcome != engine::MigrationOutcome::kCompleted) continue;
        ++model_.migrations;
        model_.migration_bytes += static_cast<double>(reports[i].bytes_shipped());
        model_.interruption_ms_max = std::max(
            model_.interruption_ms_max, to_millis(reports[i].interruption()));
      }
    }
  }

  // Per-second CPU utilization of every worker host.
  void sample_utilization() {
    for (HostId host : dep_->pool->active_hosts()) {
      if (!dep_->is_worker(host)) continue;
      const auto& h = dep_->pool->host(host);
      const double busy = h.busy_core_us_now();
      const auto it = last_busy_.find(host);
      if (it != last_busy_.end()) {
        const double util =
            (busy - it->second) / (static_cast<double>(h.spec().cores) * 1e6);
        util_sum_ += util;
        ++util_n_;
        model_.util_max = std::max(model_.util_max, util);
      }
      last_busy_[host] = busy;
    }
  }

  Shape shape_;
  SpanRecorder* recorder_;
  bool publishing_ = false;
  bool window_open_ = false;
  bool auditing_ = false;
  SimTime window_start_{0};
  std::uint64_t published_ = 0;
  std::uint64_t completed_before_window_ = 0;
  std::vector<PublicationId> window_pubs_;
  std::vector<bool> ontime_;
  ModelStats model_;
  std::unique_ptr<sim::PeriodicTimer> sampler_;
  std::unordered_map<HostId, double> last_busy_;
  double util_sum_ = 0.0;
  std::uint64_t util_n_ = 0;
  std::uint64_t net_messages0_ = 0;
  std::uint64_t net_bytes0_ = 0;
  std::uint64_t coord_ops0_ = 0;
  std::uint64_t splits0_ = 0;
  std::uint64_t merges0_ = 0;
  std::uint64_t plans0_ = 0;
  std::size_t migrations0_ = 0;
};

// ---------------------------------------------------------------------------
// The oracle workload (elastic-ramp): OracleWorkload events, aspe-oracle M
// slices, the exactly-once audit of harness::verify_exactly_once against
// MatchOracle ground truth.

struct OracleConfig {
  Shape shape;
  workload::OracleParams params;
  std::shared_ptr<const workload::RateSchedule> schedule;
  std::optional<elastic::ManagerConfig> manager;
  cluster::IaasConfig iaas;
  SimDuration probe_interval = seconds(5);
};

class OraclePass final : public Pass {
 public:
  OraclePass(const OracleConfig& config, std::uint64_t seed,
             std::size_t threads, SpanRecorder* recorder)
      : Pass(config.shape, recorder),
        config_(config),
        seed_(seed),
        threads_(threads) {}

 protected:
  DeploymentSpec spec() override {
    workload_ = std::make_unique<workload::OracleWorkload>(config_.params);
    DeploymentSpec s;
    s.io_hosts = 4;
    s.hub.source_slices = 4;
    s.hub.ap_slices = 8;
    s.hub.m_slices = config_.params.m_slices;
    s.hub.ep_slices = 8;
    s.hub.sink_slices = 4;
    s.hub.matcher_factory = [this](std::size_t slice) {
      auto matcher = workload_->make_matcher(cluster::CostModel{}, slice);
      if (recorder() == nullptr) return matcher;
      return std::unique_ptr<filter::Matcher>(std::make_unique<TimingMatcher>(
          std::move(matcher), *recorder(), SpanKind::kOracleMatch,
          SpanKind::kOracleUpdate, nullptr));
    };
    s.placement = [](const std::vector<HostId>& workers) {
      pubsub::HostAssignment all;
      for (const char* op : {"AP", "M", "EP"}) all[op] = workers;
      return all;
    };
    s.engine.probe_interval = config_.probe_interval;
    s.engine.worker_threads = threads_;
    s.iaas = config_.iaas;
    s.manager = config_.manager;
    s.seed = kEngineSeed;
    return s;
  }

  void store() override {
    const std::size_t n = config_.params.total_subscriptions;
    store_paced(
        n,
        [this](std::size_t i) {
          filter::EncryptedSubscription sub;
          {
            Scope span(recorder(), SpanKind::kGenSubscription);
            sub = workload_->subscription(i);
          }
          Scope span(recorder(), SpanKind::kSubscribe);
          dep_->hub->subscribe(filter::AnySubscription{std::move(sub)});
        },
        [this, n] { return dep_->hub->stored_subscriptions() >= n; });
  }

  void start_drivers() override {
    driver_ = std::make_unique<workload::PublicationDriver>(
        dep_->sim, config_.schedule, [this] { publish_one(); },
        mix_seed(seed_, 2));
    driver_->start();
  }
  void stop_drivers() override {
    if (driver_) driver_->stop();
  }

  std::optional<bool> check_delivery(
      PublicationId id, const std::vector<SubscriberId>& got) override {
    const auto oracle = workload_->oracle();
    std::vector<SubscriberId> expected;
    for (const std::uint64_t index : oracle->matches(id)) {
      expected.push_back(oracle->subscriber_of(index));
    }
    std::sort(expected.begin(), expected.end());
    return got == expected;
  }

 private:
  void publish_one() {
    filter::EncryptedPublication pub;
    {
      Scope span(recorder(), SpanKind::kGenPublication);
      pub = workload_->next_publication();
    }
    const PublicationId id = pub.id;
    {
      Scope span(recorder(), SpanKind::kPublish, id.value());
      dep_->hub->publish(filter::AnyPublication{std::move(pub)});
    }
    note_published(id);
  }

  OracleConfig config_;
  std::uint64_t seed_;
  std::size_t threads_;
  std::unique_ptr<workload::OracleWorkload> workload_;
  std::unique_ptr<workload::PublicationDriver> driver_;
};

// A compressed fig8: one worker host with every slice, a trapezoid ramp
// to 350 pub/s and back, then 40 s idle; the manager scales out and in,
// and a hot key bucket makes M slice 0 split at the peak and merge
// afterwards. The window is the whole cycle.
OracleConfig elastic_ramp(std::uint64_t seed) {
  OracleConfig c;
  // Slow ramps keep the manager's decisions stable across seeds: with a
  // 120 s cycle the first scale-out's delay spike and the host count
  // swung by a quarter from one seed to the next.
  const SimDuration up = seconds(80);
  const SimDuration plateau = seconds(40);
  const SimDuration down = seconds(80);
  const SimDuration tail = seconds(40);
  const SimDuration cycle = up + plateau + down + tail;
  c.shape.settle = seconds(5);
  c.shape.setups = 9;  // storage alone takes a fraction of a second
  c.shape.model_window = cycle;
  c.params.dimensions = 4;
  c.params.total_subscriptions = 40'000;
  c.params.matching_rate = 0.01;
  c.params.m_slices = 16;
  c.params.hot_fraction = 0.3;
  c.params.seed = mix_seed(seed, 10);
  c.iaas.max_hosts = 30;
  c.probe_interval = seconds(1);
  c.schedule =
      std::make_shared<workload::TrapezoidRate>(350.0, up, plateau, down);
  elastic::ManagerConfig m;
  m.policy.grace = seconds(10);
  m.policy.scale_out_grace = seconds(3);
  m.policy.enable_splits = true;
  c.manager = m;
  return c;
}

// ---------------------------------------------------------------------------
// kernels-churn: two M operators side by side (paper section III), real
// ASPE (encrypted, d = 4) next to a plain IntervalIndexMatcher, with a
// subscribe/unsubscribe stream replacing part of the plain store.

struct KernelsConfig {
  Shape shape;
  std::size_t aspe_subscriptions = 20'000;
  std::size_t plain_subscriptions = 200'000;
  double aspe_matching_rate = 0.01;
  double plain_matching_rate = 0.001;
  double pub_rate = 120.0;         // publications per second, both schemes
  double encrypted_share = 0.3;    // of the publications
  double churn_rate = 40.0;        // subscribe/unsubscribe calls per second
  double churn_fraction = 0.04;    // steady-state fringe, share of the plain store
  std::uint64_t seed = 1;
};

KernelsConfig kernels_churn(std::uint64_t seed) {
  KernelsConfig c;
  c.shape.warmup = seconds(5);
  c.shape.model_window = seconds(30);
  c.seed = seed;
  return c;
}

class KernelsPass final : public Pass {
 public:
  KernelsPass(const KernelsConfig& config, std::size_t threads,
              SpanRecorder* recorder)
      : Pass(config.shape, recorder),
        config_(config),
        threads_(threads),
        aspe_params_{4, config.aspe_matching_rate, mix_seed(config.seed, 20)},
        plain_params_{4, config.plain_matching_rate, mix_seed(config.seed, 21)},
        enc_gen_(aspe_params_),
        plain_gen_(plain_params_),
        scheme_rng_(mix_seed(config.seed, 22)) {
    workload::OracleParams fringe;
    fringe.total_subscriptions = config.plain_subscriptions;
    fringe.m_slices = kPlainSlices;
    fringe.churn_fraction = config.churn_fraction;
    churn_ = std::make_unique<workload::ChurnStream>(
        std::make_shared<workload::MatchOracle>(fringe),
        mix_seed(config.seed, 23));
  }

  // Kernel counters over the model window (traced passes only).
  [[nodiscard]] const KernelStats& aspe_window() const { return aspe_window_; }
  [[nodiscard]] const KernelStats& plain_window() const {
    return plain_window_;
  }

  // Matcher state over both schemes' M slices, in MB.
  [[nodiscard]] double state_mb() {
    double bytes = 0.0;
    for (const auto& scheme : dep_->hub->schemes()) {
      for (SliceId slice : dep_->hub->slices_of(scheme.op_name)) {
        auto* runtime = dep_->engine->slice_runtime(slice);
        if (runtime != nullptr) {
          bytes += static_cast<double>(runtime->handler().state_bytes());
        }
      }
    }
    return bytes / (1024.0 * 1024.0);
  }

 protected:
  DeploymentSpec spec() override {
    DeploymentSpec s;
    s.worker_hosts = 6;
    s.io_hosts = 2;
    s.hub.source_slices = 2;
    s.hub.ap_slices = 4;
    s.hub.ep_slices = 4;
    s.hub.sink_slices = 2;
    pubsub::MatcherSchemeSpec aspe;
    aspe.op_name = "M-aspe";
    aspe.slices = kAspeSlices;
    aspe.encrypted = true;
    aspe.factory = [this](std::size_t) {
      return wrap(std::make_unique<filter::AspeMatcher>(), aspe_stats_);
    };
    pubsub::MatcherSchemeSpec plain;
    plain.op_name = "M-plain";
    plain.slices = kPlainSlices;
    plain.encrypted = false;
    plain.factory = [this](std::size_t) {
      return wrap(std::make_unique<filter::IntervalIndexMatcher>(),
                  plain_stats_);
    };
    s.hub.schemes = {aspe, plain};
    s.placement = [](const std::vector<HostId>& w) {
      pubsub::HostAssignment a;
      a["AP"] = {w[0], w[1]};
      a["EP"] = {w[0], w[1]};
      a["M-aspe"] = {w[2], w[3], w[4], w[5]};
      a["M-plain"] = {w[2], w[3], w[4], w[5]};
      return a;
    };
    s.engine.worker_threads = threads_;
    s.seed = kEngineSeed;
    return s;
  }

  void store() override {
    const std::size_t na = config_.aspe_subscriptions;
    const std::size_t np = config_.plain_subscriptions;
    // The fringe starts full: its prefill runs with storage, so the window
    // sees the stream's steady state (it replaces, it does not grow).
    {
      Scope span(recorder(), SpanKind::kGenChurn);
      while (churn_->live_fringe() < churn_->target_fringe()) {
        prefill_.push_back(churn_->next());
      }
    }
    const std::size_t expected = na + np + churn_->live_fringe();
    store_paced(
        na + np + prefill_.size(),
        [this, na, np](std::size_t i) {
          if (i < na) {
            filter::EncryptedSubscription sub;
            {
              Scope span(recorder(), SpanKind::kGenSubscription);
              sub = enc_gen_.subscription(i);
            }
            Scope span(recorder(), SpanKind::kSubscribe);
            dep_->hub->subscribe(filter::AnySubscription{std::move(sub)});
          } else if (i < na + np) {
            subscribe_plain(i - na);
          } else {
            apply_churn(prefill_[i - na - np]);
          }
        },
        [this, expected] {
          return dep_->hub->stored_subscriptions() >= expected;
        });
  }

  void start_drivers() override {
    pub_driver_ = std::make_unique<workload::PublicationDriver>(
        dep_->sim,
        std::make_shared<workload::ConstantRate>(config_.pub_rate,
                                                 seconds(1'000'000)),
        [this] { publish_one(); }, mix_seed(config_.seed, 2));
    churn_driver_ = std::make_unique<workload::PublicationDriver>(
        dep_->sim,
        std::make_shared<workload::ConstantRate>(config_.churn_rate,
                                                 seconds(1'000'000)),
        [this] {
          workload::ChurnStream::Event event;
          {
            Scope span(recorder(), SpanKind::kGenChurn);
            event = churn_->next();
          }
          apply_churn(event);
        },
        mix_seed(config_.seed, 3));
    pub_driver_->start();
    churn_driver_->start();
  }
  void stop_drivers() override {
    if (pub_driver_) pub_driver_->stop();
    if (churn_driver_) churn_driver_->stop();
  }

  void model_window_edge(bool begin) override {
    if (begin) {
      aspe_window_ = aspe_stats_;
      plain_window_ = plain_stats_;
    } else {
      aspe_window_ = aspe_stats_ - aspe_window_;
      plain_window_ = plain_stats_ - plain_window_;
    }
  }

  void prepare_truth() override {
    workload::PlainWorkload aspe_twins{aspe_params_};
    for (std::size_t i = 0; i < config_.aspe_subscriptions; ++i) {
      aspe_truth_.push_back(aspe_twins.subscription(i));
    }
    workload::PlainWorkload plain{plain_params_};
    for (std::size_t i = 0; i < config_.plain_subscriptions; ++i) {
      plain_truth_.push_back(plain.subscription(i));
    }
    for (const auto& [index, times] : fringe_times_) {
      fringe_truth_.emplace(index, plain.subscription(index));
    }
  }

  std::optional<bool> check_delivery(
      PublicationId id, const std::vector<SubscriberId>& got) override {
    const auto it = window_data_.find(id);
    if (it == window_data_.end()) return false;
    const WindowPub& pub = it->second;
    if (pub.encrypted) {
      std::vector<SubscriberId> expected;
      for (const auto& sub : aspe_truth_) {
        if (sub.matches(pub.plain)) expected.push_back(sub.subscriber);
      }
      return got == expected;  // both ascending
    }
    // The plain store is checked on a deterministic sample: re-evaluating
    // hundreds of thousands of predicates per publication is the costliest
    // check of the run.
    if (id.value() % kPlainSample != 0) return std::nullopt;
    std::vector<SubscriberId> must;
    for (const auto& sub : plain_truth_) {
      if (sub.matches(pub.plain)) must.push_back(sub.subscriber);
    }
    // Fringe subscriptions are churned while publications are in flight:
    // one stored throughout [t - slack, t + slack] must match, one never
    // stored in that interval must not, and the rest may go either way.
    std::vector<SubscriberId> may;
    for (const auto& [index, times] : fringe_times_) {
      const auto& sub = fringe_truth_.at(index);
      if (!sub.matches(pub.plain)) continue;
      const bool stored_before = times.first <= pub.at - kChurnSlack;
      const bool kept_after = !times.second.has_value() ||
                              *times.second >= pub.at + kChurnSlack;
      const bool never = times.first >= pub.at + kChurnSlack ||
                         (times.second.has_value() &&
                          *times.second <= pub.at - kChurnSlack);
      if (stored_before && kept_after) {
        must.push_back(sub.subscriber);
      } else if (!never) {
        may.push_back(sub.subscriber);
      }
    }
    std::sort(must.begin(), must.end());
    std::sort(may.begin(), may.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) return false;
    if (!std::includes(got.begin(), got.end(), must.begin(), must.end())) {
      return false;
    }
    for (SubscriberId s : got) {
      if (!std::binary_search(must.begin(), must.end(), s) &&
          !std::binary_search(may.begin(), may.end(), s)) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr std::size_t kAspeSlices = 8;
  static constexpr std::size_t kPlainSlices = 16;
  static constexpr std::uint64_t kPlainSample = 8;
  static constexpr SimDuration kChurnSlack = seconds(2);

  struct WindowPub {
    bool encrypted = false;
    filter::Publication plain;
    SimTime at{};
  };

  std::unique_ptr<filter::Matcher> wrap(std::unique_ptr<filter::Matcher> m,
                                        KernelStats& stats) {
    if (recorder() == nullptr) return m;
    return std::make_unique<TimingMatcher>(std::move(m), *recorder(),
                                           SpanKind::kFilterMatch,
                                           SpanKind::kFilterUpdate, &stats);
  }

  void subscribe_plain(std::uint64_t index) {
    filter::Subscription sub;
    {
      Scope span(recorder(), SpanKind::kGenSubscription);
      sub = plain_gen_.subscription(index);
    }
    Scope span(recorder(), SpanKind::kSubscribe);
    dep_->hub->subscribe(filter::AnySubscription{std::move(sub)});
  }

  void apply_churn(const workload::ChurnStream::Event& event) {
    if (event.subscribe) {
      fringe_times_[event.index].first = dep_->sim.now();
      subscribe_plain(event.index);
      return;
    }
    fringe_times_[event.index].second = dep_->sim.now();
    Scope span(recorder(), SpanKind::kUnsubscribe);
    dep_->hub->unsubscribe(SubscriptionId{event.index + 1}, false);
  }

  void publish_one() {
    const PublicationId id{++next_pub_};
    filter::AnyPublication pub;
    filter::Publication plain;
    bool encrypted = false;
    {
      Scope span(recorder(), SpanKind::kGenPublication, id.value());
      encrypted = scheme_rng_.next_double() < config_.encrypted_share;
      if (encrypted) {
        auto enc = enc_gen_.next_publication(&plain);
        enc.id = id;
        pub = std::move(enc);
      } else {
        plain = plain_gen_.next_publication();
        plain.id = id;
        pub = plain;
      }
    }
    const SimTime at = dep_->sim.now();
    {
      Scope span(recorder(), SpanKind::kPublish, id.value());
      dep_->hub->publish(std::move(pub));
    }
    if (note_published(id)) {
      window_data_.emplace(id, WindowPub{encrypted, std::move(plain), at});
    }
  }

  KernelsConfig config_;
  std::size_t threads_;
  workload::WorkloadParams aspe_params_;
  workload::WorkloadParams plain_params_;
  workload::EncryptedWorkload enc_gen_;
  workload::PlainWorkload plain_gen_;
  Rng scheme_rng_;
  std::unique_ptr<workload::ChurnStream> churn_;
  std::vector<workload::ChurnStream::Event> prefill_;
  std::unique_ptr<workload::PublicationDriver> pub_driver_;
  std::unique_ptr<workload::PublicationDriver> churn_driver_;
  std::uint64_t next_pub_ = 0;
  KernelStats aspe_stats_;
  KernelStats plain_stats_;
  KernelStats aspe_window_;
  KernelStats plain_window_;
  // Fringe index -> (subscribe time, unsubscribe time).
  std::map<std::uint64_t, std::pair<SimTime, std::optional<SimTime>>>
      fringe_times_;
  std::unordered_map<PublicationId, WindowPub> window_data_;
  std::vector<filter::Subscription> aspe_truth_;
  std::vector<filter::Subscription> plain_truth_;
  std::unordered_map<std::uint64_t, filter::Subscription> fringe_truth_;
};

// ---------------------------------------------------------------------------
// Runs and output.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::size_t> threads;
  std::string trace_file;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
    std::printf("  %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[512];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const CheckStats& c, bool audited) {
    attempted += c.published;
    failed += c.failed();
    if (c.failed() > 0) fail("publications not delivered exactly once "
                             "with the correct subscriber set");
    if (audited && (c.audited == 0 || c.sets_compared == 0)) {
      fail("the audit checked no publication");
    }
  }
  void fail(const char* why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why);
  }
};

std::unique_ptr<Pass> make_pass(const Args& args, std::size_t threads,
                                SpanRecorder* recorder) {
  if (args.workload == "elastic-ramp") {
    return std::make_unique<OraclePass>(elastic_ramp(args.seed), args.seed,
                                        threads, recorder);
  }
  if (args.workload == "kernels-churn") {
    return std::make_unique<KernelsPass>(kernels_churn(args.seed), threads,
                                         recorder);
  }
  throw std::invalid_argument{"unknown workload: " + args.workload};
}

// Timed passes per run, at least. More follow while the next one would end
// nearer to --seconds of wall time than the last one did.
constexpr std::size_t kTimedPasses = 3;

std::size_t default_threads(const std::string& workload) {
  return workload == "kernels-churn" ? 2 : 1;
}

void print_check(const char* pass, const CheckStats& c) {
  std::printf(
      "check %s: published %llu missing %llu audited %llu sets-compared %llu "
      "audit-failed %llu on-time %llu\n",
      pass, static_cast<unsigned long long>(c.published),
      static_cast<unsigned long long>(c.missing),
      static_cast<unsigned long long>(c.audited),
      static_cast<unsigned long long>(c.sets_compared),
      static_cast<unsigned long long>(c.audit_failed),
      static_cast<unsigned long long>(c.ontime));
}

void add_model_metrics(Metrics& m, const ModelStats& model,
                       const CheckStats& audit) {
  m.add("model_delay_p50_ms", model.delay_p50_ms, "sim_ms");
  m.add("model_delay_p99_ms", model.delay_p99_ms, "sim_ms");
  m.add("model_delay_samples", static_cast<double>(model.delay_samples),
        "count");
  m.add("model_ontime_1s_pct",
        100.0 * static_cast<double>(audit.ontime) /
            static_cast<double>(std::max<std::uint64_t>(1, audit.audited)),
        "%");
  m.add("model_host_s", model.host_s, "sim_host_s");
}

Verdict run_timed(const Args& args, Metrics& m) {
  const std::size_t threads = args.threads.value_or(default_threads(args.workload));
  Verdict verdict;
  std::vector<double> setups;
  std::vector<double> rates;
  double peak_rss = 0.0;
  std::optional<ModelStats> model_b;
  bool same_model = true;
  const std::int64_t t0 = now_ns();
  const auto more = [&] {
    if (rates.size() < kTimedPasses) return true;
    const double spent = seconds_since(t0);
    const double per_pass = spent / static_cast<double>(rates.size());
    return spent + per_pass / 2 < args.seconds;
  };
  while (more()) {
    auto b = make_pass(args, threads, nullptr);
    setups.push_back(b->setup());
    const WindowStats w = b->run_window(false);
    rates.push_back(w.pubs_per_wall_s());
    if (!model_b) peak_rss = w.peak_rss_mb;
    verdict.add(b->finish(), false);
    if (!model_b) model_b = b->model();
    same_model = same_model && model_b->same_figures(b->model());
  }
  CheckStats check_c;
  ModelStats model_c;
  {
    auto c = make_pass(args, threads, nullptr);
    setups.push_back(c->setup());
    c->run_window(true);
    check_c = c->finish();
    model_c = c->model();
  }
  const std::size_t setup_count = make_pass(args, threads, nullptr)->shape().setups;
  while (setups.size() < setup_count) {
    setups.push_back(make_pass(args, threads, nullptr)->setup());
  }

  std::printf("setups (s):");
  for (double s : setups) std::printf(" %.3f", s);
  std::printf("\ntimed passes (1/s):");
  for (double r : rates) std::printf(" %.0f", r);
  std::printf("\n");
  print_check("audited", check_c);
  verdict.add(check_c, true);
  if (!same_model || !model_b->same_figures(model_c)) {
    verdict.fail("model metrics differ between passes with one seed");
  }
  if (model_c.delay_samples < 1000) verdict.fail("fewer than 1000 delay samples");

  m.add("setup_s", median(setups), "s");
  m.add("pubs_per_wall_s", median(rates), "1/s");
  m.add("peak_rss_mb", peak_rss, "MB");
  m.add("delivered_pct",
        100.0 * static_cast<double>(verdict.attempted - verdict.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, verdict.attempted)),
        "%");
  add_model_metrics(m, model_c, check_c);
  return verdict;
}

// Per-layer wall figures of one traced phase, from its spans.
struct LayerWall {
  double run = 0.0;          // sim.run_until, children included
  double engine_self = 0.0;  // run_until minus every span inside it
  double pubsub = 0.0;       // publish, subscribe, unsubscribe
  double gen = 0.0;          // workload generators
  double oracle_match = 0.0;
  double oracle_update = 0.0;
  double filter_match = 0.0;
  double filter_update = 0.0;

  explicit LayerWall(const SpanTotals& t)
      : run(t.total(SpanKind::kRunUntil)),
        engine_self(t.self(SpanKind::kRunUntil)),
        pubsub(t.total(SpanKind::kPublish) + t.total(SpanKind::kSubscribe) +
               t.total(SpanKind::kUnsubscribe)),
        gen(t.total(SpanKind::kGenPublication) +
            t.total(SpanKind::kGenSubscription) +
            t.total(SpanKind::kGenChurn)),
        oracle_match(t.total(SpanKind::kOracleMatch)),
        oracle_update(t.total(SpanKind::kOracleUpdate)),
        filter_match(t.total(SpanKind::kFilterMatch)),
        filter_update(t.total(SpanKind::kFilterUpdate)) {}
};

// Everything the per-layer report needs from the traced pass, gathered
// before that pass is torn down.
struct TracedResult {
  WindowStats window;
  SpanTotals spans;
  SpanTotals setup_spans;
  ModelStats model;
  KernelStats aspe;
  KernelStats plain;
  double state_mb = 0.0;
};

TracedResult traced_pass(const Args& args, std::size_t threads,
                         SpanRecorder& recorder, Verdict& verdict,
                         const char* label) {
  auto pass = make_pass(args, threads, &recorder);
  pass->setup();
  TracedResult r;
  r.setup_spans = reduce(recorder, 0, recorder.size());
  r.window = pass->run_window(true);
  r.spans = reduce(recorder, r.window.span_begin, r.window.span_end);
  r.model = pass->model();
  if (auto* kernels = dynamic_cast<KernelsPass*>(pass.get())) {
    r.aspe = kernels->aspe_window();
    r.plain = kernels->plain_window();
    r.state_mb = kernels->state_mb();
  }
  const CheckStats c = pass->finish();
  print_check(label, c);
  verdict.add(c, true);
  return r;
}

double ns_per_unit(const KernelStats& k) {
  return k.work_units > 0.0 ? k.match_s * 1e9 / k.work_units : 0.0;
}

Verdict run_traced(const Args& args, Metrics& m) {
  const std::size_t threads =
      args.threads.value_or(default_threads(args.workload));
  Verdict verdict;
  WindowStats untraced;
  ModelStats untraced_model;
  {
    auto u = make_pass(args, threads, nullptr);
    u->setup();
    untraced = u->run_window(true);
    untraced_model = u->model();
    const CheckStats c = u->finish();
    print_check("untraced", c);
    verdict.add(c, true);
  }
  SpanRecorder recorder;
  const TracedResult t = traced_pass(args, threads, recorder, verdict, "traced");
  if (!t.model.same_figures(untraced_model)) {
    verdict.fail("tracing changed the simulated results");
  }
  if (!args.trace_file.empty() &&
      !recorder.write_chrome(args.trace_file, 200'000)) {
    verdict.fail("cannot write the trace file");
  }
  // The kernels' pool speed-up over a single-threaded run of the same
  // traced pass, per (slice, publication) evaluation.
  double pool_speedup = 0.0;
  if (args.workload == "kernels-churn") {
    SpanRecorder serial_recorder;
    const TracedResult s =
        traced_pass(args, 1, serial_recorder, verdict, "traced-serial");
    const auto per_eval = [](const TracedResult& r) {
      return (r.aspe.match_s + r.plain.match_s) /
             static_cast<double>(r.aspe.pubs + r.plain.pubs);
    };
    pool_speedup = per_eval(s) / per_eval(t);
  }

  const WindowStats& w = t.window;
  const LayerWall layer{t.spans};
  const LayerWall setup{t.setup_spans};
  const ModelStats& model = t.model;
  std::printf("traced window: %.3f wall s, %.0f virtual s, %zu spans\n",
              w.wall_s, w.virtual_s, w.span_end - w.span_begin);

  m.add("sim.events", static_cast<double>(w.events), "count");
  m.add("sim.run_wall_s", layer.run, "s");
  m.add("sim.events_per_wall_s", static_cast<double>(w.events) / layer.run,
        "1/s");
  m.add("engine.self_wall_s", layer.engine_self, "s");
  m.add("engine.self_share", layer.engine_self / w.wall_s, "fraction");
  m.add("engine.migrations", static_cast<double>(model.migrations), "count");
  m.add("engine.splits", static_cast<double>(model.splits), "count");
  m.add("engine.merges", static_cast<double>(model.merges), "count");
  m.add("engine.migration_mbytes", model.migration_bytes / (1024.0 * 1024.0),
        "MB");
  m.add("engine.interruption_ms_max", model.interruption_ms_max, "sim_ms");
  m.add("pubsub.ingress_wall_s", layer.pubsub, "s");
  m.add("pubsub.share", layer.pubsub / w.wall_s, "fraction");
  m.add("pubsub.completed", static_cast<double>(model.completed), "count");
  m.add("pubsub.notifications", static_cast<double>(model.notifications),
        "count");
  m.add("workload.gen_wall_s", layer.gen, "s");
  m.add("workload.oracle_match_wall_s", layer.oracle_match, "s");
  m.add("workload.oracle_match_calls",
        static_cast<double>(t.spans.calls(SpanKind::kOracleMatch)), "count");
  m.add("workload.share", (layer.gen + layer.oracle_match +
                           layer.oracle_update) / w.wall_s,
        "fraction");

  // Real kernels run on kernels-churn only; elsewhere these read zero.
  const KernelStats& aspe = t.aspe;
  const KernelStats& plain = t.plain;
  const double evals = static_cast<double>(aspe.pubs + plain.pubs);
  const double calls = static_cast<double>(aspe.calls + plain.calls);
  m.add("filter.match_wall_s", layer.filter_match, "s");
  m.add("filter.match_calls", calls, "count");
  m.add("filter.pubs_per_call", calls > 0.0 ? evals / calls : 0.0, "count");
  m.add("filter.update_wall_s", layer.filter_update, "s");
  m.add("filter.updates", static_cast<double>(aspe.updates + plain.updates),
        "count");
  m.add("filter.work_units_per_pub",
        evals > 0.0 ? (aspe.work_units + plain.work_units) / evals : 0.0,
        "units");
  m.add("filter.matches_per_pub",
        evals > 0.0 ? static_cast<double>(aspe.matches + plain.matches) / evals
                    : 0.0,
        "count");
  m.add("filter.state_mb", t.state_mb, "MB");
  m.add("filter.aspe.ns_per_unit", ns_per_unit(aspe), "ns");
  m.add("filter.interval.ns_per_unit", ns_per_unit(plain), "ns");
  m.add("filter.pool_speedup", pool_speedup, "x");
  m.add("filter.share", (layer.filter_match + layer.filter_update) / w.wall_s,
        "fraction");

  m.add("net.messages", static_cast<double>(model.net_messages), "count");
  m.add("net.mbytes", model.net_mbytes, "MB");
  m.add("cluster.util_mean", model.util_mean, "fraction");
  m.add("cluster.util_max", model.util_max, "fraction");
  m.add("coord.committed_ops", static_cast<double>(model.coord_ops), "count");
  m.add("elastic.plans", static_cast<double>(model.plans), "count");
  m.add("elastic.hosts_peak", static_cast<double>(model.hosts_peak), "count");

  m.add("setup.sim.run_wall_s", setup.run, "s");
  m.add("setup.engine.self_wall_s", setup.engine_self, "s");
  m.add("setup.pubsub.ingress_wall_s", setup.pubsub, "s");
  m.add("setup.workload.gen_wall_s", setup.gen, "s");
  m.add("setup.matcher_update_wall_s",
        setup.oracle_update + setup.filter_update, "s");
  m.add("setup.matcher_match_wall_s", setup.oracle_match + setup.filter_match,
        "s");

  m.add("trace.overhead_pct",
        100.0 * (1.0 - w.pubs_per_wall_s() / untraced.pubs_per_wall_s()), "%");
  return verdict;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--threads") {
      args.threads = static_cast<std::size_t>(std::stoul(value));
    } else if (key == "--trace-file") {
      args.trace_file = value;
    } else {
      throw std::invalid_argument{"unknown argument: " + key};
    }
  }
  if (args.workload.empty()) throw std::invalid_argument{"--workload missing"};
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse(argc, argv);
    std::printf("workload %s seed %llu seconds %.1f trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    Metrics metrics;
    const Verdict v =
        args.trace ? run_traced(args, metrics) : run_timed(args, metrics);
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        v.correct ? "true" : "false",
        static_cast<unsigned long long>(v.attempted),
        static_cast<unsigned long long>(v.failed), metrics.json().c_str());
    return v.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 2;
  }
}
