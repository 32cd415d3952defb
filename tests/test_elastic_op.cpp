// Elastic-operation coordinator tests: the one-op-at-a-time scheduling rule
// (queued migrations start before queued splits/merges, each family FIFO, a
// split deferred behind an unspent roll-forward record lets migrations pass)
// and a golden digest of every report and chaos-hook step of a seeded run
// with the manager, checkpoints and a host crash mid-split.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "golden_digest.hpp"
#include "harness/chaos.hpp"
#include "workload/schedule.hpp"

namespace esh::harness {
namespace {

// Checkpointed cluster with M isolated on workers 2 and 3 (a crash there
// kills matcher state only, never an upstream AP) and AP/EP on 0 and 1.
TestbedConfig op_config() {
  TestbedConfig config;
  config.worker_hosts = 4;
  config.io_hosts = 2;
  config.workload.dimensions = 4;
  config.workload.total_subscriptions = 1000;
  config.workload.matching_rate = 0.02;
  config.workload.m_slices = 3;
  config.source_slices = 2;
  config.ap_slices = 3;
  config.ep_slices = 3;
  config.sink_slices = 2;
  config.engine.flush_interval = millis(10);
  config.engine.control_tick = millis(5);
  config.engine.probe_interval = millis(100);
  config.engine.checkpoints.enabled = true;
  config.engine.checkpoints.interval = millis(500);
  config.iaas.max_hosts = 7;
  config.iaas.boot_delay = millis(500);
  config.with_manager = true;
  config.manager.recovery.enabled = true;
  config.manager.recovery.detector =
      elastic::FailureDetectorConfig{millis(100), 2, 4};
  config.manager.recovery.attempt_timeout = seconds(5);
  config.placement = [](const std::vector<HostId>& workers) {
    pubsub::HostAssignment assignment;
    assignment["AP"] = {workers[0], workers[1]};
    assignment["EP"] = {workers[0], workers[1]};
    assignment["M"] = {workers[2], workers[3]};
    return assignment;
  };
  config.seed = 11;
  return config;
}

// The worker of the pair {a, b} not hosting `slice`.
HostId other_of(Testbed& bed, SliceId slice, HostId a, HostId b) {
  return bed.engine().slice_host(slice) == a ? b : a;
}

// While a migration is in flight, a split, a second migration and a merge
// are queued in that order: the migration jumps the split, then the split
// and the merge run FIFO, one operation at a time.
TEST(ElasticOpSchedulingTest, MigrationsRunBeforeSplitsAndMergesEachFifo) {
  Testbed bed{op_config()};
  bed.manager()->set_enforcement(false);
  bed.store_subscriptions(1000);
  const auto& workers = bed.worker_hosts();
  const SliceId m0 = bed.engine().slice_id("M", 0);
  const SliceId m1 = bed.engine().slice_id("M", 1);
  const SliceId ep0 = bed.engine().slice_id("EP", 0);
  const SliceId ep1 = bed.engine().slice_id("EP", 1);

  // Set-up: split M0 so a coverage-sibling pair exists to merge later, then
  // let checkpoints spend the split's roll-forward record.
  std::optional<SliceId> child;
  bed.engine().split_slice(
      m0, other_of(bed, m0, workers[2], workers[3]),
      [&](const engine::ElasticReport& r) {
        ASSERT_EQ(r.outcome, engine::MigrationOutcome::kCompleted);
        child = r.other;
      });
  ASSERT_TRUE(bed.run_until([&] { return child.has_value(); }, seconds(10)));
  bed.run_for(seconds(2));
  ASSERT_EQ(bed.engine().pending_ops(), 0u);

  std::vector<std::string> order;
  std::vector<std::size_t> pending_at_callback;
  const auto record = [&](std::string what) {
    order.push_back(std::move(what));
    pending_at_callback.push_back(bed.engine().pending_ops());
  };
  bed.engine().migrate(ep0, other_of(bed, ep0, workers[0], workers[1]),
                       [&](const engine::ElasticReport& r) {
                         EXPECT_EQ(r.outcome,
                                   engine::MigrationOutcome::kCompleted);
                         record("migrate-1");
                       });
  EXPECT_EQ(bed.engine().pending_ops(), 1u);
  bed.engine().split_slice(
      m1, other_of(bed, m1, workers[2], workers[3]),
      [&](const engine::ElasticReport& r) {
        EXPECT_EQ(r.outcome, engine::MigrationOutcome::kCompleted);
        record("split");
      });
  bed.engine().migrate(ep1, other_of(bed, ep1, workers[0], workers[1]),
                       [&](const engine::ElasticReport& r) {
                         EXPECT_EQ(r.outcome,
                                   engine::MigrationOutcome::kCompleted);
                         record("migrate-2");
                       });
  bed.engine().merge_slices(m0, *child,
                            [&](const engine::ElasticReport& r) {
                              EXPECT_EQ(r.outcome,
                                        engine::MigrationOutcome::kCompleted);
                              record("merge");
                            });
  EXPECT_EQ(bed.engine().pending_ops(), 4u);

  ASSERT_TRUE(bed.run_until([&] { return order.size() == 4; }, seconds(30)));
  EXPECT_EQ(order, (std::vector<std::string>{"migrate-1", "migrate-2",
                                             "split", "merge"}));
  EXPECT_EQ(pending_at_callback, (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(bed.engine().pending_ops(), 0u);
}

// A second split of a parent whose roll-forward record is not yet spent is
// deferred until a checkpoint proves the first capture durable; a migration
// queued meanwhile is not held up behind it.
TEST(ElasticOpSchedulingTest, DeferredSplitLetsMigrationsPass) {
  auto config = op_config();
  config.engine.checkpoints.interval = seconds(30);  // only forced ones land
  Testbed bed{config};
  bed.manager()->set_enforcement(false);
  bed.store_subscriptions(1000);
  const auto& workers = bed.worker_hosts();
  const SliceId m0 = bed.engine().slice_id("M", 0);
  const SliceId ep0 = bed.engine().slice_id("EP", 0);
  const HostId split_dst = other_of(bed, m0, workers[2], workers[3]);

  std::vector<std::string> steps;
  bed.engine().on_elastic_step(
      [&](const engine::ElasticReport& r, std::string_view step) {
        steps.push_back(std::string{engine::to_string(r.kind)} + ":" +
                        std::string{step});
      });

  std::vector<std::string> order;
  bool first_split_done = false;
  bed.engine().split_slice(m0, split_dst,
                           [&](const engine::ElasticReport& r) {
                             ASSERT_EQ(r.outcome,
                                       engine::MigrationOutcome::kCompleted);
                             first_split_done = true;
                           });
  ASSERT_TRUE(bed.run_until([&] { return first_split_done; }, seconds(10)));
  steps.clear();

  // Periodic checkpoints land only every 30 s, so the first split's
  // roll-forward record is still unspent.
  std::optional<engine::ElasticReport> second;
  bed.engine().split_slice(m0, split_dst,
                           [&](const engine::ElasticReport& r) {
                             second = r;
                             order.push_back("split");
                           });
  EXPECT_EQ(bed.engine().pending_ops(), 1u);
  EXPECT_TRUE(steps.empty()) << "deferred split started at once";
  bed.engine().migrate(ep0, other_of(bed, ep0, workers[0], workers[1]),
                       [&](const engine::ElasticReport& r) {
                         EXPECT_EQ(r.outcome,
                                   engine::MigrationOutcome::kCompleted);
                         EXPECT_EQ(bed.engine().pending_ops(), 1u);
                         order.push_back("migrate");
                       });
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.front(), "migrate:create-replica");
  EXPECT_EQ(bed.engine().pending_ops(), 2u);

  ASSERT_TRUE(bed.run_until([&] { return second.has_value(); }, seconds(20)));
  EXPECT_EQ(second->outcome, engine::MigrationOutcome::kCompleted);
  EXPECT_EQ(order, (std::vector<std::string>{"migrate", "split"}));
  // The deferred split's first step came after the migration's last.
  std::size_t first_split_step = steps.size();
  std::size_t last_migrate_step = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].starts_with("migrate:")) last_migrate_step = i;
    if (steps[i].starts_with("split:") && first_split_step == steps.size()) {
      first_split_step = i;
    }
  }
  EXPECT_EQ(steps.at(first_split_step), "split:create-child");
  EXPECT_GT(first_split_step, last_migrate_step);
  EXPECT_EQ(bed.engine().pending_ops(), 0u);
  EXPECT_EQ(bed.engine().splits_completed(), 2u);
}

// ---- golden elastic-op log --------------------------------------------------

using golden::fnv1a;
using golden::kFnvBasis;

// Folds every field a report of its kind carries: a migration's protocol,
// hosts, phase stamps and byte ledger; a split's or merge's slices,
// completion, cut-over and moved entries.
std::uint64_t fold(std::uint64_t h, const engine::ElasticReport& r) {
  h = fnv1a(h, engine::to_string(r.kind));
  h = fnv1a(h, r.id.value());
  h = fnv1a(h, r.slice.value());
  if (r.kind != engine::ElasticKind::kMigrate) {
    h = fnv1a(h, r.other.value());
    h = fnv1a(h, r.outcome == engine::MigrationOutcome::kCompleted ? 1 : 0);
    h = fnv1a(h, r.requested);
    h = fnv1a(h, r.cutover);
    h = fnv1a(h, r.finished);
    return fnv1a(h, r.moved);
  }
  h = fnv1a(h, r.src.value());
  h = fnv1a(h, r.dst.value());
  h = fnv1a(h, r.strategy);
  h = fnv1a(h, static_cast<std::uint64_t>(r.outcome));
  h = fnv1a(h, r.requested);
  h = fnv1a(h, r.frozen);
  h = fnv1a(h, r.activated);
  h = fnv1a(h, r.finished);
  h = fnv1a(h, r.state_bytes);
  h = fnv1a(h, r.transfer_bytes);
  h = fnv1a(h, r.precopy_bytes);
  return fnv1a(h, r.duplicate_bytes);
}

// The manager's enforcer splits the hot M slice and later merges the pair
// back; the parent's host dies mid-drain of the first split (roll-forward
// through recovery); one manual migration of each strategy runs around
// it. Every report field and every (kind, id, step) the chaos hook sees is
// folded into one digest, so any change in what the coordinator does, or
// when, shows up as a different number.
TEST(ElasticOpGoldenTest, SplitCrashMergeAndMigrationsDigest) {
  auto config = op_config();
  config.manager.policy.enable_splits = true;
  config.manager.policy.split_share = 0.002;
  config.manager.policy.merge_share = 0.5;
  config.manager.policy.global_high = 10.0;
  config.manager.policy.global_low = 0.0;
  config.manager.policy.local_high = 10.0;
  config.manager.policy.local_low = 0.0;
  config.manager.policy.grace = seconds(3);
  config.manager.policy.scale_out_grace = seconds(60);
  Testbed bed{config};
  bed.delays().enable_audit();
  bed.store_subscriptions(1000);
  const auto& workers = bed.worker_hosts();

  std::uint64_t steps_digest = kFnvBasis;
  std::size_t steps_seen = 0;
  bool crashed = false;
  bed.engine().on_elastic_step(
      [&](const engine::ElasticReport& r, std::string_view step) {
        steps_digest = fnv1a(fnv1a(fnv1a(steps_digest,
                                         engine::to_string(r.kind)),
                                   r.id.value()),
                             step);
        ++steps_seen;
        if (crashed || r.kind != engine::ElasticKind::kSplit ||
            step != "drain") {
          return;
        }
        crashed = true;
        bed.network().set_host_down(bed.engine().slice_host(r.slice), true);
      });

  std::uint64_t manual_digest = kFnvBasis;
  std::size_t manual_done = 0;
  const auto manual = [&](SliceId slice, HostId dst,
                          engine::MigrationStrategyKind kind) {
    bed.engine().migrate(slice, dst, kind,
                         [&](const engine::ElasticReport& r) {
                           manual_digest = fold(manual_digest, r);
                           ++manual_done;
                         });
  };
  const SliceId ep0 = bed.engine().slice_id("EP", 0);
  const SliceId ep1 = bed.engine().slice_id("EP", 1);
  const SliceId ap0 = bed.engine().slice_id("AP", 0);
  bed.simulator().schedule(millis(1500), [&] {
    manual(ep0, other_of(bed, ep0, workers[0], workers[1]),
           engine::MigrationStrategyKind::kStopAndRestart);
    manual(ep1, other_of(bed, ep1, workers[0], workers[1]),
           engine::MigrationStrategyKind::kIncrementalPrecopy);
  });
  bed.simulator().schedule(seconds(9), [&] {
    manual(ap0, other_of(bed, ap0, workers[0], workers[1]),
           engine::MigrationStrategyKind::kBufferedReplay);
  });

  auto driver =
      bed.drive(std::make_shared<workload::ConstantRate>(200.0, seconds(7)));
  bed.run_for(seconds(7) + millis(10));
  driver->stop();
  ASSERT_TRUE(bed.run_until(
      [&] {
        return bed.engine().merges_completed() >= 1 && manual_done == 3 &&
               !bed.manager()->recovery_in_progress();
      },
      seconds(60)));
  ASSERT_TRUE(bed.run_until(
      [&] {
        return bed.delays().publications_completed() >=
               bed.hub().publications_sent();
      },
      seconds(120)));
  bed.run_for(seconds(1));

  EXPECT_TRUE(crashed);
  EXPECT_GE(bed.manager()->recoveries().size(), 1u);
  EXPECT_GE(bed.engine().splits_completed(), 1u);
  EXPECT_GE(bed.engine().merges_completed(), 1u);
  const auto audit = verify_exactly_once(bed);
  EXPECT_TRUE(audit.exactly_once())
      << "published=" << audit.published << " missing=" << audit.missing
      << " duplicated=" << audit.duplicated
      << " mismatched=" << audit.mismatched;

  std::uint64_t h = fnv1a(kFnvBasis, manual_digest);
  for (const auto& r : bed.manager()->migrations()) h = fold(h, r);
  for (const auto& r : bed.manager()->transitions()) h = fold(h, r);
  h = fnv1a(fnv1a(h, steps_digest), steps_seen);
  EXPECT_EQ(h, 16333662513923728146ULL)
      << "manual migrations=" << manual_done
      << " manager migrations=" << bed.manager()->migrations().size()
      << " transitions=" << bed.manager()->transitions().size()
      << " hook steps=" << steps_seen;
}

}  // namespace
}  // namespace esh::harness
