#include "engine/migration_strategy.hpp"

#include <array>

#include "analysis/protocol_spec.hpp"
#include "engine/engine.hpp"

namespace esh::engine {

namespace {

constexpr std::size_t kSteps =
    static_cast<std::size_t>(MigrationStep::kPrecopy) + 1;

const std::array<MigrationStrategy, 3>& strategy_table() {
  static const std::array<MigrationStrategy, 3> rows{{
      // The source paper's protocol (§IV-A Fig. 3): upstream hosts mirror
      // the slice's channels to the replica while the source keeps serving,
      // the source freezes once caught up to the duplication point, and the
      // full checkpoint ships during a short stop window.
      {MigrationStrategyKind::kBufferedReplay, "buffered-replay",
       analysis::migration_spec()},
      // Stop-and-restart: the duplication round runs in park mode — upstream
      // hosts redirect the channels to the replica instead of mirroring, so
      // the source drains to the park point, freezes, and one full
      // checkpoint ships. Fewest bytes on the wire (no duplicate traffic,
      // one state copy), longest event-delay spike (nothing serves between
      // park and activation).
      {MigrationStrategyKind::kStopAndRestart, "stop-and-restart",
       analysis::stop_restart_spec()},
      // Incremental pre-copy: after the mirrored duplication round, the
      // source ships its serialized image in rounds — round 1 the full
      // baseline, later rounds only the pages dirtied since the previous
      // round — while still serving. The final freeze ships just the last
      // delta, so the stop window shrinks to the residual dirty set at the
      // cost of extra transfer.
      {MigrationStrategyKind::kIncrementalPrecopy, "incremental-precopy",
       analysis::precopy_spec()},
  }};
  return rows;
}

}  // namespace

MigrationStrategy::MigrationStrategy(MigrationStrategyKind kind,
                                     const char* name,
                                     const analysis::StateMachineSpec& spec)
    : kind_(kind), name_(name), spec_(&spec) {
  // A step maps onto the spec state of the same name; a step the table
  // lacks maps to kNoState, out of range of legal().
  for (std::size_t v = 0; v < kSteps; ++v) {
    spec_index_.push_back(
        spec.find_state(to_string(static_cast<MigrationStep>(v))));
  }
  redirect_channels_ = spec_index(MigrationStep::kPark) !=
                       analysis::StateMachineSpec::kNoState;
  precopy_ = spec_index(MigrationStep::kPrecopy) !=
             analysis::StateMachineSpec::kNoState;
}

std::size_t MigrationStrategy::precopy_rounds(
    const EngineConfig& config) const {
  return precopy_ ? config.precopy_rounds : 0;
}

std::size_t MigrationStrategy::spec_index(MigrationStep step) const {
  return spec_index_[static_cast<std::size_t>(step)];
}

const char* to_string(MigrationStrategyKind kind) {
  return strategy_for(kind).name().data();  // names are string literals
}

const MigrationStrategy& strategy_for(MigrationStrategyKind kind) {
  return strategy_table()[static_cast<std::size_t>(kind)];
}

const std::vector<const MigrationStrategy*>& migration_strategies() {
  static const std::vector<const MigrationStrategy*> all = [] {
    std::vector<const MigrationStrategy*> rows;
    for (const MigrationStrategy& row : strategy_table()) rows.push_back(&row);
    return rows;
  }();
  return all;
}

}  // namespace esh::engine
