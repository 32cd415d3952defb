// Pluggable migration protocols ("To Migrate or not to Migrate", arXiv
// 2203.03501): the coordinator's step chain in engine/engine.cpp is
// parameterized by a MigrationStrategy, so the buffer-and-replay scheme of
// the source paper (§IV-A Fig. 3), a stop-and-restart protocol (freeze the
// source, ship the full checkpoint, resume at the target — minimal
// transfer, maximal downtime) and an incremental pre-copy protocol
// (iterative dirty-delta shipping while the source serves, bounded final
// stop-and-copy — minimal downtime, extra transfer) share one coordinator,
// one abort matrix and one differential test battery.
//
// A strategy is one row of a static table indexed by MigrationStrategyKind
// (the operator-spec table idiom of SNIPPETS.md #1): its kind, its name and
// its coordinator spec table in src/analysis/protocol_spec.cpp. The rest of
// the row is read off that spec table once, when the row is built: where
// each MigrationStep lands among the table's states, whether the
// duplication round parks the channels (the table has a `park` state) and
// whether dirty-delta rounds run (it has a `precopy` state). The model
// checker's migration model reads the same facts off the same tables, so
// adding a strategy means adding a row here plus a spec table — not another
// copy of the step machine. A migration's ElasticOp points at its row, and
// every step change is checked against the row's spec table.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace esh::analysis {
class StateMachineSpec;
}

namespace esh::engine {

enum class MigrationStep;  // full declaration in engine/engine.hpp
struct EngineConfig;

// Stable identifiers for the registered protocols, in table order. The
// elastic enforcer plans in terms of this enum (predicted state size and
// input rate pick the protocol; see elastic/enforcer.hpp select_strategy).
enum class MigrationStrategyKind {
  kBufferedReplay,      // paper §IV-A: shadow duplication + catch-up freeze
  kStopAndRestart,      // park channels at the target, ship one checkpoint
  kIncrementalPrecopy,  // dirty-delta rounds, bounded final stop-and-copy
};

// The row's name.
[[nodiscard]] const char* to_string(MigrationStrategyKind kind);

// One row of the strategy table; immutable once built.
class MigrationStrategy {
 public:
  MigrationStrategy(MigrationStrategyKind kind, const char* name,
                    const analysis::StateMachineSpec& spec);

  [[nodiscard]] MigrationStrategyKind kind() const { return kind_; }
  [[nodiscard]] std::string_view name() const { return name_; }
  // The strategy's coordinator state machine (single source of truth shared
  // with the model checker and docs/SPEC_CATALOG.md).
  [[nodiscard]] const analysis::StateMachineSpec& spec() const {
    return *spec_;
  }
  // Park mode: during the duplication round upstream hosts redirect the
  // slice's channels to the replica instead of mirroring them — the source
  // sees no event past the park point (stop-and-restart).
  [[nodiscard]] bool redirect_channels() const { return redirect_channels_; }
  // Pre-copy: dirty-delta rounds run between duplication and the final
  // freeze (the table has a `precopy` state). After them the final transfer
  // ships only the pages changed since the last round, against the baseline
  // the replica already holds.
  [[nodiscard]] bool precopy() const { return precopy_; }
  // Dirty-delta rounds shipped before the final freeze (0 = none).
  [[nodiscard]] std::size_t precopy_rounds(const EngineConfig& config) const;
  // Index of `step` in spec() — states are strategy-local, so the shared
  // MigrationStep enum maps through here. Steps a strategy never takes map
  // out of range, which spec().legal() reports as illegal.
  [[nodiscard]] std::size_t spec_index(MigrationStep step) const;

 private:
  MigrationStrategyKind kind_;
  const char* name_;
  const analysis::StateMachineSpec* spec_;
  std::vector<std::size_t> spec_index_;  // by MigrationStep value
  bool redirect_channels_;
  bool precopy_;
};

// The row of `kind`; rows live for the whole process.
[[nodiscard]] const MigrationStrategy& strategy_for(MigrationStrategyKind kind);
// Every row, in MigrationStrategyKind declaration order (the differential
// suite and the bench sweep iterate this).
[[nodiscard]] const std::vector<const MigrationStrategy*>&
migration_strategies();

}  // namespace esh::engine
