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
// Strategies are stateless singletons looked up through a registry (the
// pluggable-capability idiom of mtl_operator_specification in SNIPPETS.md):
// a migration's ElasticOp holds a strategy pointer, and every step change is
// checked against the strategy's own spec table in
// src/analysis/protocol_spec.cpp.
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

// Stable identifiers for the registered protocols. The elastic enforcer
// plans in terms of this enum (predicted state size and input rate pick the
// protocol; see elastic/enforcer.hpp select_strategy).
enum class MigrationStrategyKind {
  kBufferedReplay,      // paper §IV-A: shadow duplication + catch-up freeze
  kStopAndRestart,      // park channels at the target, ship one checkpoint
  kIncrementalPrecopy,  // dirty-delta rounds, bounded final stop-and-copy
};

[[nodiscard]] const char* to_string(MigrationStrategyKind kind);

// Capability flags of one migration protocol. The coordinator chain asks
// the strategy what each phase does instead of branching on a protocol
// enum, so adding a strategy means adding a row here plus a spec table —
// not another copy of the step machine.
class MigrationStrategy {
 public:
  virtual ~MigrationStrategy() = default;
  MigrationStrategy(const MigrationStrategy&) = delete;
  MigrationStrategy& operator=(const MigrationStrategy&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual MigrationStrategyKind kind() const = 0;
  // The strategy's coordinator state machine (single source of truth shared
  // with the model checker and docs/SPEC_CATALOG.md).
  [[nodiscard]] virtual const analysis::StateMachineSpec& spec() const = 0;
  // Park mode: during the duplication round upstream hosts redirect the
  // slice's channels to the replica instead of mirroring them — the source
  // sees no event past the park point (stop-and-restart).
  [[nodiscard]] virtual bool redirect_channels() const = 0;
  // Dirty-delta rounds shipped before the final freeze (0 = none).
  [[nodiscard]] virtual std::size_t precopy_rounds(
      const EngineConfig& config) const = 0;
  // Final state transfer ships only the pages changed since the last
  // pre-copy round, against the baseline the replica already holds.
  [[nodiscard]] virtual bool delta_transfer() const = 0;
  // Index of `step` in spec() — states are strategy-local, so the shared
  // MigrationStep enum maps through here. Steps a strategy never takes map
  // out of range, which spec().legal() reports as illegal.
  [[nodiscard]] virtual std::size_t spec_index(MigrationStep step) const = 0;

 protected:
  MigrationStrategy() = default;
};

// Registry: every strategy is a process-lifetime singleton.
[[nodiscard]] const MigrationStrategy& strategy_for(MigrationStrategyKind kind);
// nullptr when no strategy has that name.
[[nodiscard]] const MigrationStrategy* find_strategy(std::string_view name);
// All registered strategies, in MigrationStrategyKind declaration order
// (the differential suite and the bench sweep iterate this).
[[nodiscard]] const std::vector<const MigrationStrategy*>&
migration_strategies();

}  // namespace esh::engine
