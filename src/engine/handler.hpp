// Operator handler interface: the application logic of an operator slice.
// All slices of an operator run the same handler code; each slice owns a
// private handler instance whose state is never shared with sibling slices
// (paper §III). Handlers declare the lock mode and simulated CPU cost of
// each event so the host model charges work faithfully.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/host.hpp"
#include "common/keyspace.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "engine/event.hpp"

namespace esh::engine {

// How an emitted event selects destination slice(s) of the target operator.
class Routing {
 public:
  enum class Kind { kToIndex, kBroadcast, kHash };

  static Routing to_index(std::size_t index) {
    return Routing{Kind::kToIndex, index, 0};
  }
  static Routing broadcast() { return Routing{Kind::kBroadcast, 0, 0}; }
  // Modulo-hash partitioning (the AP and EP dispatch rule).
  static Routing hash(std::uint64_t key) { return Routing{Kind::kHash, 0, key}; }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] std::uint64_t key() const { return key_; }

 private:
  Routing(Kind kind, std::size_t index, std::uint64_t key)
      : kind_(kind), index_(index), key_(key) {}
  Kind kind_;
  std::size_t index_;
  std::uint64_t key_;
};

// Capabilities a handler may use while processing an event.
class Context {
 public:
  virtual ~Context() = default;
  virtual void emit(std::string_view op, Routing routing, PayloadPtr payload) = 0;
  [[nodiscard]] virtual SimTime now() const = 0;
  [[nodiscard]] virtual std::size_t slice_index() const = 0;
  [[nodiscard]] virtual std::size_t slice_count(std::string_view op) const = 0;
  // Current broadcast fan of `op`: the slice indices a kBroadcast emit
  // reaches right now, ascending. Changes when a slice splits or merges;
  // handlers stamp it into payloads whose downstream completion logic must
  // match the fan the event was actually routed with.
  [[nodiscard]] virtual std::vector<std::uint32_t> fan_indices(
      std::string_view op) const = 0;
};

class Handler {
 public:
  virtual ~Handler() = default;

  virtual void on_event(Context& ctx, const PayloadPtr& payload) = 0;

  // ---- batched processing ----
  // True when `payload` may be coalesced with adjacent batchable events of
  // the same in-order delivery run into one precomputed batch. All of a
  // batch's jobs are submitted consecutively within one simulator callback
  // and jobs of one slice dispatch in submission order, so no foreign job of
  // this slice (checkpoint, freeze, another channel's run) interleaves
  // between a batch's events. The per-event emissions must be byte-identical
  // to processing the same events serially, which read-only events
  // (publication matching, MHandler) satisfy trivially. Their kRead jobs run
  // concurrently in simulated time and may *complete* out of submission
  // order, so a precomputed result must be checked against the event that
  // consumes it.
  [[nodiscard]] virtual bool can_batch(const PayloadPtr& payload) const {
    (void)payload;
    return false;
  }
  // Called once per coalesced batch, immediately before the first of its
  // events is processed (i.e. after every earlier job of the slice, so the
  // handler state it observes is exactly the serial-processing state); lets
  // the handler run one batched computation whose per-event results the
  // subsequent on_event calls consume. The simulated cost of the batch is
  // still charged per event through cost_units(), so batching never changes
  // simulated work or scheduling.
  virtual void on_batch_start(Context& ctx,
                              const std::vector<PayloadPtr>& batch) {
    (void)ctx;
    (void)batch;
  }

  // Simulated single-core cost of processing `payload` now (cost-model
  // units); evaluated when the event is handed to the host scheduler.
  [[nodiscard]] virtual double cost_units(const PayloadPtr& payload) const = 0;

  // Slice-lock mode for processing `payload` (R parallelizes across cores).
  [[nodiscard]] virtual cluster::LockMode lock_mode(
      const PayloadPtr& payload) const = 0;

  // ---- state management (migration support) ----
  virtual void serialize_state(BinaryWriter& w) const { (void)w; }
  virtual void restore_state(BinaryReader& r) { (void)r; }
  [[nodiscard]] virtual std::size_t state_bytes() const { return 0; }
  // CPU cost of instantiating an empty replica (runtime + library setup).
  [[nodiscard]] virtual double replica_init_units() const { return 5e4; }

  // ---- key-level state split / merge (fine-grained elasticity) ----
  // A splittable handler partitions its state by routing key. split_state
  // atomically serializes the part covered by `cov` (restorable by
  // restore_state) and removes it from the live state, returning the number
  // of state entries moved; absorb_state merges a previously split-off part
  // back in. Non-splittable handlers keep the defaults.
  [[nodiscard]] virtual bool supports_split() const { return false; }
  [[nodiscard]] virtual std::size_t split_state(const KeyCoverage& cov,
                                                BinaryWriter& w) {
    (void)cov;
    (void)w;
    throw std::logic_error{"handler does not support split_state"};
  }
  virtual void absorb_state(BinaryReader& r) {
    (void)r;
    throw std::logic_error{"handler does not support absorb_state"};
  }
};

using HandlerFactory =
    std::function<std::unique_ptr<Handler>(std::size_t slice_index)>;

struct OperatorSpec {
  std::string name;
  std::size_t slices = 1;
  HandlerFactory factory;
};

struct DagEdge {
  std::string from;
  std::string to;
};

struct Topology {
  std::vector<OperatorSpec> operators;
  std::vector<DagEdge> edges;
};

}  // namespace esh::engine
