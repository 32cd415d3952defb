// Sublinear plain-text matching for million-subscriber stores.
//
// The brute-force backend touches every stored subscription per publication --
// O(subs) work that caps the matching tier well short of the ROADMAP's
// million-user north-star. IntervalIndexMatcher prunes by predicate selectivity
// instead: each subscription registers exactly ONE of its intervals -- the
// narrowest (covering rule: any match must stab every predicate, so the most
// selective one admits the fewest false candidates; its wider, dominated
// siblings are dropped from the index and only consulted during verification)
// -- in a per-attribute centered interval tree. A publication stabs each
// attribute's tree with its value and only the subscriptions whose registered
// interval contains the value surface as candidates; each candidate is then
// verified against the full rectangle (minus the already-certified registered
// attribute) straight from the arena columns, with early exit. A
// subscription with an empty predicate (low > high, or a NaN bound) can
// match nothing; it is stored like any other but registered nowhere.
//
// Storage is an arena-backed SoA pool: stable 32-bit slots, per-attribute
// low/high columns with never-matching sentinels past a subscription's
// dimension count, holes reused LIFO -- no per-subscription allocations on
// the add/remove path and O(1) removal via an id->slot map.
//
// The trees are maintained per attribute: add and remove dirty only the
// tree of the subscription's registered attribute (or the zero-dimension
// list), and the next match rebuilds just the dirty ones -- one rebuild
// amortized over the matches that follow. Each attribute keeps its registered
// slots in two sorted orders, (low asc, id asc) and (high desc, id asc),
// as 8-byte {slot, generation} refs: add appends to a pending list, remove
// bumps the slot's generation, and a rebuild drops the stale refs, sorts
// only the pending ones and merges them in. The tree build then works on
// those presorted orders alone -- the center is found by binary search
// over the two sorted endpoint sequences, and stable three-way partitions
// of both orders yield each node's cross lists already ordered -- so
// neither a sort nor a per-node allocation remains on the rebuild path,
// which costs O(m + p log p) order maintenance (m registered, p pending)
// plus a linear pass per tree level.
//
// Every tie inside a tree breaks on subscription id, never on slot, and
// the tree is a function of the registered set alone, not of its input
// order: the candidate traversal -- and with it the subscriber append
// order and the work-unit counts -- is a pure function of the live
// subscription set, identical for any slot-reuse or churn history. That
// is what makes serialize/split/merge byte-stable.
//
// Work accounting uses the CostModel index family: index_node_units per
// tree node visited on the stabbing descents plus index_candidate_units
// per candidate verified. Both are exact integer counts, so work_units is
// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cost_model.hpp"
#include "common/keyspace.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "filter/matcher.hpp"

namespace esh::filter {

class IntervalIndexMatcher final : public Matcher {
 public:
  explicit IntervalIndexMatcher(cluster::CostModel cost = {});

  void add(const AnySubscription& sub) override;
  bool remove(SubscriptionId id) override;
  [[nodiscard]] MatchOutcome match(const AnyPublication& pub) override;
  [[nodiscard]] double estimate_match_units() const override;
  [[nodiscard]] std::size_t subscription_count() const override;
  [[nodiscard]] std::size_t state_bytes() const override;
  void serialize_state(BinaryWriter& w) const override;
  void restore_state(BinaryReader& r) override;
  std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w) override;
  void absorb_state(BinaryReader& r) override;
  [[nodiscard]] std::unique_ptr<Matcher> clone_empty() const override;
  [[nodiscard]] std::string scheme_name() const override {
    return "plain-interval";
  }

 private:
  struct TreeEntry {
    double low;
    double high;
    std::uint32_t slot;
  };
  // Centered interval-tree node, flattened: intervals entirely below the
  // center live in the left subtree, entirely above in the right, and the
  // ones straddling it in two cross lists -- ascending-low for descents to
  // the left of the center, descending-high for descents to the right --
  // so a stab scans exactly the stabbing prefix of one list per node.
  struct TreeNode {
    double center;
    std::int32_t left;
    std::int32_t right;
    std::uint32_t cross_begin;
    std::uint32_t cross_count;
  };
  struct AttrTree {
    std::vector<TreeNode> nodes;  // node 0 is the root when non-empty
    std::vector<TreeEntry> asc;   // cross lists by (low asc, id asc)
    std::vector<TreeEntry> desc;  // cross lists by (high desc, id asc)
  };
  // A slot as it was when the ref was taken; stale once the slot's
  // generation moves on (removal, which precedes any reuse).
  struct SlotRef {
    std::uint32_t slot;
    std::uint32_t gen;
  };
  // One attribute: the tree matches read, and the sorted orders of its
  // registered slots the tree is rebuilt from.
  struct AttrIndex {
    AttrTree tree;
    std::vector<SlotRef> by_low;   // (low asc, id asc)
    std::vector<SlotRef> by_high;  // (high desc, id asc)
    std::vector<SlotRef> pending;  // added since the last rebuild
    bool dirty = false;
  };

  void rebuild_if_dirty();
  void rebuild_attribute(std::size_t attr);
  // Builds the subtree over `n` entries given in both orders; partitions
  // them in place (stably) and uses `spill` as n entries of scratch.
  std::int32_t build_node(AttrTree& tree, TreeEntry* by_low,
                          TreeEntry* by_high, std::size_t n,
                          TreeEntry* spill);
  [[nodiscard]] bool stale(SlotRef ref) const {
    return gens_[ref.slot] != ref.gen;
  }
  // Drops stale refs from `order` and merges `fresh` (live, sorted by
  // `less`) in.
  template <class Less>
  void merge_fresh(std::vector<SlotRef>& order,
                   const std::vector<SlotRef>& fresh, Less less) const;
  // Full-rectangle verification of one stabbed candidate; `reg` is the
  // attribute the stab already certified.
  void verify_and_emit(std::uint32_t slot, std::size_t reg,
                       const Publication& pub, MatchOutcome& out) const;
  void punch_hole(std::uint32_t slot);
  void write_slot(BinaryWriter& w, std::uint32_t slot) const;
  [[nodiscard]] std::vector<std::uint32_t> live_slots_by_id() const;

  cluster::CostModel cost_;
  // Arena SoA pool, dense by slot; an invalid id marks a hole.
  std::vector<SubscriptionId> ids_;
  std::vector<SubscriberId> subscribers_;
  std::vector<std::uint32_t> dims_;
  std::vector<std::uint32_t> reg_attr_;  // or kNoAttribute/kUnregistered
  std::vector<std::vector<double>> lows_;   // [attribute][slot]
  std::vector<std::vector<double>> highs_;  // [attribute][slot]
  std::vector<std::uint32_t> free_slots_;   // LIFO reuse
  std::vector<std::uint32_t> gens_;         // bumped when a slot is freed
  // O(1) removal; lookups only, never iterated.
  std::unordered_map<SubscriptionId, std::uint32_t> slot_of_;
  std::vector<AttrIndex> attrs_;  // per attribute
  std::vector<SlotRef> zero_dim_;          // id-ascending at rebuild
  std::vector<SlotRef> zero_dim_pending_;  // added since the last rebuild
  bool zero_dim_dirty_ = false;
  std::size_t live_count_ = 0;
  std::size_t predicate_count_ = 0;  // live predicates (state accounting)
  std::size_t max_dims_ = 0;         // historical max, like AspeMatcher's
};

}  // namespace esh::filter
