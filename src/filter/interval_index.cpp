#include "filter/interval_index.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>


namespace esh::filter {

namespace {

// Sentinel bounds for SoA columns past a subscription's dimension count
// (and for holes): an empty interval no attribute value can satisfy.
constexpr double kNeverLow = std::numeric_limits<double>::infinity();
constexpr double kNeverHigh = -std::numeric_limits<double>::infinity();

// reg_attr_ sentinel for zero-dimension subscriptions and holes.
constexpr std::uint32_t kNoAttribute = 0xffffffffu;
// reg_attr_ value of a subscription with an empty predicate (low > high,
// or a NaN bound): it can match nothing, so it is stored but registered
// in no tree and not on the zero-dimension list, which matches every
// zero-dimension publication.
constexpr std::uint32_t kUnregistered = 0xfffffffeu;

// Covering rule: the registered interval is the narrowest predicate (ties
// break on the lowest attribute index), so the index admits the fewest
// false candidates the subscription's own shape allows.
std::uint32_t registered_attribute(const Subscription& plain) {
  std::uint32_t reg = kNoAttribute;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < plain.predicates.size(); ++a) {
    // An inverted interval would also send build_node's recursion past
    // every center forever.
    if (!(plain.predicates[a].low <= plain.predicates[a].high)) {
      return kUnregistered;
    }
    const double width = plain.predicates[a].high - plain.predicates[a].low;
    if (width < best) {
      best = width;
      reg = static_cast<std::uint32_t>(a);
    }
  }
  return reg;
}

}  // namespace

IntervalIndexMatcher::IntervalIndexMatcher(cluster::CostModel cost)
    : cost_(cost) {}

void IntervalIndexMatcher::add(const AnySubscription& sub) {
  const auto& plain = std::get<Subscription>(sub);
  const std::size_t d = plain.predicates.size();
  if (d > lows_.size()) {
    lows_.resize(d, std::vector<double>(ids_.size(), kNeverLow));
    highs_.resize(d, std::vector<double>(ids_.size(), kNeverHigh));
    attrs_.resize(d);
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    ids_[slot] = plain.id;
    subscribers_[slot] = plain.subscriber;
    dims_[slot] = static_cast<std::uint32_t>(d);
    for (std::size_t a = 0; a < lows_.size(); ++a) {
      lows_[a][slot] = a < d ? plain.predicates[a].low : kNeverLow;
      highs_[a][slot] = a < d ? plain.predicates[a].high : kNeverHigh;
    }
  } else {
    slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(plain.id);
    subscribers_.push_back(plain.subscriber);
    dims_.push_back(static_cast<std::uint32_t>(d));
    reg_attr_.push_back(kNoAttribute);
    gens_.push_back(0);
    for (std::size_t a = 0; a < lows_.size(); ++a) {
      lows_[a].push_back(a < d ? plain.predicates[a].low : kNeverLow);
      highs_[a].push_back(a < d ? plain.predicates[a].high : kNeverHigh);
    }
  }
  const std::uint32_t reg = registered_attribute(plain);
  reg_attr_[slot] = reg;
  const SlotRef ref{slot, gens_[slot]};
  if (reg == kNoAttribute) {
    zero_dim_pending_.push_back(ref);
    zero_dim_dirty_ = true;
  } else if (reg != kUnregistered) {
    attrs_[reg].pending.push_back(ref);
    attrs_[reg].dirty = true;
  }
  slot_of_[plain.id] = slot;
  predicate_count_ += d;
  max_dims_ = std::max(max_dims_, d);
  ++live_count_;
}

void IntervalIndexMatcher::punch_hole(std::uint32_t slot) {
  // The slot's refs go stale; only the order it was registered in needs
  // to drop them.
  ++gens_[slot];
  if (reg_attr_[slot] == kNoAttribute) {
    zero_dim_dirty_ = true;
  } else if (reg_attr_[slot] != kUnregistered) {
    attrs_[reg_attr_[slot]].dirty = true;
  }
  predicate_count_ -= dims_[slot];
  ids_[slot] = SubscriptionId{};
  subscribers_[slot] = SubscriberId{};
  dims_[slot] = 0;
  reg_attr_[slot] = kNoAttribute;
  for (auto& col : lows_) col[slot] = kNeverLow;
  for (auto& col : highs_) col[slot] = kNeverHigh;
  free_slots_.push_back(slot);
  --live_count_;
}

bool IntervalIndexMatcher::remove(SubscriptionId id) {
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  punch_hole(it->second);
  slot_of_.erase(it);
  return true;
}

std::vector<std::uint32_t> IntervalIndexMatcher::live_slots_by_id() const {
  std::vector<std::uint32_t> live;
  live.reserve(live_count_);
  for (std::uint32_t slot = 0; slot < ids_.size(); ++slot) {
    if (ids_[slot].valid()) live.push_back(slot);
  }
  // Ascending subscription id: the canonical wire order, independent of
  // the slot layout.
  std::sort(live.begin(), live.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return ids_[a].value() < ids_[b].value();
            });
  return live;
}

namespace {

// The n-th smallest (0-based) of the 2n endpoints of n intervals, given
// the lows ascending (by_low[i].low) and the highs descending
// (by_high[i].high). The n + 1 smallest endpoints are some i lows plus
// n + 1 - i highs, i in [1, n]; the right i is the smallest whose next
// low is not below the last high taken, and the answer is the larger of
// the two last taken.
template <class Entry>
double median_endpoint(const Entry* by_low, const Entry* by_high,
                       std::size_t n) {
  const auto high_asc = [&](std::size_t j) { return by_high[n - 1 - j].high; };
  std::size_t lo = 1;
  std::size_t hi = n;
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    if (by_low[i].low >= high_asc(n - i)) {
      hi = i;
    } else {
      lo = i + 1;
    }
  }
  return std::max(by_low[lo - 1].low, high_asc(n - lo));
}

}  // namespace

std::int32_t IntervalIndexMatcher::build_node(AttrTree& tree,
                                              TreeEntry* by_low,
                                              TreeEntry* by_high,
                                              std::size_t n,
                                              TreeEntry* spill) {
  if (n == 0) return -1;
  // Center on the median endpoint: the entry owning that endpoint always
  // straddles the center, so the cross list is never empty and each
  // subtree holds at most half the endpoints -- termination and O(log n)
  // depth. Only the order statistic's value is used, so the tree does not
  // depend on how ties among endpoints were ordered.
  const double center = median_endpoint(by_low, by_high, n);
  // Stable three-way partition of both orders: left entries compact to the
  // front, right ones follow via `spill`, and the straddling ones go
  // straight to the cross lists -- already (low asc, id asc) and
  // (high desc, id asc), because the orders they come from are.
  const auto idx = static_cast<std::int32_t>(tree.nodes.size());
  const auto cross_begin = static_cast<std::uint32_t>(tree.asc.size());
  std::size_t left = 0;
  std::size_t right = 0;
  const auto partition = [&](TreeEntry* order, std::vector<TreeEntry>& cross) {
    left = 0;
    right = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const TreeEntry e = order[i];
      if (e.high < center) {
        order[left++] = e;
      } else if (e.low > center) {
        spill[right++] = e;
      } else {
        cross.push_back(e);
      }
    }
    std::copy_n(spill, right, order + left);
  };
  partition(by_low, tree.asc);
  partition(by_high, tree.desc);
  tree.nodes.push_back(
      TreeNode{center, -1, -1, cross_begin,
               static_cast<std::uint32_t>(tree.asc.size() - cross_begin)});
  const std::int32_t l = build_node(tree, by_low, by_high, left, spill);
  const std::int32_t r = build_node(tree, by_low + left, by_high + left,
                                    right, spill);
  tree.nodes[static_cast<std::size_t>(idx)].left = l;
  tree.nodes[static_cast<std::size_t>(idx)].right = r;
  return idx;
}

template <class Less>
void IntervalIndexMatcher::merge_fresh(std::vector<SlotRef>& order,
                                       const std::vector<SlotRef>& fresh,
                                       Less less) const {
  // Into an exactly sized vector: the orders are the index's largest
  // persistent structure, so growth slack would cost resident memory.
  std::vector<SlotRef> merged;
  merged.reserve(order.size() + fresh.size());
  auto next = fresh.begin();
  for (const SlotRef ref : order) {
    if (stale(ref)) continue;
    while (next != fresh.end() && less(*next, ref)) merged.push_back(*next++);
    merged.push_back(ref);
  }
  merged.insert(merged.end(), next, fresh.end());
  order = std::move(merged);
}

void IntervalIndexMatcher::rebuild_attribute(std::size_t attr) {
  AttrIndex& index = attrs_[attr];
  const std::vector<double>& lows = lows_[attr];
  const std::vector<double>& highs = highs_[attr];
  const auto id = [this](SlotRef ref) { return ids_[ref.slot].value(); };
  // Value order with id tie-breaks, never slot: the stabbing traversal
  // (and the subscriber append order it produces) is identical for any
  // slot layout holding the same live set.
  const auto by_low = [&](SlotRef x, SlotRef y) {
    if (lows[x.slot] != lows[y.slot]) return lows[x.slot] < lows[y.slot];
    return id(x) < id(y);
  };
  const auto by_high = [&](SlotRef x, SlotRef y) {
    if (highs[x.slot] != highs[y.slot]) return highs[x.slot] > highs[y.slot];
    return id(x) < id(y);
  };
  std::erase_if(index.pending, [this](SlotRef ref) { return stale(ref); });
  std::sort(index.pending.begin(), index.pending.end(), by_low);
  merge_fresh(index.by_low, index.pending, by_low);
  std::sort(index.pending.begin(), index.pending.end(), by_high);
  merge_fresh(index.by_high, index.pending, by_high);
  index.pending = {};  // the initial load's capacity would linger

  const std::size_t n = index.by_low.size();
  const auto entry = [&](SlotRef ref) {
    return TreeEntry{lows[ref.slot], highs[ref.slot], ref.slot};
  };
  // Both orders as entries, then n entries of partition scratch.
  const auto work = std::make_unique_for_overwrite<TreeEntry[]>(3 * n);
  std::transform(index.by_low.begin(), index.by_low.end(), work.get(), entry);
  std::transform(index.by_high.begin(), index.by_high.end(), work.get() + n,
                 entry);
  AttrTree& tree = index.tree;
  tree.nodes.clear();
  tree.asc.clear();
  tree.desc.clear();
  // Every entry lands in exactly one node's cross list: reserving n up
  // front leaves no growth slack.
  tree.asc.reserve(n);
  tree.desc.reserve(n);
  build_node(tree, work.get(), work.get() + n, n, work.get() + 2 * n);
  index.dirty = false;
}

void IntervalIndexMatcher::rebuild_if_dirty() {
  if (zero_dim_dirty_) {
    std::erase_if(zero_dim_pending_,
                  [this](SlotRef ref) { return stale(ref); });
    const auto by_id = [this](SlotRef x, SlotRef y) {
      return ids_[x.slot].value() < ids_[y.slot].value();
    };
    std::sort(zero_dim_pending_.begin(), zero_dim_pending_.end(), by_id);
    merge_fresh(zero_dim_, zero_dim_pending_, by_id);
    zero_dim_pending_ = {};
    zero_dim_dirty_ = false;
  }
  for (std::size_t a = 0; a < attrs_.size(); ++a) {
    if (attrs_[a].dirty) rebuild_attribute(a);
  }
}

void IntervalIndexMatcher::verify_and_emit(std::uint32_t slot, std::size_t reg,
                                           const Publication& pub,
                                           MatchOutcome& out) const {
  const std::size_t d = pub.attributes.size();
  if (dims_[slot] != d) return;
  for (std::size_t a = 0; a < d; ++a) {
    if (a == reg) continue;  // covering: the stab already certified it
    const double v = pub.attributes[a];
    if (lows_[a][slot] > v || v > highs_[a][slot]) return;
  }
  out.subscribers.push_back(subscribers_[slot]);
}

MatchOutcome IntervalIndexMatcher::match(const AnyPublication& pub) {
  const auto& plain = std::get<Publication>(pub);
  rebuild_if_dirty();
  MatchOutcome out;
  std::uint64_t nodes_visited = 0;
  std::uint64_t examined = 0;
  const std::size_t d = plain.attributes.size();
  if (d == 0) {
    for (const SlotRef ref : zero_dim_) {
      ++examined;
      out.subscribers.push_back(subscribers_[ref.slot]);
    }
  }
  const std::size_t arity = std::min(d, attrs_.size());
  for (std::size_t a = 0; a < arity; ++a) {
    const AttrTree& tree = attrs_[a].tree;
    if (tree.nodes.empty()) continue;
    const double v = plain.attributes[a];
    std::int32_t node = 0;
    while (node >= 0) {
      ++nodes_visited;
      const TreeNode& nd = tree.nodes[static_cast<std::size_t>(node)];
      if (v < nd.center) {
        // Everything in the cross list has high >= center > v; the
        // stabbing subset is exactly the ascending-low prefix with
        // low <= v.
        const TreeEntry* e = tree.asc.data() + nd.cross_begin;
        for (std::uint32_t i = 0; i < nd.cross_count && e[i].low <= v; ++i) {
          ++examined;
          verify_and_emit(e[i].slot, a, plain, out);
        }
        node = nd.left;
      } else if (v > nd.center) {
        // Symmetric: low <= center < v, stabbing subset is the
        // descending-high prefix with high >= v.
        const TreeEntry* e = tree.desc.data() + nd.cross_begin;
        for (std::uint32_t i = 0; i < nd.cross_count && e[i].high >= v; ++i) {
          ++examined;
          verify_and_emit(e[i].slot, a, plain, out);
        }
        node = nd.right;
      } else {
        // v == center: every cross entry stabs; subtrees cannot.
        const TreeEntry* e = tree.asc.data() + nd.cross_begin;
        for (std::uint32_t i = 0; i < nd.cross_count; ++i) {
          ++examined;
          verify_and_emit(e[i].slot, a, plain, out);
        }
        node = -1;
      }
    }
  }
  // Exact integer counts, identical for any slot layout of the same live
  // set.
  out.work_units =
      cost_.index_node_units * static_cast<double>(nodes_visited) +
      cost_.index_candidate_units * static_cast<double>(examined);
  return out;
}

double IntervalIndexMatcher::estimate_match_units() const {
  // Up-front scheduler estimate (the exact cost is only known after the
  // stab): one descent of ~2 log2(n) nodes per attribute plus candidate
  // verification for an assumed ~5% stab selectivity -- the selective
  // workloads this backend targets.
  const double n = static_cast<double>(live_count_);
  const double depth = 2.0 * std::log2(std::max(2.0, n));
  const double arity =
      static_cast<double>(std::max<std::size_t>(max_dims_, 1));
  return cost_.index_node_units * arity * depth +
         cost_.index_candidate_units * 0.05 * n;
}

std::size_t IntervalIndexMatcher::subscription_count() const {
  return live_count_;
}

std::size_t IntervalIndexMatcher::state_bytes() const {
  return 24 * live_count_ + predicate_count_ * 2 * sizeof(double);
}

void IntervalIndexMatcher::write_slot(BinaryWriter& w,
                                      std::uint32_t slot) const {
  // Same wire format as serialize(w, Subscription) per stored entry.
  w.write_id(ids_[slot]);
  w.write_id(subscribers_[slot]);
  w.write_u64(dims_[slot]);
  for (std::uint32_t a = 0; a < dims_[slot]; ++a) {
    w.write_f64(lows_[a][slot]);
    w.write_f64(highs_[a][slot]);
  }
}

void IntervalIndexMatcher::serialize_state(BinaryWriter& w) const {
  // Canonical wire order: ascending subscription id, independent of slot
  // churn, so any split/merge history serializes identically to a
  // never-split store holding the same live set.
  const std::vector<std::uint32_t> live = live_slots_by_id();
  w.write_u64(live.size());
  for (const std::uint32_t slot : live) write_slot(w, slot);
}

void IntervalIndexMatcher::restore_state(BinaryReader& r) {
  ids_.clear();
  subscribers_.clear();
  dims_.clear();
  reg_attr_.clear();
  lows_.clear();
  highs_.clear();
  free_slots_.clear();
  gens_.clear();
  slot_of_.clear();
  attrs_.clear();
  zero_dim_.clear();
  zero_dim_pending_.clear();
  zero_dim_dirty_ = false;
  live_count_ = 0;
  predicate_count_ = 0;
  max_dims_ = 0;
  const auto n = r.read_u64();
  ids_.reserve(n);
  subscribers_.reserve(n);
  dims_.reserve(n);
  reg_attr_.reserve(n);
  gens_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    add(AnySubscription{deserialize_subscription(r)});
  }
}

std::size_t IntervalIndexMatcher::split_state(const KeyCoverage& cov,
                                              BinaryWriter& w) {
  // Same canonical ascending-id wire order as serialize_state.
  std::vector<std::uint32_t> moved = live_slots_by_id();
  std::erase_if(moved, [&](std::uint32_t slot) {
    return !cov.covers(ids_[slot].value());
  });
  w.write_u64(moved.size());
  for (const std::uint32_t slot : moved) write_slot(w, slot);
  const std::size_t serialized = moved.size();
  if (testing_keep_one_on_split && !moved.empty()) moved.pop_back();
  // Punch holes highest-slot-first so slot reuse refills ascending.
  std::sort(moved.begin(), moved.end(), std::greater<>{});
  for (const std::uint32_t slot : moved) {
    slot_of_.erase(ids_[slot]);
    punch_hole(slot);
  }
  return serialized;
}

void IntervalIndexMatcher::absorb_state(BinaryReader& r) {
  // Plain re-insertion suffices: every observable -- serialization order,
  // candidate traversal, work units, state accounting -- is id-canonical
  // and slot-layout independent, so merged halves reconstruct the
  // never-split store's behavior byte-for-byte regardless of which slots
  // the incoming entries land in.
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    add(AnySubscription{deserialize_subscription(r)});
  }
}

std::unique_ptr<Matcher> IntervalIndexMatcher::clone_empty() const {
  return std::make_unique<IntervalIndexMatcher>(cost_);
}

}  // namespace esh::filter
