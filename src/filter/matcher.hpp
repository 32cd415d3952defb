// Filtering-library interface used by the Matching (M) operator. STREAMHUB
// treats the filtering scheme as a pluggable external library (paper §III);
// each M slice owns one Matcher instance storing its partition of the
// subscriptions.
//
// A Matcher reports the simulated CPU cost of each match so that the
// cluster emulation charges work faithfully: encrypted filtering charges
// O(d^2) per stored subscription, index-based plain filtering charges by
// candidates actually examined.
//
// Every match is one publication against the slice's store, on the calling
// thread; the concrete matchers keep cache-friendly layouts for that scan:
// BruteForceMatcher stores bounds as per-attribute SoA columns, and
// AspeMatcher flattens each encrypted subscription's 2d query vectors into
// one contiguous row. The indexed plain scheme, IntervalIndexMatcher, lives
// in filter/interval_index.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "cluster/cost_model.hpp"
#include "common/keyspace.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"
#include "filter/aspe.hpp"
#include "filter/attribute.hpp"

namespace esh {
class ThreadPool;
}

namespace esh::filter {

using AnySubscription = std::variant<Subscription, EncryptedSubscription>;
using AnyPublication = std::variant<Publication, EncryptedPublication>;

[[nodiscard]] SubscriptionId subscription_id(const AnySubscription& s);
[[nodiscard]] PublicationId publication_id(const AnyPublication& p);
[[nodiscard]] std::size_t subscription_bytes(const AnySubscription& s);
[[nodiscard]] std::size_t publication_bytes(const AnyPublication& p);

struct MatchOutcome {
  std::vector<SubscriberId> subscribers;
  // Simulated single-core work this match consumed, in cost-model units.
  double work_units = 0.0;
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  virtual void add(const AnySubscription& sub) = 0;
  // Returns false when the id is unknown.
  virtual bool remove(SubscriptionId id) = 0;
  [[nodiscard]] virtual MatchOutcome match(const AnyPublication& pub) = 0;

  // match() over each of `pubs`, in order. perfbench/e2e.cpp is its only
  // user; ROADMAP item 1 step 1 removes it.
  [[nodiscard]] virtual std::vector<MatchOutcome> match_batch(
      std::span<const AnyPublication> pubs);

  // Expected cost of the next match (charged to the host CPU before the
  // match runs; the scheduler needs the cost up front).
  [[nodiscard]] virtual double estimate_match_units() const = 0;

  [[nodiscard]] virtual std::size_t subscription_count() const = 0;
  [[nodiscard]] virtual std::size_t state_bytes() const = 0;

  // State transfer for slice migration.
  virtual void serialize_state(BinaryWriter& w) const = 0;
  virtual void restore_state(BinaryReader& r) = 0;

  // Key-level split: serializes every stored subscription whose id the
  // coverage covers -- count + entries, the exact serialize_state wire
  // format, so the bytes restore into a fresh clone with restore_state --
  // and atomically removes those subscriptions from this matcher. Returns
  // the number of subscriptions serialized. Default: unsupported (throws).
  virtual std::size_t split_state(const KeyCoverage& cov, BinaryWriter& w);
  // Inverse of split_state: reads serialize_state-format bytes and inserts
  // the entries on top of the current store (restore-without-clear). Each
  // entry is placed in ascending-subscription-id position, so merging the
  // two halves of a previous split reconstructs the pre-split store order
  // exactly (stores grow with ascending ids). Default: unsupported.
  virtual void absorb_state(BinaryReader& r);
  // Convenience: absorb everything `other` stores (serialize -> absorb).
  void merge_state(const Matcher& other);

  // Test seam (contract tests only): when set, split_state serializes the
  // covered subscriptions but leaves the last one in place, violating the
  // split-state-conserved invariant checked by the M handler.
  bool testing_keep_one_on_split = false;

  // Fresh instance of the same scheme/configuration (for replicas).
  [[nodiscard]] virtual std::unique_ptr<Matcher> clone_empty() const = 0;

  [[nodiscard]] virtual std::string scheme_name() const = 0;

  // A stored pointer that no matcher reads. perfbench/e2e.cpp is its only
  // user; ROADMAP item 1 step 1 removes it.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] ThreadPool* thread_pool() const { return pool_; }

 private:
  ThreadPool* pool_ = nullptr;
};

// Plain-text brute force: tests every stored subscription. State is held in
// structure-of-arrays form -- per-attribute low/high columns -- so a scan
// walks contiguous arrays instead of chasing each subscription's heap-
// allocated predicate vector.
class BruteForceMatcher final : public Matcher {
 public:
  explicit BruteForceMatcher(cluster::CostModel cost = {});

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
    return "plain-brute";
  }

 private:
  // Inserts a subscription at slot `pos`, shifting later slots up (absorb
  // path; add() is the pos == size() special case).
  void insert_subscription(std::size_t pos, const Subscription& plain);

  cluster::CostModel cost_;
  // SoA store, dense by slot (insertion order; remove shifts like the old
  // AoS erase did, keeping serialization order stable). Columns past a
  // subscription's dimension count hold never-matching sentinels.
  std::vector<SubscriptionId> ids_;
  std::vector<SubscriberId> subscribers_;
  std::vector<std::uint32_t> dims_;
  std::vector<std::vector<double>> lows_;   // [attribute][slot]
  std::vector<std::vector<double>> highs_;  // [attribute][slot]
  std::size_t predicate_count_ = 0;
  std::vector<std::uint32_t> survivors_;  // match() scratch
};

// Encrypted filtering: stores EncryptedSubscriptions, tests every one with
// the ASPE comparison primitive; no containment or indexing is possible by
// design (paper §VI-B). The 2d query-vector pairs of each subscription are
// additionally flattened into one contiguous row of doubles, so a match
// streams each row's O(d^2) dot products from contiguous memory.
class AspeMatcher final : public Matcher {
 public:
  explicit AspeMatcher(cluster::CostModel cost = {});

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
  [[nodiscard]] std::string scheme_name() const override { return "aspe"; }

 private:
  void append_row(const EncryptedSubscription& s);
  void rebuild_rows();
  // True iff stored subscription `index` matches the publication given by
  // its raw share pointers (same evaluation order and early exit as
  // encrypted_match, including the dimension-mismatch throw).
  [[nodiscard]] bool row_matches(std::size_t index, const double* pub_a,
                                 std::size_t len_a, const double* pub_b,
                                 std::size_t len_b) const;

  cluster::CostModel cost_;
  std::vector<EncryptedSubscription> subs_;  // authoritative (serialization)
  // Flattened kernel mirror: row i holds subscription i's comparisons as
  // [cmp0.a | cmp0.b | cmp1.a | cmp1.b | ...], each share row_share_len_[i]
  // doubles. row_share_len_[i] == 0 marks an irregular subscription (shares
  // of mixed lengths) evaluated through the slow AoS path instead.
  std::vector<double> flat_;
  std::vector<std::size_t> row_offset_;
  std::vector<std::uint32_t> row_cmps_;
  std::vector<std::uint32_t> row_share_len_;
  std::size_t state_bytes_ = 0;
  std::size_t dimensions_ = 0;
};

}  // namespace esh::filter
