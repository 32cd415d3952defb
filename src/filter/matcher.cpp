#include "filter/matcher.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace esh::filter {

namespace {

// Sentinel bounds for SoA columns past a subscription's dimension count:
// an empty interval no attribute value can satisfy.
constexpr double kNeverLow = std::numeric_limits<double>::infinity();
constexpr double kNeverHigh = -std::numeric_limits<double>::infinity();

// Column tile scanned per publication before moving to the next batch
// member: 1024 slots keep one attribute's low+high tile at 16 KiB, so a
// d-attribute tile stays L2-resident across the whole batch.
constexpr std::size_t kBruteTileSlots = 1024;

// Publications evaluated per pass over the encrypted rows: 64 ASPE
// publication ciphertexts (2 shares of d+3 doubles) fit in L1 next to the
// current subscription row.
constexpr std::size_t kAspePubBlock = 64;

// Publications evaluated simultaneously by the grouped ASPE kernel: 4
// independent accumulator chains cover the ~4-cycle FP-add latency.
constexpr std::size_t kGroup = 4;

// Encrypted rows per parallel chunk: at the evaluation's d = 4 a row is
// 8 comparisons x 14 doubles, so 512 rows are ~450 KiB of streamed reads
// -- enough work to amortize a chunk claim while still giving an 8-worker
// pool fine-grained load balance on stores of a few thousand rows.
constexpr std::size_t kAspeRowChunk = 512;

// Fixed-order merge of per-chunk partial outcomes: appending chunk c's
// subscribers for publication p after chunks 0..c-1 reproduces exactly the
// serial scan order (tiles and row ranges ascend), which is what keeps the
// pooled result bit-identical to the scalar one.
void merge_partials(std::vector<std::vector<MatchOutcome>>& partials,
                    std::vector<MatchOutcome>& out) {
  for (auto& partial : partials) {
    for (std::size_t p = 0; p < out.size(); ++p) {
      auto& dst = out[p].subscribers;
      auto& src = partial[p].subscribers;
      if (dst.empty()) {
        dst = std::move(src);
      } else {
        dst.insert(dst.end(), src.begin(), src.end());
      }
    }
  }
}

}  // namespace

SubscriptionId subscription_id(const AnySubscription& s) {
  return std::visit([](const auto& v) { return v.id; }, s);
}

PublicationId publication_id(const AnyPublication& p) {
  return std::visit([](const auto& v) { return v.id; }, p);
}

std::size_t subscription_bytes(const AnySubscription& s) {
  if (const auto* enc = std::get_if<EncryptedSubscription>(&s)) {
    return enc->bytes();
  }
  const auto& plain = std::get<Subscription>(s);
  return 24 + plain.predicates.size() * 2 * sizeof(double);
}

std::size_t publication_bytes(const AnyPublication& p) {
  if (const auto* enc = std::get_if<EncryptedPublication>(&p)) {
    return enc->bytes();
  }
  const auto& plain = std::get<Publication>(p);
  return 16 + plain.attributes.size() * sizeof(double);
}

// ---- Matcher -----------------------------------------------------------------

std::vector<MatchOutcome> Matcher::match_batch(
    std::span<const AnyPublication> pubs) {
  std::vector<MatchOutcome> out;
  out.reserve(pubs.size());
  for (const AnyPublication& pub : pubs) out.push_back(match(pub));
  return out;
}

std::size_t Matcher::split_state(const KeyCoverage&, BinaryWriter&) {
  throw std::logic_error{"matcher scheme does not support split_state"};
}

void Matcher::absorb_state(BinaryReader&) {
  throw std::logic_error{"matcher scheme does not support absorb_state"};
}

void Matcher::merge_state(const Matcher& other) {
  BinaryWriter w;
  other.serialize_state(w);
  BinaryReader r{w.buffer()};
  absorb_state(r);
}

// ---- BruteForceMatcher -------------------------------------------------------

BruteForceMatcher::BruteForceMatcher(cluster::CostModel cost) : cost_(cost) {}

void BruteForceMatcher::add(const AnySubscription& sub) {
  const auto& plain = std::get<Subscription>(sub);
  const std::size_t d = plain.predicates.size();
  if (d > lows_.size()) {
    lows_.resize(d, std::vector<double>(ids_.size(), kNeverLow));
    highs_.resize(d, std::vector<double>(ids_.size(), kNeverHigh));
  }
  ids_.push_back(plain.id);
  subscribers_.push_back(plain.subscriber);
  dims_.push_back(static_cast<std::uint32_t>(d));
  for (std::size_t a = 0; a < lows_.size(); ++a) {
    lows_[a].push_back(a < d ? plain.predicates[a].low : kNeverLow);
    highs_[a].push_back(a < d ? plain.predicates[a].high : kNeverHigh);
  }
  predicate_count_ += d;
}

bool BruteForceMatcher::remove(SubscriptionId id) {
  const auto it = std::find(ids_.begin(), ids_.end(), id);
  if (it == ids_.end()) return false;
  const auto slot =
      static_cast<std::size_t>(std::distance(ids_.begin(), it));
  predicate_count_ -= dims_[slot];
  ids_.erase(it);
  subscribers_.erase(subscribers_.begin() + static_cast<std::ptrdiff_t>(slot));
  dims_.erase(dims_.begin() + static_cast<std::ptrdiff_t>(slot));
  for (auto& col : lows_) {
    col.erase(col.begin() + static_cast<std::ptrdiff_t>(slot));
  }
  for (auto& col : highs_) {
    col.erase(col.begin() + static_cast<std::ptrdiff_t>(slot));
  }
  return true;
}

void BruteForceMatcher::prune_and_emit(const Publication& pub,
                                       std::vector<std::uint32_t>& survivors,
                                       MatchOutcome& out) {
  const std::size_t d = pub.attributes.size();
  for (std::size_t a = 1; a < d && !survivors.empty(); ++a) {
    const double v = pub.attributes[a];
    const double* lo = lows_[a].data();
    const double* hi = highs_[a].data();
    std::size_t kept = 0;
    for (const std::uint32_t s : survivors) {
      if (lo[s] <= v && v <= hi[s]) survivors[kept++] = s;
    }
    survivors.resize(kept);
  }
  for (const std::uint32_t s : survivors) {
    out.subscribers.push_back(subscribers_[s]);
  }
}

void BruteForceMatcher::scan_slots(const Publication& pub, std::size_t begin,
                                   std::size_t end, MatchOutcome& out,
                                   ScanScratch& scratch) {
  const std::size_t d = pub.attributes.size();
  if (d > lows_.size()) return;  // no stored subscription has that many
  if (d == 0) {
    for (std::size_t s = begin; s < end; ++s) {
      if (dims_[s] == 0) out.subscribers.push_back(subscribers_[s]);
    }
    return;
  }
  // Survivor pruning, one contiguous column pair at a time: column 0 also
  // folds in the dimension-count equality matches() requires.
  scratch.survivors.clear();
  const auto du = static_cast<std::uint32_t>(d);
  const double v0 = pub.attributes[0];
  const double* lo0 = lows_[0].data();
  const double* hi0 = highs_[0].data();
  for (std::size_t s = begin; s < end; ++s) {
    if (dims_[s] == du && lo0[s] <= v0 && v0 <= hi0[s]) {
      scratch.survivors.push_back(static_cast<std::uint32_t>(s));
    }
  }
  prune_and_emit(pub, scratch.survivors, out);
}

void BruteForceMatcher::scan_tile_group(const Publication* const* pubs,
                                        std::size_t count, std::size_t begin,
                                        std::size_t end,
                                        MatchOutcome* const* outs,
                                        ScanScratch& scratch) {
  std::uint32_t du[kScanGroup];
  double v0[kScanGroup];
  std::uint32_t* sv[kScanGroup];
  std::size_t kept[kScanGroup];
  for (std::size_t g = 0; g < count; ++g) {
    du[g] = static_cast<std::uint32_t>(pubs[g]->attributes.size());
    v0[g] = pubs[g]->attributes[0];
    scratch.group_survivors[g].resize(end - begin);
    sv[g] = scratch.group_survivors[g].data();
    kept[g] = 0;
  }
  const double* lo0 = lows_[0].data();
  const double* hi0 = highs_[0].data();
  const std::uint32_t* dims = dims_.data();
  // Branchless survivor collection: each lane unconditionally writes the
  // slot id and advances its cursor only on a hit, so the 32%-taken data-
  // dependent branch of the scalar scan never reaches the predictor. The
  // slot's bounds are loaded once for all kScanGroup publications.
  for (std::size_t s = begin; s < end; ++s) {
    const double lo = lo0[s];
    const double hi = hi0[s];
    const std::uint32_t dm = dims[s];
    for (std::size_t g = 0; g < count; ++g) {
      const bool hitg =
          (dm == du[g]) & (lo <= v0[g]) & (v0[g] <= hi);
      sv[g][kept[g]] = static_cast<std::uint32_t>(s);
      kept[g] += hitg ? 1 : 0;
    }
  }
  for (std::size_t g = 0; g < count; ++g) {
    scratch.group_survivors[g].resize(kept[g]);
    prune_and_emit(*pubs[g], scratch.group_survivors[g], *outs[g]);
  }
}

MatchOutcome BruteForceMatcher::match(const AnyPublication& pub) {
  const auto& plain = std::get<Publication>(pub);
  MatchOutcome out;
  scan_slots(plain, 0, ids_.size(), out, scratch_);
  out.work_units = cost_.plain_match_units_batch(ids_.size(), 1);
  return out;
}

void BruteForceMatcher::batch_scan_tile(
    const std::vector<const Publication*>& plains,
    const std::vector<std::size_t>& grouped,
    const std::vector<std::size_t>& singles, std::size_t t0, std::size_t t1,
    MatchOutcome* outs, ScanScratch& scratch) {
  for (const std::size_t p : singles) {
    scan_slots(*plains[p], t0, t1, outs[p], scratch);
  }
  for (std::size_t i = 0; i < grouped.size(); i += kScanGroup) {
    const std::size_t cnt = std::min(kScanGroup, grouped.size() - i);
    const Publication* group[kScanGroup];
    MatchOutcome* group_out[kScanGroup];
    for (std::size_t g = 0; g < cnt; ++g) {
      group[g] = plains[grouped[i + g]];
      group_out[g] = &outs[grouped[i + g]];
    }
    scan_tile_group(group, cnt, t0, t1, group_out, scratch);
  }
}

std::vector<MatchOutcome> BruteForceMatcher::match_batch(
    std::span<const AnyPublication> pubs) {
  std::vector<const Publication*> plains;
  plains.reserve(pubs.size());
  for (const AnyPublication& pub : pubs) {
    plains.push_back(&std::get<Publication>(pub));
  }
  std::vector<MatchOutcome> out(pubs.size());
  const std::size_t n = ids_.size();
  // Publications the grouped column-0 scan can serve; zero-dimension or
  // over-wide publications take the scalar scan per tile instead.
  std::vector<std::size_t> grouped;
  grouped.reserve(plains.size());
  std::vector<std::size_t> singles;
  for (std::size_t p = 0; p < plains.size(); ++p) {
    const std::size_t d = plains[p]->attributes.size();
    (d >= 1 && d <= lows_.size() ? grouped : singles).push_back(p);
  }
  // Tile the columns: every publication of the batch scans one tile while
  // it is cache-hot before the next tile streams in, and the grouped scan
  // loads each slot's bounds once for kScanGroup publications. Subscribers
  // are still appended in ascending slot order per publication (tiles
  // ascend), exactly as the scalar scan emits them.
  const std::size_t tiles = (n + kBruteTileSlots - 1) / kBruteTileSlots;
  if (pool_ != nullptr && pool_->worker_count() > 1 && tiles > 1) {
    // Parallel backend: tiles fan out across the pool into per-tile
    // partial outcomes, merged in tile order -- the same order the serial
    // tile loop appends, so the result is bit-identical at any thread
    // count. The store itself is read-only here.
    worker_scratch_.resize(pool_->worker_count());
    std::vector<std::vector<MatchOutcome>> partial(tiles);
    pool_->parallel_for(tiles, [&](std::size_t t, std::size_t w) {
      partial[t].resize(plains.size());
      const std::size_t t0 = t * kBruteTileSlots;
      batch_scan_tile(plains, grouped, singles, t0,
                      std::min(n, t0 + kBruteTileSlots), partial[t].data(),
                      worker_scratch_[w]);
    });
    merge_partials(partial, out);
  } else {
    for (std::size_t t0 = 0; t0 < n; t0 += kBruteTileSlots) {
      batch_scan_tile(plains, grouped, singles, t0,
                      std::min(n, t0 + kBruteTileSlots), out.data(), scratch_);
    }
  }
  const double per_pub = cost_.plain_match_units_batch(n, 1);
  for (MatchOutcome& o : out) o.work_units = per_pub;
  return out;
}

double BruteForceMatcher::estimate_match_units() const {
  return cost_.plain_match_units * static_cast<double>(ids_.size());
}

std::size_t BruteForceMatcher::subscription_count() const {
  return ids_.size();
}

std::size_t BruteForceMatcher::state_bytes() const {
  return 24 * ids_.size() + predicate_count_ * 2 * sizeof(double);
}

void BruteForceMatcher::serialize_state(BinaryWriter& w) const {
  // Same wire format as serialize(w, Subscription) per stored entry.
  w.write_u64(ids_.size());
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    w.write_id(ids_[s]);
    w.write_id(subscribers_[s]);
    w.write_u64(dims_[s]);
    for (std::uint32_t a = 0; a < dims_[s]; ++a) {
      w.write_f64(lows_[a][s]);
      w.write_f64(highs_[a][s]);
    }
  }
}

void BruteForceMatcher::restore_state(BinaryReader& r) {
  ids_.clear();
  subscribers_.clear();
  dims_.clear();
  lows_.clear();
  highs_.clear();
  predicate_count_ = 0;
  const auto n = r.read_u64();
  ids_.reserve(n);
  subscribers_.reserve(n);
  dims_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    add(AnySubscription{deserialize_subscription(r)});
  }
}

std::size_t BruteForceMatcher::split_state(const KeyCoverage& cov,
                                           BinaryWriter& w) {
  std::vector<std::size_t> moved;
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    if (cov.covers(ids_[s].value())) moved.push_back(s);
  }
  w.write_u64(moved.size());
  for (const std::size_t s : moved) {
    w.write_id(ids_[s]);
    w.write_id(subscribers_[s]);
    w.write_u64(dims_[s]);
    for (std::uint32_t a = 0; a < dims_[s]; ++a) {
      w.write_f64(lows_[a][s]);
      w.write_f64(highs_[a][s]);
    }
  }
  const std::size_t serialized = moved.size();
  if (testing_keep_one_on_split && !moved.empty()) moved.pop_back();
  // Forward compaction: kept slots keep their relative (insertion) order.
  std::size_t kept = 0;
  std::size_t next_moved = 0;
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    if (next_moved < moved.size() && moved[next_moved] == s) {
      ++next_moved;
      predicate_count_ -= dims_[s];
      continue;
    }
    ids_[kept] = ids_[s];
    subscribers_[kept] = subscribers_[s];
    dims_[kept] = dims_[s];
    for (auto& col : lows_) col[kept] = col[s];
    for (auto& col : highs_) col[kept] = col[s];
    ++kept;
  }
  ids_.resize(kept);
  subscribers_.resize(kept);
  dims_.resize(kept);
  for (auto& col : lows_) col.resize(kept);
  for (auto& col : highs_) col.resize(kept);
  return serialized;
}

void BruteForceMatcher::insert_subscription(std::size_t pos,
                                            const Subscription& plain) {
  const std::size_t d = plain.predicates.size();
  if (d > lows_.size()) {
    lows_.resize(d, std::vector<double>(ids_.size(), kNeverLow));
    highs_.resize(d, std::vector<double>(ids_.size(), kNeverHigh));
  }
  const auto at = static_cast<std::ptrdiff_t>(pos);
  ids_.insert(ids_.begin() + at, plain.id);
  subscribers_.insert(subscribers_.begin() + at, plain.subscriber);
  dims_.insert(dims_.begin() + at, static_cast<std::uint32_t>(d));
  for (std::size_t a = 0; a < lows_.size(); ++a) {
    lows_[a].insert(lows_[a].begin() + at,
                    a < d ? plain.predicates[a].low : kNeverLow);
    highs_[a].insert(highs_[a].begin() + at,
                     a < d ? plain.predicates[a].high : kNeverHigh);
  }
  predicate_count_ += d;
}

void BruteForceMatcher::absorb_state(BinaryReader& r) {
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Subscription plain = deserialize_subscription(r);
    // Ascending-id merge position: before the first stored id above ours.
    std::size_t pos = 0;
    while (pos < ids_.size() && ids_[pos].value() < plain.id.value()) ++pos;
    insert_subscription(pos, plain);
  }
}

std::unique_ptr<Matcher> BruteForceMatcher::clone_empty() const {
  auto clone = std::make_unique<BruteForceMatcher>(cost_);
  clone->set_thread_pool(pool_);
  return clone;
}

// ---- AspeMatcher -------------------------------------------------------------

AspeMatcher::AspeMatcher(cluster::CostModel cost) : cost_(cost) {}

void AspeMatcher::append_row(const EncryptedSubscription& s) {
  std::uint32_t len = 0;
  bool regular = !s.comparisons.empty();
  if (regular) {
    len = static_cast<std::uint32_t>(s.comparisons.front().share_a.size());
    regular = len > 0;
    for (const EncryptedComparison& cmp : s.comparisons) {
      regular = regular && cmp.share_a.size() == len &&
                cmp.share_b.size() == len;
    }
  }
  row_offset_.push_back(flat_.size());
  row_cmps_.push_back(static_cast<std::uint32_t>(s.comparisons.size()));
  row_share_len_.push_back(regular ? len : 0);
  if (!regular) return;
  for (const EncryptedComparison& cmp : s.comparisons) {
    flat_.insert(flat_.end(), cmp.share_a.begin(), cmp.share_a.end());
    flat_.insert(flat_.end(), cmp.share_b.begin(), cmp.share_b.end());
  }
}

void AspeMatcher::rebuild_rows() {
  flat_.clear();
  row_offset_.clear();
  row_cmps_.clear();
  row_share_len_.clear();
  for (const EncryptedSubscription& s : subs_) append_row(s);
}

void AspeMatcher::add(const AnySubscription& sub) {
  const auto& enc = std::get<EncryptedSubscription>(sub);
  state_bytes_ += enc.bytes();
  dimensions_ = std::max(dimensions_, enc.comparisons.size() / 2);
  subs_.push_back(enc);
  append_row(subs_.back());
}

bool AspeMatcher::remove(SubscriptionId id) {
  auto it = std::find_if(
      subs_.begin(), subs_.end(),
      [id](const EncryptedSubscription& s) { return s.id == id; });
  if (it == subs_.end()) return false;
  state_bytes_ -= it->bytes();
  subs_.erase(it);
  rebuild_rows();
  return true;
}

bool AspeMatcher::row_matches(std::size_t index, const double* pub_a,
                              std::size_t len_a, const double* pub_b,
                              std::size_t len_b) const {
  const std::uint32_t len = row_share_len_[index];
  if (pub_a == nullptr || len_a != len || len_b != len) {
    throw std::invalid_argument{"dot: size mismatch"};
  }
  const double* row = flat_.data() + row_offset_[index];
  const std::uint32_t cmps = row_cmps_[index];
  for (std::uint32_t c = 0; c < cmps; ++c) {
    const double* qa = row + static_cast<std::size_t>(c) * 2 * len;
    const double* qb = qa + len;
    double acc = 0.0;
    for (std::uint32_t j = 0; j < len; ++j) acc += qa[j] * pub_a[j];
    for (std::uint32_t j = 0; j < len; ++j) acc += qb[j] * pub_b[j];
    if (acc < 0.0) return false;
  }
  return true;
}

void AspeMatcher::row_matches_group(std::size_t index,
                                    const EncryptedPublication* const* pubs,
                                    std::size_t count, bool* hit) const {
  const std::uint32_t len = row_share_len_[index];
  for (std::size_t g = 0; g < count; ++g) {
    if (pubs[g]->share_a.size() != len || pubs[g]->share_b.size() != len) {
      throw std::invalid_argument{"dot: size mismatch"};
    }
  }
  const double* row = flat_.data() + row_offset_[index];
  const std::uint32_t cmps = row_cmps_[index];
  const double* pa[kGroup];
  const double* pb[kGroup];
  for (std::size_t g = 0; g < kGroup; ++g) {
    // Pad short groups with lane 0 (their results are discarded): the
    // kernel always runs kGroup independent accumulator chains, fully
    // unrollable.
    const EncryptedPublication* pub = pubs[g < count ? g : 0];
    pa[g] = pub->share_a.data();
    pb[g] = pub->share_b.data();
  }
  bool ok[kGroup] = {true, true, true, true};
  for (std::uint32_t c = 0; c < cmps; ++c) {
    const double* qa = row + static_cast<std::size_t>(c) * 2 * len;
    const double* qb = qa + len;
    // One pass of the comparison for all lanes: each query coefficient is
    // loaded once and feeds kGroup independent accumulator chains, hiding
    // the floating-point add latency the scalar path serializes on. Every
    // lane's accumulation order is exactly row_matches' (qa in j order,
    // then qb), so per-publication results are bit-identical. Failed lanes
    // keep accumulating (their sign is simply ignored) -- branchless
    // beats early-exit here because lane lifetimes diverge.
    double acc[kGroup] = {0.0, 0.0, 0.0, 0.0};
    for (std::uint32_t j = 0; j < len; ++j) {
      const double q = qa[j];
      for (std::size_t g = 0; g < kGroup; ++g) acc[g] += q * pa[g][j];
    }
    for (std::uint32_t j = 0; j < len; ++j) {
      const double q = qb[j];
      for (std::size_t g = 0; g < kGroup; ++g) acc[g] += q * pb[g][j];
    }
    bool any = false;
    for (std::size_t g = 0; g < kGroup; ++g) {
      ok[g] = ok[g] & (acc[g] >= 0.0);
      any |= g < count && ok[g];
    }
    if (!any) break;  // every publication of the group already failed
  }
  for (std::size_t g = 0; g < count; ++g) hit[g] = ok[g];
}

MatchOutcome AspeMatcher::match(const AnyPublication& pub) {
  const auto& enc = std::get<EncryptedPublication>(pub);
  MatchOutcome out;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    const bool hit =
        row_share_len_[i] == 0
            ? encrypted_match(subs_[i], enc)  // irregular: slow AoS path
            : row_matches(i, enc.share_a.data(), enc.share_a.size(),
                          enc.share_b.data(), enc.share_b.size());
    if (hit) out.subscribers.push_back(subs_[i].subscriber);
  }
  // Every stored subscription is tested; each test costs O(d^2).
  out.work_units = estimate_match_units();
  return out;
}

void AspeMatcher::match_batch_rows(
    const std::vector<const EncryptedPublication*>& encs, std::size_t r0,
    std::size_t r1, MatchOutcome* outs) const {
  // Block the publications: one pass over the stored rows evaluates a whole
  // block, so each subscription's 2d query vectors are streamed from memory
  // once per block instead of once per publication. Subscriber order per
  // publication stays ascending in storage order, as in match().
  for (std::size_t b0 = 0; b0 < encs.size(); b0 += kAspePubBlock) {
    const std::size_t b1 = std::min(encs.size(), b0 + kAspePubBlock);
    for (std::size_t i = r0; i < r1; ++i) {
      if (row_share_len_[i] == 0) {
        for (std::size_t p = b0; p < b1; ++p) {
          if (encrypted_match(subs_[i], *encs[p])) {
            outs[p].subscribers.push_back(subs_[i].subscriber);
          }
        }
        continue;
      }
      for (std::size_t p = b0; p < b1; p += 4) {
        const std::size_t cnt = std::min<std::size_t>(4, b1 - p);
        bool hit[4];
        row_matches_group(i, encs.data() + p, cnt, hit);
        for (std::size_t g = 0; g < cnt; ++g) {
          if (hit[g]) outs[p + g].subscribers.push_back(subs_[i].subscriber);
        }
      }
    }
  }
}

std::vector<MatchOutcome> AspeMatcher::match_batch(
    std::span<const AnyPublication> pubs) {
  std::vector<const EncryptedPublication*> encs;
  encs.reserve(pubs.size());
  for (const AnyPublication& pub : pubs) {
    encs.push_back(&std::get<EncryptedPublication>(pub));
  }
  std::vector<MatchOutcome> out(pubs.size());
  const std::size_t rows = subs_.size();
  const std::size_t ranges = (rows + kAspeRowChunk - 1) / kAspeRowChunk;
  if (pool_ != nullptr && pool_->worker_count() > 1 && ranges > 1) {
    // Parallel backend: fixed row ranges fan out across the pool into
    // per-range partial outcomes, merged in range order -- the serial
    // append order. Every row's dot products keep their exact scalar
    // accumulation sequence, so the floating-point results (and hence the
    // subscriber sets) are bit-identical at any thread count. A size
    // mismatch throw inside a range surfaces at the join.
    std::vector<std::vector<MatchOutcome>> partial(ranges);
    pool_->parallel_for(ranges, [&](std::size_t r, std::size_t) {
      partial[r].resize(encs.size());
      const std::size_t r0 = r * kAspeRowChunk;
      match_batch_rows(encs, r0, std::min(rows, r0 + kAspeRowChunk),
                       partial[r].data());
    });
    merge_partials(partial, out);
  } else {
    match_batch_rows(encs, 0, rows, out.data());
  }
  const double per_pub = estimate_match_units();
  for (MatchOutcome& o : out) o.work_units = per_pub;
  return out;
}

double AspeMatcher::estimate_match_units() const {
  return cost_.aspe_match_units_batch(std::max<std::size_t>(dimensions_, 1),
                                      subs_.size(), 1);
}

std::size_t AspeMatcher::subscription_count() const { return subs_.size(); }

std::size_t AspeMatcher::state_bytes() const { return state_bytes_; }

void AspeMatcher::serialize_state(BinaryWriter& w) const {
  w.write_u64(subs_.size());
  for (const auto& s : subs_) serialize(w, s);
}

void AspeMatcher::restore_state(BinaryReader& r) {
  subs_.clear();
  state_bytes_ = 0;
  dimensions_ = 0;
  flat_.clear();
  row_offset_.clear();
  row_cmps_.clear();
  row_share_len_.clear();
  const auto n = r.read_u64();
  subs_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    auto s = deserialize_encrypted_subscription(r);
    state_bytes_ += s.bytes();
    dimensions_ = std::max(dimensions_, s.comparisons.size() / 2);
    subs_.push_back(std::move(s));
    append_row(subs_.back());
  }
}

std::size_t AspeMatcher::split_state(const KeyCoverage& cov,
                                     BinaryWriter& w) {
  std::vector<std::size_t> moved;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    if (cov.covers(subs_[i].id.value())) moved.push_back(i);
  }
  w.write_u64(moved.size());
  for (const std::size_t i : moved) serialize(w, subs_[i]);
  const std::size_t serialized = moved.size();
  if (testing_keep_one_on_split && !moved.empty()) moved.pop_back();
  for (auto it = moved.rbegin(); it != moved.rend(); ++it) {
    state_bytes_ -= subs_[*it].bytes();
    subs_.erase(subs_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  // dimensions_ stays at its historical max, exactly as remove() leaves it:
  // the cost estimate then matches a store that never split.
  rebuild_rows();
  return serialized;
}

void AspeMatcher::absorb_state(BinaryReader& r) {
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    auto s = deserialize_encrypted_subscription(r);
    state_bytes_ += s.bytes();
    dimensions_ = std::max(dimensions_, s.comparisons.size() / 2);
    auto pos = std::find_if(subs_.begin(), subs_.end(),
                            [&s](const EncryptedSubscription& e) {
                              return s.id.value() < e.id.value();
                            });
    subs_.insert(pos, std::move(s));
  }
  rebuild_rows();
}

std::unique_ptr<Matcher> AspeMatcher::clone_empty() const {
  auto clone = std::make_unique<AspeMatcher>(cost_);
  clone->set_thread_pool(pool_);
  return clone;
}

}  // namespace esh::filter
