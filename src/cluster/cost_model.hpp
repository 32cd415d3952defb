// Calibrated cost model tying algorithmic work to simulated CPU time.
//
// One work unit is one microsecond on a reference core (Xeon E5405 class,
// matching the paper's testbed). The anchor is the ASPE match cost: the
// paper's Figure 6 reports 422 publications/s with 100 K subscriptions on
// 12 hosts. With 16 M slices spread over the 6 M hosts, the bottleneck
// host runs ceil(16/6) = 3 slices and must complete 3 matches-of-6250 per
// publication on its 8 cores: 422/s * 3 * 6250 * c = 8 core-seconds/s
// -> c ~= 1.01 us per d=4 match -> aspe_match_units_per_d2 ~= 0.063.
// Every other constant is a small multiple estimated relative to this
// anchor; DESIGN.md documents the calibration.
#pragma once

#include <cstddef>

namespace esh::cluster {

struct CostModel {
  // --- filtering -----------------------------------------------------------
  // Matching one encrypted publication against one stored ASPE subscription:
  // 2d scalar products of (d+3)-vectors -> cost proportional to d^2.
  double aspe_match_units_per_d2 = 0.063;
  // Plain-text range matching of one publication against one subscription.
  double plain_match_units = 0.02;
  // Interval-index matching (IntervalIndexMatcher): the index prunes by the
  // registered predicate's selectivity, so cost is charged per tree node
  // visited during the stabbing descent and per surviving candidate
  // verified against the arena columns -- not per stored subscription.
  // A node visit is one compare + one pointer chase, about a binary-search
  // step (one plain_match_units); a candidate verification is a partial
  // rectangle test that early-exits on the first failing attribute, about
  // half a full plain match.
  double index_node_units = 0.02;
  double index_candidate_units = 0.01;
  // Encrypting one publication / subscription client-side (matrix-vector
  // products) -- only exercised by the workload pre-encryption pipeline.
  double aspe_encrypt_units_per_d2 = 0.5;

  // --- operator overheads --------------------------------------------------
  // AP: hashing + routing one subscription, or fanning one publication out
  // to one M slice (per target).
  double ap_route_units = 8.0;
  // M: fixed per-publication overhead on top of the per-subscription match.
  double m_fixed_units = 20.0;
  // EP: merging one matching-subscriber identifier into the pending list.
  double ep_merge_units_per_id = 0.15;
  // EP: fixed per-partial-list overhead.
  double ep_list_units = 5.0;
  // Preparing + sending one notification batch (per subscriber notified).
  double ep_notify_units_per_id = 0.6;

  // --- state & migration ---------------------------------------------------
  // Serializing / deserializing slice state, per byte (RW-locked work).
  double state_serialize_units_per_byte = 0.005;
  double state_deserialize_units_per_byte = 0.005;
  // Instantiating an operator-slice replica before state transfer (runtime
  // setup + filtering-library initialization). Dominates the fixed part of
  // M-slice migration time (Table I's sublinear growth in state size).
  double m_replica_init_units = 1.0e6;     // ~1 s
  double generic_replica_init_units = 5e4;  // ~50 ms for AP / EP

  // --- sizes (bytes) -------------------------------------------------------
  std::size_t pub_bytes_per_attribute = 2 * 8 * 8;  // 2 split (d+3)-vectors
  std::size_t sub_bytes_per_attribute = 4 * 8 * 8;  // 2 bounds x 2 vectors
  std::size_t event_header_bytes = 48;
  std::size_t matched_id_bytes = 8;

  [[nodiscard]] double aspe_match_units(std::size_t dimensions) const {
    const auto d = static_cast<double>(dimensions);
    return aspe_match_units_per_d2 * d * d;
  }
  [[nodiscard]] double aspe_encrypt_units(std::size_t dimensions) const {
    const auto d = static_cast<double>(dimensions);
    return aspe_encrypt_units_per_d2 * d * d;
  }
  [[nodiscard]] std::size_t publication_bytes(std::size_t dimensions) const {
    return event_header_bytes + dimensions * pub_bytes_per_attribute;
  }
  [[nodiscard]] std::size_t subscription_bytes(std::size_t dimensions) const {
    return event_header_bytes + dimensions * sub_bytes_per_attribute;
  }
};

}  // namespace esh::cluster
