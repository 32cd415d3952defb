// Map from SliceId to T for the per-event paths of a slice runtime. Slice
// ids are allocated densely from 1, so most keys index a vector directly;
// the few far above (kExternalChannel) live in a short sorted tail.
// Iteration visits entries in ascending id order — the order sorted_keys()
// gives a hash map — without snapshotting or sorting anything.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace esh::engine {

template <typename T>
class SliceTable {
 public:
  // The entry for `id`, value-initialized when absent.
  T& operator[](SliceId id) {
    if (id.value() < kDenseIds) {
      const auto i = static_cast<std::size_t>(id.value());
      if (i >= dense_.size()) dense_.resize(i + 1);
      if (!dense_[i]) dense_[i].emplace();
      return *dense_[i];
    }
    auto it = lower_bound(sparse_, id);
    if (it == sparse_.end() || it->first != id) {
      it = sparse_.emplace(it, id, T{});
    }
    return it->second;
  }

  [[nodiscard]] T* find(SliceId id) {
    return const_cast<T*>(std::as_const(*this).find(id));
  }
  [[nodiscard]] const T* find(SliceId id) const {
    if (id.value() < kDenseIds) {
      const auto i = static_cast<std::size_t>(id.value());
      return i < dense_.size() && dense_[i] ? &*dense_[i] : nullptr;
    }
    const auto it = lower_bound(sparse_, id);
    return it != sparse_.end() && it->first == id ? &it->second : nullptr;
  }

  void clear() {
    dense_.clear();
    sparse_.clear();
  }

  // Calls fn(SliceId, T&) for every entry, ascending by id.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      if (dense_[i]) fn(SliceId{i}, *dense_[i]);
    }
    for (auto& [id, value] : sparse_) fn(id, value);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      if (dense_[i]) fn(SliceId{i}, *dense_[i]);
    }
    for (const auto& [id, value] : sparse_) fn(id, value);
  }

 private:
  static constexpr std::uint64_t kDenseIds = std::uint64_t{1} << 16;

  template <typename Sparse>
  static auto lower_bound(Sparse& sparse, SliceId id) {
    return std::lower_bound(
        sparse.begin(), sparse.end(), id,
        [](const auto& entry, SliceId key) { return entry.first < key; });
  }

  std::vector<std::optional<T>> dense_;
  std::vector<std::pair<SliceId, T>> sparse_;  // ids >= kDenseIds, sorted
};

}  // namespace esh::engine
