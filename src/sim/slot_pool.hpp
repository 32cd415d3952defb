// Index-addressed object pool behind the event core's tables (simulator
// event slots, host job records). Objects live in fixed-size chunks, so
// their addresses never move as the pool grows. acquire() hands out the
// lowest free index, which keeps a steady state packed into the first
// chunks; once a burst (thousands of subscriptions scheduled at once, say)
// drains, its trailing chunks empty out and are released, one spare kept
// so a count hovering at a chunk boundary does not allocate per event.
// The pool only tracks which indices are taken: callers reset an object's
// contents themselves before releasing it.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace esh::sim {

template <typename T>
class SlotPool {
 public:
  static constexpr std::uint32_t kChunkBits = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  // Index of a free object, the lowest one.
  std::uint32_t acquire() {
    while (first_free_word_ < free_bits_.size() &&
           free_bits_[first_free_word_] == 0) {
      ++first_free_word_;
    }
    if (first_free_word_ == free_bits_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSlots));
      chunk_live_.push_back(0);
      free_bits_.resize(free_bits_.size() + kWordsPerChunk, ~std::uint64_t{0});
    }
    std::uint64_t& word = free_bits_[first_free_word_];
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
    word &= word - 1;
    const auto index =
        static_cast<std::uint32_t>(first_free_word_ * 64) + bit;
    ++chunk_live_[index >> kChunkBits];
    return index;
  }

  // Returns `index` to the pool. Precondition: acquired and not released.
  void release(std::uint32_t index) {
    const std::size_t w = index / 64;
    free_bits_[w] |= std::uint64_t{1} << (index % 64);
    if (w < first_free_word_) first_free_word_ = w;
    --chunk_live_[index >> kChunkBits];
    while (chunks_.size() >= 2 && chunk_live_.back() == 0 &&
           chunk_live_[chunk_live_.size() - 2] == 0) {
      chunks_.pop_back();
      chunk_live_.pop_back();
      free_bits_.resize(free_bits_.size() - kWordsPerChunk);
    }
    if (first_free_word_ > free_bits_.size()) {
      first_free_word_ = free_bits_.size();
    }
  }

  // True when `index` addresses storage the pool currently holds (taken or
  // not); objects beyond it were released with their chunk.
  [[nodiscard]] bool holds(std::uint32_t index) const {
    return (index >> kChunkBits) < chunks_.size();
  }

  T& operator[](std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }
  const T& operator[](std::uint32_t index) const {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }

  // Drops every chunk (and the objects in it).
  void clear() {
    chunks_.clear();
    chunk_live_.clear();
    free_bits_.clear();
    first_free_word_ = 0;
  }

 private:
  static constexpr std::size_t kWordsPerChunk = kChunkSlots / 64;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> chunk_live_;  // taken indices per chunk
  std::vector<std::uint64_t> free_bits_;   // one bit per index, 1 = free
  std::size_t first_free_word_ = 0;        // no free bit below this word
};

}  // namespace esh::sim
