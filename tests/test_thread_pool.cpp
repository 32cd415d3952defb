// ThreadPool unit tests: fork-join correctness (every chunk runs exactly
// once, worker ids stay in range, the caller participates), the inline
// single-worker path, and the exception contract -- a throwing chunk never
// terminates a worker; every chunk still runs; the lowest-indexed captured
// exception resurfaces in the joiner; and the pool stays usable afterwards.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

#include <atomic>
#include <cstddef>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace esh {
namespace {

TEST(ThreadPoolTest, RunsEveryChunkExactlyOnce) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.worker_count(), 4u);
  constexpr std::size_t kChunks = 257;  // far more chunks than workers
  std::vector<std::atomic<int>> runs(kChunks);
  pool.parallel_for(kChunks, [&](std::size_t chunk, std::size_t worker) {
    EXPECT_LT(worker, pool.worker_count());
    runs[chunk].fetch_add(1);
  });
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(runs[c].load(), 1) << "chunk " << c;
  }
}

TEST(ThreadPoolTest, CallerParticipatesAsWorkerZero) {
  ThreadPool pool{2};
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker0_on_caller{true};
  pool.parallel_for(64, [&](std::size_t, std::size_t worker) {
    if (worker == 0 && std::this_thread::get_id() != caller) {
      worker0_on_caller = false;
    }
  });
  EXPECT_TRUE(worker0_on_caller.load());
}

TEST(ThreadPoolTest, ZeroChunksReturnsImmediately) {
  ThreadPool pool{4};
  pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineInOrder) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(8, [&](std::size_t chunk, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(chunk);
  });
  std::vector<std::size_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ZeroThreadsMeansOneWorker) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.worker_count(), 1u);
  std::size_t ran = 0;
  pool.parallel_for(3, [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran, 3u);
}

TEST(ThreadPoolTest, ExceptionPropagatesToJoinerAfterAllChunksRan) {
  ThreadPool pool{4};
  constexpr std::size_t kChunks = 64;
  std::atomic<std::size_t> ran{0};
  try {
    pool.parallel_for(kChunks, [&](std::size_t chunk, std::size_t) {
      ran.fetch_add(1);
      if (chunk == 17) throw std::runtime_error{"chunk 17"};
    });
    FAIL() << "expected the chunk's exception in the joiner";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 17");
  }
  // No chunk is abandoned when another throws.
  EXPECT_EQ(ran.load(), kChunks);
}

TEST(ThreadPoolTest, LowestIndexedExceptionWins) {
  ThreadPool pool{4};
  try {
    pool.parallel_for(32, [&](std::size_t chunk, std::size_t) {
      if (chunk % 2 == 1) {
        throw std::runtime_error{"chunk " + std::to_string(chunk)};
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
}

TEST(ThreadPoolTest, PoolUsableAfterException) {
  ThreadPool pool{4};
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(16,
                                   [&](std::size_t chunk, std::size_t) {
                                     if (chunk == 3) {
                                       throw std::logic_error{"boom"};
                                     }
                                   }),
                 std::logic_error);
    // The workers all survived: a full fan-out still covers every chunk.
    std::vector<std::atomic<int>> runs(128);
    pool.parallel_for(128, [&](std::size_t chunk, std::size_t) {
      runs[chunk].fetch_add(1);
    });
    for (std::size_t c = 0; c < runs.size(); ++c) {
      ASSERT_EQ(runs[c].load(), 1) << "round " << round << " chunk " << c;
    }
  }
}

TEST(ThreadPoolTest, InlinePathPropagatesExceptions) {
  ThreadPool pool{1};
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t chunk, std::size_t) {
                          if (chunk == 2) throw std::runtime_error{"inline"};
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool{4};
  std::atomic<std::size_t> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.parallel_for(7, [&](std::size_t, std::size_t) {
      total.fetch_add(1);
    });
  }
  EXPECT_EQ(total.load(), 200u * 7u);
}

TEST(ThreadPoolTest, PerWorkerScratchNeedsNoLocking) {
  ThreadPool pool{4};
  constexpr std::size_t kChunks = 500;
  // Non-atomic per-worker counters: safe iff one worker never runs two
  // chunks concurrently, which is the contract callers' scratch relies on.
  std::vector<std::size_t> per_worker(pool.worker_count(), 0);
  pool.parallel_for(kChunks, [&](std::size_t, std::size_t worker) {
    ++per_worker[worker];
  });
  EXPECT_EQ(std::accumulate(per_worker.begin(), per_worker.end(),
                            std::size_t{0}),
            kChunks);
}

TEST(ThreadPoolTest, DestructionWithNoJobsJoinsCleanly) {
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool{8};  // spin up and immediately tear down
  }
}

// ---- stress: irregular batch shapes ----------------------------------------
//
// Batched matching leans on three pool properties under irregular load:
// correctness at arbitrary chunk-to-worker ratios, the lowest-indexed exception
// surviving a storm of concurrent throwers, and the pool remaining serviceable
// for the next batch after a throw. These tests drive all three with
// seeded-random shapes so every run covers a different mix while staying
// reproducible.

TEST(ThreadPoolStressTest, RandomizedChunkAndWorkerCounts) {
  Rng rng{20260807};
  for (int round = 0; round < 40; ++round) {
    const auto workers = static_cast<std::size_t>(rng.next_below(9));
    ThreadPool pool{workers};
    // Cover the degenerate shapes too: 0 chunks, 1 chunk, fewer chunks than
    // workers, and far more chunks than workers.
    const auto chunks = static_cast<std::size_t>(rng.next_below(300));
    std::vector<std::atomic<int>> runs(chunks > 0 ? chunks : 1);
    pool.parallel_for(chunks, [&](std::size_t chunk, std::size_t worker) {
      ASSERT_LT(chunk, chunks);
      ASSERT_LT(worker, pool.worker_count());
      runs[chunk].fetch_add(1);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      ASSERT_EQ(runs[c].load(), 1)
          << "round " << round << " workers " << workers << " chunk " << c;
    }
  }
}

TEST(ThreadPoolStressTest, LowestIndexedExceptionWinsUnderRandomThrowers) {
  Rng rng{4242};
  ThreadPool pool{4};
  for (int round = 0; round < 25; ++round) {
    const std::size_t chunks = 16 + rng.next_below(200);
    // A random subset of chunks throws, mimicking per-chunk failures
    // scattered through one match batch.
    std::vector<bool> throws(chunks, false);
    std::size_t lowest = chunks;
    const std::size_t throwers = 1 + rng.next_below(chunks / 2);
    for (std::size_t t = 0; t < throwers; ++t) {
      const auto c = static_cast<std::size_t>(rng.next_below(chunks));
      throws[c] = true;
      lowest = std::min(lowest, c);
    }
    std::atomic<std::size_t> ran{0};
    try {
      pool.parallel_for(chunks, [&](std::size_t chunk, std::size_t) {
        ran.fetch_add(1);
        if (throws[chunk]) {
          throw std::runtime_error{"chunk " + std::to_string(chunk)};
        }
      });
      FAIL() << "expected a rethrow in round " << round;
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string{e.what()}, "chunk " + std::to_string(lowest))
          << "round " << round;
    }
    // Capture never abandons chunks: the full batch still ran.
    ASSERT_EQ(ran.load(), chunks) << "round " << round;
  }
}

TEST(ThreadPoolStressTest, ReusableForNextBatchAfterRandomThrows) {
  Rng rng{777};
  ThreadPool pool{4};
  // Alternate throwing and clean batches of random sizes: the simulator
  // thread reuses one pool for every M match batch, so a throw in one batch
  // must leave the next batch's fan-out intact.
  for (int round = 0; round < 30; ++round) {
    const std::size_t chunks = 8 + rng.next_below(64);
    const auto doomed = static_cast<std::size_t>(rng.next_below(chunks));
    EXPECT_THROW(pool.parallel_for(chunks,
                                   [&](std::size_t chunk, std::size_t) {
                                     if (chunk == doomed) {
                                       throw std::logic_error{"boom"};
                                     }
                                   }),
                 std::logic_error);
    const std::size_t clean = 8 + rng.next_below(64);
    std::vector<std::atomic<int>> runs(clean);
    pool.parallel_for(clean, [&](std::size_t chunk, std::size_t) {
      runs[chunk].fetch_add(1);
    });
    for (std::size_t c = 0; c < clean; ++c) {
      ASSERT_EQ(runs[c].load(), 1) << "round " << round << " chunk " << c;
    }
  }
}

}  // namespace
}  // namespace esh
