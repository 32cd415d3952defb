// Fixed-size worker pool for a matcher's batched kernels
// (Matcher::set_thread_pool): match_batch fans its pure, side-effect-free
// compute across the pool and joins before returning. The pool is
// matcher-level only. The engine owns none and the discrete-event simulator
// is single-threaded; the pool's users are bench/micro_filter's thread sweep
// and the parallel-match tests.
//
// The fork-join primitive is parallel_for(chunks, fn): the calling thread
// participates as worker 0, the pool's background threads claim remaining
// chunks from a shared atomic cursor, and the call returns once every chunk
// ran. Chunk-to-worker assignment is racy and irrelevant by construction --
// callers must produce per-chunk results merged in chunk order, never
// accumulate across chunks -- which is what makes pool output bit-identical
// to the serial loop at any thread count.
//
// Exception safety: a chunk that throws never terminates a worker thread.
// Each chunk's exception is captured; after every chunk has run (none are
// abandoned), the lowest-indexed captured exception is rethrown in the
// caller. The pool stays usable afterwards, and the destructor joins all
// workers regardless of past failures.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

namespace esh {

class ThreadPool {
 public:
  // `threads` counts the calling thread: ThreadPool{8} runs parallel_for
  // on 8 concurrent workers (7 background threads + the caller). 0 and 1
  // both mean "no background threads" (parallel_for degenerates to an
  // inline loop).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total workers parallel_for spreads over (background threads + caller).
  [[nodiscard]] std::size_t worker_count() const { return worker_count_; }

  // Runs fn(chunk, worker) for every chunk in [0, chunks), spread over the
  // workers; blocks until all chunks completed. `worker` is in
  // [0, worker_count()) and identifies the executing worker (the caller is
  // worker 0), so callers can maintain per-worker scratch without locking;
  // one worker never runs two chunks concurrently. If chunks threw, the
  // exception of the lowest-indexed throwing chunk is rethrown here after
  // every chunk has run. Not reentrant: one parallel_for at a time.
  void parallel_for(std::size_t chunks,
                    const std::function<void(std::size_t chunk,
                                             std::size_t worker)>& fn);

 private:
  struct Job;
  void worker_loop(std::size_t worker_id);

  std::size_t worker_count_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::shared_ptr<Job> job_;    // guarded by mutex_
  std::uint64_t job_seq_ = 0;   // guarded by mutex_; bumps per parallel_for
  bool stop_ = false;           // guarded by mutex_
};

}  // namespace esh
