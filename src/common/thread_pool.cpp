#include "common/thread_pool.hpp"

#include <atomic>
#include <cstdint>
#include <utility>

namespace esh {

// One parallel_for invocation. Heap-allocated and shared with every worker
// that participates, so no worker can outlive the state it touches even if
// the caller returns first (the caller only waits for completed chunks; a
// worker that lost the race for the last chunk may still be unwinding).
struct ThreadPool::Job {
  std::size_t chunks = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};  // chunk claim cursor

  std::mutex m;
  std::condition_variable done_cv;
  std::size_t done = 0;  // completed chunks, guarded by m
  std::vector<std::exception_ptr> errors;

  // Claims and runs chunks until none remain. fn stays valid: the caller
  // keeps it alive until done == chunks, and chunks only read fn after a
  // successful claim, which precedes their completion.
  void run(std::size_t worker) {
    for (;;) {
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) return;
      std::exception_ptr error;
      try {
        (*fn)(chunk, worker);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock{m};
      if (error) errors[chunk] = error;
      if (++done == chunks) done_cv.notify_one();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : worker_count_(threads < 1 ? 1 : threads) {
  workers_.reserve(worker_count_ - 1);
  for (std::size_t w = 1; w < worker_count_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::uint64_t seen_seq = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      wake_.wait(lock, [&] { return stop_ || job_seq_ != seen_seq; });
      if (stop_) return;
      seen_seq = job_seq_;
      job = job_;
    }
    // A worker that overslept an entire job sees the bumped sequence with
    // the job already retired; there is nothing left to claim.
    if (job) job->run(worker_id);
  }
}

void ThreadPool::parallel_for(
    std::size_t chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (chunks == 0) return;
  if (worker_count_ <= 1 || chunks == 1) {
    // Inline fast path: same chunk order, same exception behavior (the
    // first throwing chunk aborts the loop -- with one worker no later
    // chunk can have started, matching the pooled contract).
    for (std::size_t c = 0; c < chunks; ++c) fn(c, 0);
    return;
  }

  auto job = std::make_shared<Job>();
  job->chunks = chunks;
  job->fn = &fn;
  job->errors.resize(chunks);
  {
    std::lock_guard<std::mutex> lock{mutex_};
    job_ = job;
    ++job_seq_;
  }
  wake_.notify_all();

  job->run(0);  // the caller is worker 0

  std::unique_lock<std::mutex> lock{job->m};
  job->done_cv.wait(lock, [&] { return job->done == job->chunks; });
  // Take the captured exceptions out of the shared Job: a worker still
  // unwinding from run() may drop the last Job reference at any moment,
  // and the exception objects must not be released on its thread while
  // this one rethrows and the caller inspects them.
  const std::vector<std::exception_ptr> errors = std::move(job->errors);
  lock.unlock();

  {
    // Drop the pool's reference so the Job (and the fn pointer it holds)
    // does not dangle past this call; idle workers hold no reference
    // between jobs.
    std::lock_guard<std::mutex> pool_lock{mutex_};
    if (job_ == job) job_.reset();
  }

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace esh
