// Emulated host: a fixed number of cores executing submitted jobs on the
// simulated clock. Reproduces the STREAMMINE3G execution model (paper
// §III): each host runs a thread pool sized to its cores; a slice's
// read-locked work (e.g. matching) can occupy several cores in parallel,
// while read/write-locked work (e.g. subscription insertion, state
// serialization) is exclusive per slice.
//
// CPU utilization emerges from accounting of busy core-time, which feeds
// the probes consumed by the elasticity enforcer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"

namespace esh::cluster {

// Synchronization mode of a job with respect to its slice's state,
// mirroring STREAMMINE3G's R / R/W slice locks.
enum class LockMode {
  kNone,   // no slice state touched; never serialized
  kRead,   // shared: concurrent with other kRead jobs of the same slice
  kWrite,  // exclusive: waits for all jobs of the slice, blocks all others
};

struct HostSpec {
  int cores = 8;
  // Work units one core executes per second. With the default, one unit is
  // one microsecond of reference-core time.
  double units_per_second = 1e6;
};

class Host {
 public:
  Host(sim::Simulator& simulator, HostId id, HostSpec spec = {});
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] const HostSpec& spec() const { return spec_; }

  // Submits a job costing `cost_units` of single-core work, belonging to
  // `slice` (which scopes the lock), to run when a core and the lock are
  // available. Jobs of the same slice dispatch in submission order.
  // `on_complete` runs when the job finishes. Use SliceId::invalid() with
  // LockMode::kNone for slice-less work. Slice ids index a dense table, so
  // they must stay below kMaxSliceId.
  void submit(SliceId slice, LockMode mode, double cost_units,
              sim::Callback on_complete);
  static constexpr std::uint64_t kMaxSliceId = std::uint64_t{1} << 20;

  // Total busy core-microseconds since construction (monotone).
  [[nodiscard]] double busy_core_us() const { return busy_core_us_; }

  // Busy core-microseconds attributed to one slice.
  [[nodiscard]] double slice_busy_core_us(SliceId slice) const;

  // Utilization (0..1) over a window ending now, given the busy counter
  // sampled at the window start. Includes partially-finished running jobs.
  [[nodiscard]] double utilization(double busy_at_window_start_us,
                                   SimDuration window) const;

  // Busy counter including the elapsed part of currently-running jobs;
  // use this to sample utilization windows.
  [[nodiscard]] double busy_core_us_now() const;
  [[nodiscard]] double slice_busy_core_us_now(SliceId slice) const;

  [[nodiscard]] int running_jobs() const { return running_jobs_; }
  [[nodiscard]] std::size_t queued_jobs() const { return queued_jobs_; }

  // Removes per-slice accounting after a slice migrates away. Requires the
  // slice to have no queued or running jobs.
  void forget_slice(SliceId slice);

  [[nodiscard]] bool has_pending_work(SliceId slice) const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // One pool entry per queued or running job; queued ones chain through
  // `next` into their slice's FIFO.
  struct Job {
    std::uint32_t sched = 0;  // index into slices_
    std::uint32_t next = kNil;
    LockMode mode = LockMode::kNone;
    SimDuration duration{};
    sim::Callback on_complete;
  };

  // Per-slice scheduling and accounting, indexed by slice id + 1; index 0
  // is slice-less work (SliceId::invalid()).
  struct SliceSched {
    std::uint32_t head = kNil;  // FIFO of queued jobs
    std::uint32_t tail = kNil;
    int running_read = 0;
    bool running_write = false;
    // Running jobs of any mode, and the sum of their start times: live
    // accounting is running * now - started_sum, exact in integer us.
    std::uint32_t running = 0;
    std::int64_t started_sum_us = 0;
    double busy_core_us = 0.0;
    // Links of the round-robin ready list (slices with queued work).
    bool in_ready = false;
    std::uint32_t ready_prev = kNil;
    std::uint32_t ready_next = kNil;
  };

  [[nodiscard]] static std::size_t sched_index(SliceId slice);
  [[nodiscard]] static SliceId slice_at(std::uint32_t s) {
    return s == 0 ? SliceId::invalid() : SliceId{s - 1};
  }
  [[nodiscard]] const SliceSched* find_sched(SliceId slice) const;
  void dispatch();
  bool try_dispatch_slice(std::uint32_t s);
  void start_job(std::uint32_t job);
  void finish_job(std::uint32_t job);
  void link_ready_back(std::uint32_t s);
  void unlink_ready(std::uint32_t s);
  [[nodiscard]] SimDuration job_duration(double cost_units) const;

  sim::Simulator& simulator_;
  HostId id_;
  HostSpec spec_;
  int free_cores_;
  int running_jobs_ = 0;
  std::size_t queued_jobs_ = 0;
  double busy_core_us_ = 0.0;
  std::int64_t started_sum_us_ = 0;  // over every running job
  sim::SlotPool<Job> jobs_;
  std::vector<SliceSched> slices_;
  // Round-robin order of slices with queued work (no duplicates).
  std::uint32_t ready_head_ = kNil;
  std::uint32_t ready_tail_ = kNil;
};

}  // namespace esh::cluster
