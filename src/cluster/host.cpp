#include "cluster/host.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"

namespace esh::cluster {

Host::Host(sim::Simulator& simulator, HostId id, HostSpec spec)
    : simulator_(simulator), id_(id), spec_(spec), free_cores_(spec.cores) {
  if (spec.cores <= 0 || spec.units_per_second <= 0.0) {
    throw std::invalid_argument{"Host: cores and capacity must be positive"};
  }
}

std::size_t Host::sched_index(SliceId slice) {
  if (!slice.valid()) return 0;
  if (slice.value() >= kMaxSliceId) {
    throw std::invalid_argument{"Host: slice id beyond the dense table"};
  }
  return static_cast<std::size_t>(slice.value()) + 1;
}

const Host::SliceSched* Host::find_sched(SliceId slice) const {
  if (slice.valid() && slice.value() >= kMaxSliceId) return nullptr;
  const std::size_t s = sched_index(slice);
  return s < slices_.size() ? &slices_[s] : nullptr;
}

void Host::submit(SliceId slice, LockMode mode, double cost_units,
                  sim::Callback on_complete) {
  if (cost_units < 0.0) {
    throw std::invalid_argument{"Host::submit: negative cost"};
  }
  const std::size_t s = sched_index(slice);
  if (s >= slices_.size()) slices_.resize(s + 1);
  const std::uint32_t job = jobs_.acquire();
  Job& entry = jobs_[job];
  entry.sched = static_cast<std::uint32_t>(s);
  entry.next = kNil;
  entry.mode = mode;
  entry.duration = job_duration(cost_units);
  entry.on_complete = std::move(on_complete);
  SliceSched& sched = slices_[s];
  if (sched.tail == kNil) {
    sched.head = job;
  } else {
    jobs_[sched.tail].next = job;
  }
  sched.tail = job;
  ++queued_jobs_;
  if (!sched.in_ready) link_ready_back(static_cast<std::uint32_t>(s));
  dispatch();
}

void Host::link_ready_back(std::uint32_t s) {
  SliceSched& sched = slices_[s];
  sched.in_ready = true;
  sched.ready_prev = ready_tail_;
  sched.ready_next = kNil;
  if (ready_tail_ == kNil) {
    ready_head_ = s;
  } else {
    slices_[ready_tail_].ready_next = s;
  }
  ready_tail_ = s;
}

void Host::unlink_ready(std::uint32_t s) {
  SliceSched& sched = slices_[s];
  if (sched.ready_prev == kNil) {
    ready_head_ = sched.ready_next;
  } else {
    slices_[sched.ready_prev].ready_next = sched.ready_next;
  }
  if (sched.ready_next == kNil) {
    ready_tail_ = sched.ready_prev;
  } else {
    slices_[sched.ready_next].ready_prev = sched.ready_prev;
  }
  sched.in_ready = false;
  sched.ready_prev = kNil;
  sched.ready_next = kNil;
}

void Host::dispatch() {
  // Fair round-robin over slices with queued work: after a slice receives
  // a core it moves to the back of the ready list, so slices sharing a
  // host progress at the same rate (vital for the EP operator, which
  // awaits the *slowest* M slice's partial list for every publication).
  // A slice whose head job is blocked by its lock is skipped in place.
  while (free_cores_ > 0 && ready_head_ != kNil) {
    bool dispatched = false;
    for (std::uint32_t s = ready_head_; s != kNil;) {
      const std::uint32_t next = slices_[s].ready_next;
      if (slices_[s].head == kNil) {
        unlink_ready(s);
        s = next;
        continue;
      }
      if (!try_dispatch_slice(s)) {
        s = next;  // blocked by its slice lock; keep its turn position
        continue;
      }
      dispatched = true;
      unlink_ready(s);
      // Back of the list: the next core goes to a sibling slice first.
      if (slices_[s].head != kNil) link_ready_back(s);
      break;  // rescan from the front with the updated order
    }
    if (!dispatched) break;
  }
}

bool Host::try_dispatch_slice(std::uint32_t s) {
  SliceSched& sched = slices_[s];
  const std::uint32_t job = sched.head;
  const LockMode mode = jobs_[job].mode;
  switch (mode) {
    case LockMode::kNone:
      break;
    case LockMode::kRead:
      if (sched.running_write) return false;
      break;
    case LockMode::kWrite:
      if (sched.running_write || sched.running_read > 0) return false;
      break;
  }
  ESH_INVARIANT("cluster", "queued-jobs-accounting", queued_jobs_ > 0,
                ::esh::contracts::Detail{}
                    .host(id_)
                    .slice(slice_at(s))
                    .expected("queued_jobs > 0")
                    .actual(queued_jobs_));
  sched.head = jobs_[job].next;
  if (sched.head == kNil) sched.tail = kNil;
  --queued_jobs_;
  if (mode == LockMode::kRead) ++sched.running_read;
  if (mode == LockMode::kWrite) sched.running_write = true;
  start_job(job);
  return true;
}

SimDuration Host::job_duration(double cost_units) const {
  const double us = cost_units * 1e6 / spec_.units_per_second;
  return micros(static_cast<std::int64_t>(us));
}

void Host::start_job(std::uint32_t job) {
  Job& entry = jobs_[job];
  // Core capacity never goes negative: dispatch() only starts jobs while
  // free_cores_ > 0, so the decrement below cannot underflow.
  ESH_INVARIANT("cluster", "core-capacity-nonnegative", free_cores_ > 0,
                ::esh::contracts::Detail{}
                    .host(id_)
                    .slice(slice_at(entry.sched))
                    .expected("free_cores > 0")
                    .actual(free_cores_));
  --free_cores_;
  ++running_jobs_;
  const SimTime now = simulator_.now();
  SliceSched& sched = slices_[entry.sched];
  ++sched.running;
  sched.started_sum_us += now.count();
  started_sum_us_ += now.count();
  const auto finish = [this, job] { finish_job(job); };
  static_assert(sim::Callback::stores_inline<decltype(finish)>);
  simulator_.schedule(entry.duration, finish);
}

void Host::finish_job(std::uint32_t job) {
  ++free_cores_;
  --running_jobs_;
  ESH_INVARIANT("cluster", "core-capacity-bounded",
                free_cores_ <= spec_.cores,
                ::esh::contracts::Detail{}
                    .host(id_)
                    .expected(spec_.cores)
                    .actual(free_cores_)
                    .note("job completion released a core twice"));
  Job& entry = jobs_[job];
  SliceSched& sched = slices_[entry.sched];
  if (entry.mode == LockMode::kRead) --sched.running_read;
  if (entry.mode == LockMode::kWrite) sched.running_write = false;
  // The job started exactly `duration` ago.
  const std::int64_t started = (simulator_.now() - entry.duration).count();
  --sched.running;
  sched.started_sum_us -= started;
  started_sum_us_ -= started;
  const auto busy = static_cast<double>(entry.duration.count());
  busy_core_us_ += busy;
  sched.busy_core_us += busy;
  sim::Callback on_complete = std::move(entry.on_complete);
  jobs_.release(job);
  // Completion may submit follow-up work; dispatch first so freed
  // capacity is reused before the callback's submissions queue up.
  dispatch();
  if (on_complete) on_complete();
  dispatch();
}

double Host::slice_busy_core_us(SliceId slice) const {
  const SliceSched* sched = find_sched(slice);
  return sched == nullptr ? 0.0 : sched->busy_core_us;
}

double Host::busy_core_us_now() const {
  const std::int64_t now = simulator_.now().count();
  return busy_core_us_ +
         static_cast<double>(running_jobs_ * now - started_sum_us_);
}

double Host::slice_busy_core_us_now(SliceId slice) const {
  const SliceSched* sched = find_sched(slice);
  if (sched == nullptr) return 0.0;
  const std::int64_t now = simulator_.now().count();
  return sched->busy_core_us +
         static_cast<double>(static_cast<std::int64_t>(sched->running) * now -
                             sched->started_sum_us);
}

double Host::utilization(double busy_at_window_start_us,
                         SimDuration window) const {
  if (window <= SimDuration::zero()) return 0.0;
  const double busy = busy_core_us_now() - busy_at_window_start_us;
  const double capacity = static_cast<double>(spec_.cores) *
                          static_cast<double>(window.count());
  return std::clamp(busy / capacity, 0.0, 1.0);
}

void Host::forget_slice(SliceId slice) {
  const SliceSched* found = find_sched(slice);
  if (found == nullptr) return;
  if (found->head != kNil || found->running_read > 0 ||
      found->running_write) {
    throw std::logic_error{"Host::forget_slice: slice still has work"};
  }
  const auto s = static_cast<std::uint32_t>(sched_index(slice));
  if (slices_[s].in_ready) unlink_ready(s);
  // A still-running kNone job keeps its share of the live accounting and
  // lands its busy time on the fresh counters when it completes.
  slices_[s].busy_core_us = 0.0;
}

bool Host::has_pending_work(SliceId slice) const {
  const SliceSched* sched = find_sched(slice);
  return sched != nullptr && (sched->head != kNil || sched->running > 0);
}

}  // namespace esh::cluster
