// Span recorder for the traced benchmark pass. Every span is a timed call
// the benchmark makes into one layer of the system (or a call the system
// makes into a matcher through the timing decorator). Spans are kept in
// memory, reduced to per-kind total and self times, and written out as
// Chrome trace-event JSON when the run ends.
//
// The simulator is single-threaded and the matcher worker pool joins
// before match_batch returns, so every span opens and closes on one
// thread and spans nest strictly: a plain stack gives each span its
// parent.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kRunUntil,         // Simulator::run_until: event core, handlers, net, ...
  kPublish,          // StreamHub::publish
  kSubscribe,        // StreamHub::subscribe
  kUnsubscribe,      // StreamHub::unsubscribe
  kGenPublication,   // workload generators: next_publication
  kGenSubscription,  // workload generators: subscription
  kGenChurn,         // ChurnStream::next
  kOracleMatch,      // OracleMatcher::match / match_batch
  kOracleUpdate,     // OracleMatcher::add / remove
  kFilterMatch,      // real kernel match / match_batch
  kFilterUpdate,     // real kernel add / remove
};
inline constexpr std::size_t kSpanKinds = 11;

inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "sim.run_until",          "pubsub.publish",
    "pubsub.subscribe",       "pubsub.unsubscribe",
    "workload.next_publication", "workload.subscription",
    "workload.churn",         "workload.oracle_match",
    "workload.oracle_update", "filter.match",
    "filter.update"};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t pub = 0;     // publication id, 0 when there is none
    std::int32_t parent = -1;  // index of the enclosing span
    SpanKind kind = SpanKind::kRunUntil;
  };

  std::size_t open(SpanKind kind, std::uint64_t pub) {
    const std::int32_t parent =
        stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    spans_.push_back(Span{now_ns(), 0, pub, parent, kind});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  // Closes the innermost open span (which must be `index`); returns its
  // duration in nanoseconds.
  std::int64_t close(std::size_t index) {
    Span& span = spans_[index];
    span.end_ns = now_ns();
    stack_.pop_back();
    return span.end_ns - span.start_ns;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Writes at most `max_events` spans (the earliest) as Chrome trace-event
  // JSON; returns false when the file cannot be written.
  bool write_chrome(const std::string& path, std::size_t max_events) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    const std::size_t n = std::min(spans_.size(), max_events);
    std::fprintf(out, "{\"otherData\": {\"spans\": %zu, \"written\": %zu},\n",
                 spans_.size(), n);
    std::fprintf(out, "\"traceEvents\": [\n");
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"pub\":%llu}}%s\n",
                   kSpanNames[static_cast<std::size_t>(s.kind)],
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<unsigned long long>(s.pub),
                   i + 1 < n ? "," : "");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// RAII span; a no-op without a recorder (the timed pass).
class Scope {
 public:
  Scope(SpanRecorder* recorder, SpanKind kind, std::uint64_t pub = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(kind, pub) : 0) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

// Per-kind totals over the spans [begin, end) of one phase. Self time is a
// span's duration minus the durations of its direct children.
struct SpanTotals {
  std::array<double, kSpanKinds> total_s{};
  std::array<double, kSpanKinds> self_s{};
  std::array<std::uint64_t, kSpanKinds> count{};

  [[nodiscard]] double total(SpanKind k) const {
    return total_s[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] double self(SpanKind k) const {
    return self_s[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t calls(SpanKind k) const {
    return count[static_cast<std::size_t>(k)];
  }
};

inline SpanTotals reduce(const SpanRecorder& recorder, std::size_t begin,
                         std::size_t end) {
  const auto& spans = recorder.spans();
  std::vector<double> child_s(end - begin, 0.0);
  SpanTotals totals;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= begin) {
      child_s[static_cast<std::size_t>(s.parent) - begin] += dur;
    }
  }
  for (std::size_t i = begin; i < end; ++i) {
    const auto& s = spans[i];
    const auto k = static_cast<std::size_t>(s.kind);
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    totals.total_s[k] += dur;
    totals.self_s[k] += dur - child_s[i - begin];
    ++totals.count[k];
  }
  return totals;
}

}  // namespace perfbench
