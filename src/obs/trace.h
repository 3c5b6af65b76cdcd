#ifndef FIELDDB_OBS_TRACE_H_
#define FIELDDB_OBS_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_buffer.h"
#include "storage/io_stats.h"

namespace fielddb {

/// One phase of a query's execution. The engine records the paper's
/// three-step pipeline — "filter" (index search), "fetch" (candidate
/// retrieval from the clustered store) and "estimate" (inverse
/// interpolation over fetched cells) — but the model is generic: a span
/// is any named stretch of work with a wall time, the page I/O it
/// caused, and a phase-specific output cardinality.
struct TraceSpan {
  std::string name;
  double wall_seconds = 0.0;
  IoStats io;          // page traffic attributable to this span
  uint64_t items = 0;  // e.g. candidates for "filter", answers for "estimate"
  std::string detail;  // free-form annotation, e.g. "subfields=12"
};

/// An ordered list of spans attached to one query execution. Spans do
/// not overlap: their I/O deltas sum exactly to the query's IoStats
/// (asserted by tests/explain_test.cc), and their wall times sum to the
/// query wall time minus the untraced glue between phases.
class QueryTrace {
 public:
  void AddSpan(TraceSpan span) { spans_.push_back(std::move(span)); }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const TraceSpan* Find(std::string_view name) const;

  double TotalWallSeconds() const;
  IoStats TotalIo() const;

  /// Human-readable tree, one line per span.
  std::string ToString() const;
  /// {"spans":[{"name":...,"wall_ms":...,"logical_reads":...,...}]}
  std::string ToJson() const;

 private:
  std::vector<TraceSpan> spans_;
};

/// The one span recorder. A span is recorded into two sinks, each only
/// when it exists: the process-wide TraceBuffer ring (obs/trace_buffer.h)
/// when tracing is enabled at construction, and `trace`, the per-query
/// list EXPLAIN reads, when non-null. Both take the span's duration from
/// the same two TraceBuffer::NowNs() reads, at construction and at
/// Finish(); the per-query span also gets the I/O delta of the calling
/// thread's sink (CurrentIoSink(), installed by the query's
/// FieldEngine::MeasureQuery) and the detail. With neither sink a span
/// costs one relaxed load and a branch: it builds no string and copies
/// no IoStats. `name` and `category` must be string literals (the ring
/// stores the pointers).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category,
             QueryTrace* trace = nullptr)
      : name_(name), category_(category), ring_(TraceBuffer::enabled()) {
    if (ring_ || trace != nullptr) Start(trace);
  }
  ~ScopedSpan() { Finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t n) { items_ = n; }
  /// Annotates the per-query span; a no-op without a trace, so build a
  /// costly detail only when traced().
  void set_detail(std::string_view d) {
    if (per_query_) per_query_->detail = d;
  }
  bool traced() const { return per_query_.has_value(); }

  /// Moves `ns` of this span's duration out of its tail: a nested phase
  /// timed in slices (the estimate step inside the fetch scan) is
  /// recorded as its own span starting at end_ns().
  void DeductNs(uint64_t ns) { deduct_ns_ += ns; }

  /// Records the span now (idempotent; also called by the destructor).
  void Finish() {
    if (open_) Close();
  }
  /// Where the recorded span ends, on the NowNs() clock (after Finish).
  uint64_t end_ns() const { return end_ns_; }

  /// Records a span timed elsewhere — it started on another thread, or
  /// is a sum of slices — into the same sinks: the ring when enabled and
  /// `trace` when non-null (no I/O, no detail).
  static void Record(const char* name, const char* category,
                     QueryTrace* trace, uint64_t start_ns, uint64_t dur_ns,
                     uint64_t items = 0);

 private:
  // What only a span with a per-query trace needs.
  struct PerQuery {
    QueryTrace* trace = nullptr;
    const IoStats* sink = nullptr;
    IoStats io_start;
    std::string detail;
  };

  void Start(QueryTrace* trace);
  void Close();

  const char* name_;
  const char* category_;
  const bool ring_;  // TraceBuffer was enabled at construction
  bool open_ = false;
  uint64_t start_ns_ = 0;
  uint64_t end_ns_ = 0;
  uint64_t deduct_ns_ = 0;
  uint64_t items_ = 0;
  std::optional<PerQuery> per_query_;
};

}  // namespace fielddb

#endif  // FIELDDB_OBS_TRACE_H_
