#ifndef FIELDDB_CORE_QUERY_EXECUTOR_H_
#define FIELDDB_CORE_QUERY_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/field_database.h"
#include "core/stats.h"
#include "field/region.h"

namespace fielddb {

class Counter;
class Histogram;
class SloTracker;

/// Fixed-size thread pool running value queries against one open
/// FieldDatabase. Each worker owns a QueryContext (so scratch and I/O
/// attribution never cross threads) and pulls from one bounded queue;
/// Submit blocks when the queue is full, which keeps a fast producer
/// from buffering an unbounded workload.
///
/// The executor only issues const query calls — it never updates, saves
/// or closes the database — so any number of executors may share a
/// database, but the caller must not run mutating operations while one
/// is active (the database's threading contract).
class QueryExecutor {
 public:
  struct Options {
    /// Worker threads; clamped to >= 1.
    size_t threads = 4;
    /// Pending (submitted, not yet started) queries before Submit
    /// blocks; clamped to >= 1.
    size_t queue_capacity = 1024;
    /// Optional per-query-class SLO tracking (obs/slo.h): every
    /// query is classified by its value-interval width relative to the
    /// database's value range and recorded against that class's latency
    /// objective; a failed query misses it. Not owned; must outlive the
    /// executor. Null disables tracking.
    SloTracker* slo = nullptr;
    /// Shared-scan scheduling (DESIGN.md §17): when a worker dequeues
    /// the queue's head, it also pulls, in queue order, every
    /// still-queued query whose interval meets the group's growing
    /// envelope, then runs the whole group as ONE stats-only
    /// FieldDatabase::Query, one connected group of overlapping bands
    /// that it sweeps once — the only plan the group makes.
    /// Overlap is the whole admission rule: for intersecting bands the
    /// hull's plan never costs more than the two plans apart. Answers
    /// are bit-identical to isolated execution; each member's stats.io
    /// is leader-charged (the head carries the sweep). Fairness: groups
    /// form only at head-dequeue from already queued work — a member
    /// can only move *earlier* than its FIFO turn, the head never waits
    /// for future arrivals, and the group size is capped
    /// (kMaxScanGroup) — so no query's latency is worsened by grouping.
    bool shared_scan = false;
  };

  /// Largest group one shared sweep carries. Bounds both the per-cell
  /// predicate fan-out and the latency a rider can add.
  static constexpr size_t kMaxScanGroup = 16;

  /// Invoked on the worker thread that ran the query.
  using Callback = std::function<void(const Status&, const QueryStats&)>;

  /// Aggregate result of RunBatch. Per-query stats are in submission
  /// order regardless of which worker ran each query.
  struct BatchResult {
    std::vector<QueryStats> per_query;
    /// QueryStats::Accumulate over every successful query (its io field
    /// is the exact sum of the per-thread IoStats deltas).
    QueryStats total;
    double wall_seconds = 0.0;  // batch wall time, submit to last result
    double qps = 0.0;
    /// Nearest-rank percentiles of the succeeded queries' wall times.
    double p50_wall_ms = 0.0;
    double p90_wall_ms = 0.0;
    double p99_wall_ms = 0.0;
    uint64_t failed = 0;
    /// OK when every query succeeded, else the first failure observed.
    Status first_error = Status::OK();
  };

  /// `db` must outlive the executor and stay open while it runs.
  QueryExecutor(const FieldDatabase* db, const Options& options);
  explicit QueryExecutor(const FieldDatabase* db)
      : QueryExecutor(db, Options()) {}

  /// Drains outstanding work, then joins the workers.
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Enqueues a stats-only value query; `done` runs on a worker after
  /// the query finishes. Blocks while the queue is at capacity.
  void Submit(const ValueInterval& query, Callback done);

  /// Enqueues an arbitrary closure on the pool — the shard router's
  /// scatter path, where each shard's executor is that shard's serial
  /// lane and a task runs one Query in the worker's QueryContext (so it
  /// reuses the worker's scratch, as the executor's queries do). Generic
  /// tasks share the FIFO queue (their queue-wait is recorded like any
  /// query's) but never join shared-scan groups and never record SLO —
  /// the submitter owns whatever the closure measures. Blocks while the
  /// queue is at capacity.
  void SubmitTask(std::function<void(QueryContext*)> work);

  /// Blocks until every submitted query has finished.
  void Drain();

  /// Runs `queries` across the pool and blocks until all complete.
  /// Individual query failures are recorded in `out` (failed count +
  /// first_error) without aborting the batch; the returned status is
  /// out->first_error.
  Status RunBatch(const std::vector<ValueInterval>& queries,
                  BatchResult* out);

  size_t threads() const { return workers_.size(); }

 private:
  struct Task {
    ValueInterval query;
    Callback done;
    /// Non-null for SubmitTask closures; such tasks bypass the query
    /// path entirely (no grouping, no SLO).
    std::function<void(QueryContext*)> work;
    /// Submit time on the trace clock (TraceBuffer::NowNs); the worker
    /// records dequeue-minus-enqueue as the query's queue-wait (trace
    /// span "queue.wait" + histogram exec.queue_wait_us) — the
    /// saturation signal admission control will key on.
    uint64_t enqueued_ns = 0;
  };

  /// The body of Submit and SubmitTask: blocks while the queue is at
  /// capacity, then stamps `task`'s enqueue time and queues it.
  void Enqueue(Task task);
  void WorkerLoop();

  /// Records queue-wait (histogram + trace) for one dequeued task;
  /// shared by the solo and grouped paths.
  void RecordQueueWait(const Task& task, uint64_t dequeued_ns) const;

  const FieldDatabase* db_;
  const size_t queue_capacity_;
  SloTracker* const slo_;
  const bool shared_scan_;
  Histogram* const queue_wait_us_;  // exec.queue_wait_us
  Counter* const shared_groups_;    // executor.shared_scan_groups

  std::mutex mu_;
  std::condition_variable not_empty_;  // queue gained work or stopping
  std::condition_variable not_full_;   // queue dropped below capacity
  std::condition_variable idle_;       // all submitted work finished
  std::deque<Task> queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_QUERY_EXECUTOR_H_
