#include "core/query_executor.h"

#include <algorithm>
#include <chrono>

#include "core/query_context.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace fielddb {

QueryExecutor::QueryExecutor(const FieldDatabase* db, const Options& options)
    : db_(db),
      queue_capacity_(std::max<size_t>(1, options.queue_capacity)),
      slo_(options.slo),
      shared_scan_(options.shared_scan),
      queue_wait_us_(
          MetricsRegistry::Default().GetHistogram("exec.queue_wait_us")),
      shared_groups_(MetricsRegistry::Default().GetCounter(
          "executor.shared_scan_groups")) {
  const size_t n = std::max<size_t>(1, options.threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryExecutor::~QueryExecutor() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void QueryExecutor::Submit(const ValueInterval& query, Callback done) {
  Enqueue(Task{query, std::move(done), nullptr});
}

void QueryExecutor::SubmitTask(std::function<void(QueryContext*)> work) {
  Enqueue(Task{ValueInterval{}, nullptr, std::move(work)});
}

void QueryExecutor::Enqueue(Task task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return queue_.size() < queue_capacity_; });
    task.enqueued_ns = TraceBuffer::NowNs();
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  not_empty_.notify_one();
}

void QueryExecutor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void QueryExecutor::RecordQueueWait(const Task& task,
                                    uint64_t dequeued_ns) const {
  // Queue wait: the stretch between Submit's enqueue and the dequeue.
  // Recorded even for queries that go on to fail — the wait happened
  // either way.
  const uint64_t wait_ns = dequeued_ns - task.enqueued_ns;
  queue_wait_us_->Record(static_cast<double>(wait_ns) / 1e3);
  ScopedSpan::Record("queue.wait", "queue-wait", nullptr, task.enqueued_ns,
                     wait_ns);
}

void QueryExecutor::WorkerLoop() {
  // The worker's private per-query state; reused for every query this
  // thread runs.
  QueryContext ctx;
  std::vector<Task> group;
  std::vector<ValueInterval> bands;
  std::vector<ValueQueryResult> results;
  for (;;) {
    group.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (shared_scan_ && group.front().work == nullptr) {
        // Shared-scan grouping, at head-dequeue only: admit still-queued
        // queries that meet the group's envelope, in queue order. Members
        // only ever move EARLIER than their FIFO turn and the head never
        // waits for arrivals, so grouping cannot worsen any query's
        // latency; the size cap bounds the per-cell predicate fan-out.
        // Nothing is planned here: the group's sweep plans its envelope.
        ValueInterval envelope = group.front().query;
        for (auto it = queue_.begin();
             it != queue_.end() && group.size() < kMaxScanGroup;) {
          if (it->work == nullptr && envelope.Intersects(it->query)) {
            envelope.Extend(it->query);
            group.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    // More than one queue slot may have been freed; wake every blocked
    // Submit when it was.
    if (group.size() > 1) {
      not_full_.notify_all();
    } else {
      not_full_.notify_one();
    }

    const uint64_t dequeued_ns = TraceBuffer::NowNs();
    for (const Task& task : group) RecordQueueWait(task, dequeued_ns);

    if (group.front().work != nullptr) {
      group.front().work(&ctx);  // a closure never joins a group
    } else {
      // One stats-only Query per group: one band runs alone, a grouped
      // head runs as one shared sweep.
      if (group.size() > 1) shared_groups_->Increment();
      bands.clear();
      for (const Task& task : group) bands.push_back(task.query);
      results.resize(group.size());
      const Status s =
          db_->Query({.bands = bands, .regions = false}, results, &ctx);
      for (size_t i = 0; i < group.size(); ++i) {
        if (slo_ != nullptr) {
          if (s.ok()) {
            slo_->RecordQuery(db_->value_range(), group[i].query,
                              results[i].stats.wall_seconds * 1000.0);
          } else {
            slo_->RecordFailure(db_->value_range(), group[i].query);
          }
        }
        if (group[i].done) group[i].done(s, results[i].stats);
      }
    }

    bool now_idle = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= group.size();
      now_idle = (in_flight_ == 0);
    }
    if (now_idle) idle_.notify_all();
  }
}

Status QueryExecutor::RunBatch(const std::vector<ValueInterval>& queries,
                               BatchResult* out) {
  *out = BatchResult{};
  out->per_query.resize(queries.size());
  if (queries.empty()) return Status::OK();

  // The callbacks' bookkeeping, guarded by its own mutex so it never
  // contends with the queue lock: failures, and the wall times of the
  // queries that succeeded (a failed query has no latency to rank).
  std::mutex mu;
  std::vector<double> wall_ms;
  wall_ms.reserve(queries.size());

  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryStats* slot = &out->per_query[i];
    Submit(queries[i], [slot, out, &mu, &wall_ms](const Status& s,
                                                  const QueryStats& stats) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.ok()) {
        *slot = stats;
        wall_ms.push_back(stats.wall_seconds * 1000.0);
      } else {
        ++out->failed;
        if (out->first_error.ok()) out->first_error = s;
      }
    });
  }
  Drain();
  out->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (const QueryStats& qs : out->per_query) out->total.Accumulate(qs);
  std::sort(wall_ms.begin(), wall_ms.end());
  out->p50_wall_ms = PercentileOfSorted(wall_ms, 50);
  out->p90_wall_ms = PercentileOfSorted(wall_ms, 90);
  out->p99_wall_ms = PercentileOfSorted(wall_ms, 99);
  const uint64_t succeeded = queries.size() - out->failed;
  out->qps = out->wall_seconds > 0.0
                 ? static_cast<double>(succeeded) / out->wall_seconds
                 : 0.0;
  return out->first_error;
}

}  // namespace fielddb
