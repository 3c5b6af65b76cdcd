#include "core/query_executor.h"

#include <algorithm>
#include <chrono>
#include <optional>

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
  // Shared-scan admission weighs a queued candidate's own plan. Only a
  // query that queues behind another task can be a candidate, so it is
  // priced here, off the queue lock; one that reaches an empty queue is
  // pushed unpriced in the same lock hold.
  std::optional<double> cost_ms;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    not_full_.wait(lock, [this] { return queue_.size() < queue_capacity_; });
    if (!shared_scan_ || cost_ms || queue_.empty()) break;
    lock.unlock();
    cost_ms = db_->planner().Plan(query, db_->planner_mode()).predicted_cost_ms;
    lock.lock();
  }
  queue_.push_back(
      Task{query, std::move(done), nullptr, TraceBuffer::NowNs(), cost_ms});
  ++in_flight_;
  lock.unlock();
  not_empty_.notify_one();
}

void QueryExecutor::SubmitTask(std::function<void()> work) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return queue_.size() < queue_capacity_; });
    queue_.push_back(Task{ValueInterval{}, nullptr, std::move(work),
                          TraceBuffer::NowNs(), std::nullopt});
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
      if (shared_scan_ && group.front().work == nullptr && !queue_.empty()) {
        // Shared-scan grouping, at head-dequeue only: greedily admit
        // still-queued queries that overlap the group's envelope and
        // whose admission the planner prices as no more expensive
        // fused than isolated. Members only ever move EARLIER than
        // their FIFO turn and the head never waits for arrivals, so
        // grouping cannot worsen any query's latency; the size cap
        // bounds the per-cell predicate fan-out. Each candidate costs
        // one plan here, the widened envelope's: Submit priced the
        // candidate (it queued behind the head), and the envelope's
        // cost is carried. A head that reached an empty queue is
        // priced once, when a candidate first meets it.
        const PlannerMode mode = db_->planner_mode();
        ValueInterval envelope = group.front().query;
        std::optional<double> envelope_ms = group.front().cost_ms;
        for (auto it = queue_.begin();
             it != queue_.end() && group.size() < kMaxScanGroup;) {
          std::optional<double> shared_ms;
          if (it->work == nullptr && envelope.Intersects(it->query)) {
            if (!envelope_ms) {
              envelope_ms =
                  db_->planner().Plan(envelope, mode).predicted_cost_ms;
            }
            shared_ms = db_->planner().SharedScanCost(
                envelope, *envelope_ms, it->query, *it->cost_ms, mode);
          }
          if (shared_ms) {
            envelope.Extend(it->query);
            envelope_ms = shared_ms;
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
      group.front().work();  // a closure never joins a group
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
          slo_->RecordQuery(db_->value_range(), group[i].query,
                            results[i].stats.wall_seconds * 1000.0);
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

  // Failure bookkeeping shared by the callbacks; guarded by its own
  // mutex so it never contends with the queue lock.
  std::mutex err_mu;

  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    // Each callback writes its own slot of per_query — disjoint
    // locations, so no lock is needed for the stats themselves.
    QueryStats* slot = &out->per_query[i];
    Submit(queries[i], [slot, out, &err_mu](const Status& s,
                                            const QueryStats& stats) {
      if (s.ok()) {
        *slot = stats;
      } else {
        std::lock_guard<std::mutex> lock(err_mu);
        ++out->failed;
        if (out->first_error.ok()) out->first_error = s;
      }
    });
  }
  Drain();
  out->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<double> wall_ms;
  wall_ms.reserve(out->per_query.size());
  for (const QueryStats& qs : out->per_query) {
    out->total.Accumulate(qs);
    wall_ms.push_back(qs.wall_seconds * 1000.0);
  }
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
