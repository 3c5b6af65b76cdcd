// Differential tests for shared-scan multi-query execution (DESIGN.md
// §17): a batch run as one fused sweep must answer bit-identically to
// the same queries run in isolation, across every index method; the
// members' leader-charged IoStats must sum to no more than the isolated
// totals; the executor's head-dequeue grouping must fuse overlapping
// queued queries; and a corrupt index must degrade the whole group to
// the store sweep exactly like the single-query path.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/field_database.h"
#include "core/query_executor.h"
#include "core/shard_router.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "obs/metrics.h"
#include "obs/trace_buffer.h"
#include "storage/fault_injection.h"
#include "query_util.h"

namespace fielddb {
namespace {

constexpr IndexMethod kAllMethods[] = {
    IndexMethod::kLinearScan, IndexMethod::kIAll, IndexMethod::kIHilbert,
    IndexMethod::kIntervalQuadtree, IndexMethod::kRowIp};

class SharedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FractalOptions fo;
    fo.size_exp = 5;
    fo.roughness_h = 0.6;
    fo.seed = 11;
    field_ = MakeFractalField(fo);
    ASSERT_TRUE(field_.ok());
  }

  StatusOr<std::unique_ptr<FieldDatabase>> BuildDb(IndexMethod method) {
    FieldDatabaseOptions options;
    options.method = method;
    return FieldDatabase::Build(*field_, options);
  }

  std::vector<ValueInterval> OverlappingQueries(uint32_t n) const {
    // Wide intervals from one seed over the same range overlap heavily —
    // the workload shared scans exist for.
    WorkloadOptions wo;
    wo.qinterval_fraction = 0.2;
    wo.num_queries = n;
    wo.seed = 42;
    return GenerateValueQueries(field_->ValueRange(), wo);
  }

  StatusOr<GridField> field_ = Status::NotFound("not built");
};

TEST_F(SharedScanTest, MatchesIsolatedAcrossAllMethods) {
  const std::vector<ValueInterval> queries = OverlappingQueries(12);
  for (const IndexMethod method : kAllMethods) {
    SCOPED_TRACE(IndexMethodName(method));
    auto db = BuildDb(method);
    ASSERT_TRUE(db.ok());

    std::vector<ValueQueryResult> isolated(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(QueryOne(**db, queries[i], &isolated[i]).ok());
    }

    std::vector<ValueQueryResult> shared;
    ASSERT_TRUE(QueryShared(**db, queries, &shared).ok());
    ASSERT_EQ(shared.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i));
      EXPECT_EQ(shared[i].stats.answer_cells, isolated[i].stats.answer_cells);
      EXPECT_EQ(shared[i].stats.region_pieces,
                isolated[i].stats.region_pieces);
      EXPECT_EQ(shared[i].stats.index_fallbacks, 0u);
      ASSERT_EQ(shared[i].region.NumPieces(), isolated[i].region.NumPieces());
      // Same cells visited in the same storage order: the areas are
      // bit-identical, not merely close.
      EXPECT_EQ(shared[i].region.TotalArea(), isolated[i].region.TotalArea());
    }
  }
}

TEST_F(SharedScanTest, ForcedPlansAgreeWithAuto) {
  // The sweep must be plan-invariant: fused scan and indexed
  // filter+fetch over the envelope visit the same matching cells.
  const std::vector<ValueInterval> queries = OverlappingQueries(6);
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());

  std::vector<std::vector<QueryStats>> per_mode;
  for (const PlannerMode mode : {PlannerMode::kAuto, PlannerMode::kForceScan,
                                 PlannerMode::kForceIndex}) {
    (*db)->set_planner_mode(mode);
    std::vector<QueryStats> stats;
    ASSERT_TRUE(CountShared(**db, queries, &stats).ok());
    per_mode.push_back(std::move(stats));
  }
  for (size_t m = 1; m < per_mode.size(); ++m) {
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(per_mode[m][i].answer_cells, per_mode[0][i].answer_cells);
    }
  }
}

TEST_F(SharedScanTest, LeaderChargedIoSumsToOneSweep) {
  const std::vector<ValueInterval> queries = OverlappingQueries(8);
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());

  // Isolated baseline: per-query attributed I/O, summed.
  IoStats isolated_sum;
  QueryContext ctx;
  for (const ValueInterval& q : queries) {
    QueryStats stats;
    ASSERT_TRUE(CountOne(**db, q, &stats, &ctx).ok());
    isolated_sum += stats.io;
  }

  std::vector<QueryStats> shared;
  ASSERT_TRUE(CountShared(**db, queries, &shared, &ctx).ok());
  ASSERT_EQ(shared.size(), queries.size());

  // Member 0 carries the whole sweep; every rider reports zero.
  EXPECT_GT(shared[0].io.logical_reads, 0u);
  IoStats shared_sum;
  for (size_t i = 0; i < shared.size(); ++i) {
    shared_sum += shared[i].io;
    if (i > 0) {
      EXPECT_EQ(shared[i].io.logical_reads, 0u);
      EXPECT_EQ(shared[i].io.physical_reads, 0u);
    }
    // Every member waited for the one sweep.
    EXPECT_EQ(shared[i].wall_seconds, shared[0].wall_seconds);
  }
  EXPECT_LE(shared_sum.logical_reads, isolated_sum.logical_reads);
  EXPECT_LE(shared_sum.physical_reads, isolated_sum.physical_reads);
}

TEST_F(SharedScanTest, DegenerateBatches) {
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());

  std::vector<QueryStats> stats;
  ASSERT_TRUE(CountShared(**db, {}, &stats).ok());
  EXPECT_TRUE(stats.empty());

  // One member: exactly the single-query path.
  const ValueInterval q = OverlappingQueries(1)[0];
  ASSERT_TRUE(CountShared(**db, {q}, &stats).ok());
  ASSERT_EQ(stats.size(), 1u);
  QueryStats solo;
  ASSERT_TRUE(CountOne(**db, q, &solo).ok());
  EXPECT_EQ(stats[0].answer_cells, solo.answer_cells);

  // An empty member interval rejects the whole batch.
  const Status s =
      CountShared(**db, {q, ValueInterval{1.0, 0.0}}, &stats);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(SharedScanTest, SharesScanMatchesPlanCostsAndSharesIdentical) {
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  const QueryPlanner& planner = (*db)->planner();
  const std::vector<ValueInterval> queries = OverlappingQueries(8);
  const auto shared_cost = [&](const ValueInterval& a,
                               const ValueInterval& b) {
    return planner.SharedScanCost(a, planner.Plan(a).predicted_cost_ms, b,
                                  planner.Plan(b).predicted_cost_ms,
                                  PlannerMode::kAuto);
  };
  for (const ValueInterval& a : queries) {
    for (const ValueInterval& b : queries) {
      // The widened sweep against the two separate plans, ties shared.
      const double shared_ms =
          planner.Plan(ValueInterval::Hull(a, b)).predicted_cost_ms;
      const double isolated_ms = planner.Plan(a).predicted_cost_ms +
                                 planner.Plan(b).predicted_cost_ms;
      const std::optional<double> cost = shared_cost(a, b);
      EXPECT_EQ(cost.has_value(), shared_ms <= isolated_ms)
          << "[" << a.min << ", " << a.max << "] + [" << b.min << ", "
          << b.max << "]";
      if (cost) {
        EXPECT_EQ(*cost, shared_ms);
      }
    }
    // An identical candidate never widens the sweep: always shared.
    EXPECT_TRUE(shared_cost(a, a).has_value());
  }
}

TEST_F(SharedScanTest, ExecutorGroupsQueuedOverlappingQueries) {
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  // The sentinel plus 11 copies of one interval: an identical candidate
  // never widens the envelope, so the greedy admission must accept all
  // of them — the group composition is fully deterministic. (Distinct
  // overlapping intervals may legitimately split into several groups
  // once the hull grows past what the cost model will share;
  // RunBatchSharedMatchesIsolatedBatch covers that workload.)
  const std::vector<ValueInterval> seed_queries = OverlappingQueries(2);
  std::vector<ValueInterval> queries(12, seed_queries[1]);
  queries[0] = seed_queries[0];

  // Isolated reference answers.
  std::vector<uint64_t> expected;
  for (const ValueInterval& q : queries) {
    QueryStats stats;
    ASSERT_TRUE(CountOne(**db, q, &stats).ok());
    expected.push_back(stats.answer_cells);
  }

  Counter* groups =
      MetricsRegistry::Default().GetCounter("executor.shared_scan_groups");
  const uint64_t groups_before = groups->value();

  QueryExecutor::Options eo;
  eo.threads = 1;  // one worker: the queue backlog is deterministic
  eo.shared_scan = true;
  QueryExecutor executor(db->get(), eo);

  // Gate the single worker inside a sentinel query's callback: wait for
  // the worker to reach it (queue empty at that point), queue the whole
  // overlapping workload behind it, then release — the next dequeue
  // sees the full backlog and must fuse it into exactly one group.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::vector<QueryStats> got(queries.size());
  std::vector<Status> statuses(queries.size(), Status::OK());
  executor.Submit(queries[0], [&](const Status& s, const QueryStats& stats) {
    statuses[0] = s;
    got[0] = stats;
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  for (size_t i = 1; i < queries.size(); ++i) {
    executor.Submit(queries[i], [&, i](const Status& s,
                                       const QueryStats& stats) {
      statuses[i] = s;
      got[i] = stats;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  executor.Drain();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_EQ(got[i].answer_cells, expected[i]) << "query " << i;
  }
  // The 11 queued queries (all overlapping, all priced shareable) formed
  // one fused group behind the sentinel.
  EXPECT_EQ(groups->value() - groups_before, 1u);
  // The group's head (queries[1]) is its leader and carries the sweep;
  // every rider reports zero I/O.
  EXPECT_GT(got[1].io.logical_reads, 0u);
  for (size_t i = 2; i < queries.size(); ++i) {
    EXPECT_EQ(got[i].io.logical_reads, 0u) << "query " << i;
  }
}

// Admission plans in a trace: the plan.probe spans not nested in a
// query's own "plan" span on the same thread. Every plan of an indexed
// auto-mode database records one plan.probe span.
size_t AdmissionPlans(const std::vector<TraceEvent>& events) {
  size_t admission_plans = 0;
  for (const TraceEvent& e : events) {
    if (std::string_view(e.name) != "plan.probe") continue;
    const bool in_query = std::any_of(
        events.begin(), events.end(), [&](const TraceEvent& plan) {
          return plan.tid == e.tid && std::string_view(plan.name) == "plan" &&
                 plan.ts_ns <= e.ts_ns &&
                 e.ts_ns + e.dur_ns <= plan.ts_ns + plan.dur_ns;
        });
    if (!in_query) ++admission_plans;
  }
  return admission_plans;
}

TEST_F(SharedScanTest, ExecutorPlansEachQueuedCandidateOnce) {
  // Admission runs under the queue lock: the candidates' own plans come
  // priced from Submit and the envelope's is carried, so the worker
  // plans one widened envelope per queued candidate — not the three
  // plans of a comparison from scratch (widened, envelope, candidate) —
  // plus the head's own plan once, as the head reached an empty queue
  // and went unpriced.
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  const std::vector<ValueInterval> seed_queries = OverlappingQueries(2);

  QueryExecutor::Options eo;
  eo.threads = 1;
  eo.shared_scan = true;
  QueryExecutor executor(db->get(), eo);

  // Park the worker in a sentinel's callback, queue the group behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  executor.Submit(seed_queries[0], [&](const Status&, const QueryStats&) {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  constexpr size_t kCandidates = 10;
  for (size_t i = 0; i <= kCandidates; ++i) {
    executor.Submit(seed_queries[1], nullptr);
  }
  // Only the worker records from here on.
  TraceBuffer& tb = TraceBuffer::Global();
  tb.Clear();
  TraceBuffer::set_enabled(true);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  executor.Drain();
  TraceBuffer::set_enabled(false);

  const std::vector<TraceEvent> events = tb.Snapshot();
  const size_t waits = std::count_if(
      events.begin(), events.end(), [](const TraceEvent& e) {
        return std::string_view(e.name) == "queue.wait";
      });
  EXPECT_EQ(waits, kCandidates + 1);  // one group: head + candidates
  EXPECT_EQ(AdmissionPlans(events), kCandidates + 1);
}

TEST_F(SharedScanTest, ExecutorLeavesALoneQueryUnplanned) {
  // A query that reaches an empty queue is never a candidate, and with
  // nothing queued behind it no group forms: shared-scan admission
  // plans nothing for it, neither at Submit nor at its dequeue.
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  const std::vector<ValueInterval> queries = OverlappingQueries(4);

  QueryExecutor::Options eo;
  eo.threads = 1;
  eo.shared_scan = true;
  QueryExecutor executor(db->get(), eo);

  TraceBuffer& tb = TraceBuffer::Global();
  tb.Clear();
  TraceBuffer::set_enabled(true);
  size_t answered = 0;
  for (const ValueInterval& q : queries) {
    executor.Submit(q, [&](const Status& s, const QueryStats&) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      ++answered;
    });
    executor.Drain();
  }
  TraceBuffer::set_enabled(false);

  EXPECT_EQ(answered, queries.size());
  EXPECT_EQ(AdmissionPlans(tb.Snapshot()), 0u);
}

TEST_F(SharedScanTest, RouterPlansNoAdmissionForOneBand) {
  // A shard groups a request's bands by the executor's rule, planning
  // the envelope only when a following band meets it: a one-band
  // request plans nothing for admission. The band spans the whole
  // value range, so each shard's MayContain plans it exactly once.
  ShardRouterOptions ro;
  ro.shards = 2;
  ro.db.method = IndexMethod::kIHilbert;
  auto router = ShardRouter::Build(*field_, ro);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  const ValueInterval band = field_->ValueRange();

  TraceBuffer& tb = TraceBuffer::Global();
  tb.Clear();
  TraceBuffer::set_enabled(true);
  ValueQueryResult result;
  const Status s =
      (*router)->Query({.bands = {&band, 1}, .regions = false}, {&result, 1});
  TraceBuffer::set_enabled(false);
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_EQ(result.stats.answer_cells, field_->NumCells());
  EXPECT_EQ(AdmissionPlans(tb.Snapshot()), size_t{ro.shards});
  ASSERT_TRUE((*router)->Close().ok());
}

TEST_F(SharedScanTest, RunBatchSharedMatchesIsolatedBatch) {
  auto db = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  const std::vector<ValueInterval> queries = OverlappingQueries(32);

  QueryExecutor::Options iso_opts;
  iso_opts.threads = 2;
  QueryExecutor isolated(db->get(), iso_opts);
  QueryExecutor::BatchResult iso;
  ASSERT_TRUE(isolated.RunBatch(queries, &iso).ok());

  QueryExecutor::Options sh_opts;
  sh_opts.threads = 2;
  sh_opts.shared_scan = true;
  QueryExecutor shared(db->get(), sh_opts);
  QueryExecutor::BatchResult sh;
  ASSERT_TRUE(shared.RunBatch(queries, &sh).ok());

  EXPECT_EQ(iso.failed, 0u);
  EXPECT_EQ(sh.failed, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(sh.per_query[i].answer_cells, iso.per_query[i].answer_cells)
        << "query " << i;
  }
  EXPECT_LE(sh.total.io.logical_reads, iso.total.io.logical_reads);
  EXPECT_LE(sh.total.io.physical_reads, iso.total.io.physical_reads);
}

TEST_F(SharedScanTest, CorruptIndexDegradesTheWholeGroupOnce) {
  // Intact reference.
  auto intact = BuildDb(IndexMethod::kIHilbert);
  ASSERT_TRUE(intact.ok());

  FaultInjectingPageFile* injector = nullptr;
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  options.page_file_factory = [&injector](uint32_t page_size) {
    auto mem = std::make_unique<MemPageFile>(page_size);
    auto faulty = std::make_unique<FaultInjectingPageFile>(std::move(mem));
    injector = faulty.get();
    return faulty;
  };
  auto db = FieldDatabase::Build(*field_, options);
  ASSERT_TRUE(db.ok());
  // Pin the indexed plan so the shared sweep's filter really descends
  // the (corrupt) tree instead of planning the fused scan around it.
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  const RStarTree<1>* tree = (*db)->index().tree();
  injector->CorruptPage(tree->meta().root);
  ASSERT_TRUE((*db)->pool().Clear().ok());

  const std::vector<ValueInterval> queries = OverlappingQueries(3);
  std::vector<ValueQueryResult> shared;
  ASSERT_TRUE(QueryShared(**db, queries, &shared).ok());
  ASSERT_EQ(shared.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ValueQueryResult expected;
    ASSERT_TRUE(QueryOne(**intact, queries[i], &expected).ok());
    EXPECT_EQ(shared[i].stats.index_fallbacks, 1u);
    EXPECT_EQ(shared[i].stats.answer_cells, expected.stats.answer_cells);
    EXPECT_EQ(shared[i].region.NumPieces(), expected.region.NumPieces());
    EXPECT_EQ(shared[i].region.TotalArea(), expected.region.TotalArea());
  }
  // One sweep fell back — counted once, not once per member.
  EXPECT_EQ((*db)->index_fallbacks(), 1u);
}

}  // namespace
}  // namespace fielddb
