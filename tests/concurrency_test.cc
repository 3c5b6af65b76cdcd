// Whole-database concurrency tests: N threads issue value queries
// against one open FieldDatabase and every result must equal the
// single-threaded ground truth exactly — same candidates, same answers,
// same logical I/O. Worker threads record discrepancies in atomics that
// are asserted after join (gtest expectations are not thread-safe).
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/field_database.h"
#include "core/query_executor.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

StatusOr<GridField> MakeTestField() {
  FractalOptions fo;
  fo.size_exp = 5;  // 32x32 cells: small enough to stress-query cheaply
  fo.seed = 9;
  return MakeFractalField(fo);
}

// Exact-value, narrow, and wide interval queries — the fallback-free
// paths a reader pool may mix freely.
std::vector<ValueInterval> MakeQueries(const ValueInterval& range) {
  std::vector<ValueInterval> queries;
  int salt = 0;
  for (const double qf : {0.0, 0.05, 0.2}) {
    WorkloadOptions wo;
    wo.qinterval_fraction = qf;
    wo.num_queries = 16;
    wo.seed = 100 + salt++;
    const std::vector<ValueInterval> qs = GenerateValueQueries(range, wo);
    queries.insert(queries.end(), qs.begin(), qs.end());
  }
  return queries;
}

// Computes per-query ground truth sequentially, then replays the same
// workload from 8 threads (each with its own QueryContext, several
// rounds so cache states vary) and requires bit-exact agreement on the
// deterministic fields. physical_reads is legitimately timing-dependent
// (another thread may have warmed the page) and is not compared.
void StressDatabase(const FieldDatabase& db) {
  const std::vector<ValueInterval> queries = MakeQueries(db.value_range());
  std::vector<QueryStats> truth(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(CountOne(db, queries[i], &truth[i]).ok());
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      QueryContext ctx;  // thread-private scratch, reused across queries
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < queries.size(); ++i) {
          QueryStats s;
          if (!CountOne(db, queries[i], &s, &ctx).ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (s.candidate_cells != truth[i].candidate_cells ||
              s.answer_cells != truth[i].answer_cells ||
              s.index_fallbacks != truth[i].index_fallbacks ||
              s.io.logical_reads != truth[i].io.logical_reads) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ConcurrencyTest, SharedIHilbertDatabaseMatchesGroundTruth) {
  StatusOr<GridField> field = MakeTestField();
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  StressDatabase(**db);
}

TEST(ConcurrencyTest, SharedLinearScanDatabaseMatchesGroundTruth) {
  StatusOr<GridField> field = MakeTestField();
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = IndexMethod::kLinearScan;
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok());
  StressDatabase(**db);
}

TEST(ConcurrencyTest, ReopenedDatabaseUnderEvictionPressure) {
  // The on-disk path with a pool far smaller than the page count: every
  // thread's queries continuously evict pages the others need, so the
  // shard eviction/write-back machinery runs hot while results must
  // stay exact.
  StatusOr<GridField> field = MakeTestField();
  ASSERT_TRUE(field.ok());
  auto built = FieldDatabase::Build(*field);
  ASSERT_TRUE(built.ok());
  const std::string prefix =
      TestTempDir() + "/fielddb_concurrency_stress";
  ASSERT_TRUE((*built)->Save(prefix).ok());

  auto db = FieldDatabase::Open(prefix, /*pool_pages=*/16);
  ASSERT_TRUE(db.ok());
  StressDatabase(**db);
  ASSERT_TRUE((*db)->Close().ok());
  std::remove((prefix + ".pages").c_str());
  std::remove((prefix + ".meta").c_str());
}

TEST(ConcurrencyTest, ExecutorBatchMatchesSequentialTruth) {
  StatusOr<GridField> field = MakeTestField();
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field);
  ASSERT_TRUE(db.ok());
  const std::vector<ValueInterval> queries =
      MakeQueries((*db)->value_range());
  std::vector<QueryStats> truth(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(CountOne(**db, queries[i], &truth[i]).ok());
  }

  QueryExecutor::Options eo;
  eo.threads = 8;
  eo.queue_capacity = 4;  // small queue: Submit's backpressure engages
  QueryExecutor executor(db->get(), eo);
  QueryExecutor::BatchResult batch;
  ASSERT_TRUE(executor.RunBatch(queries, &batch).ok());

  ASSERT_EQ(batch.per_query.size(), queries.size());
  EXPECT_EQ(batch.failed, 0u);
  EXPECT_TRUE(batch.first_error.ok());
  EXPECT_GT(batch.qps, 0.0);
  EXPECT_LE(batch.p50_wall_ms, batch.p99_wall_ms);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch.per_query[i].candidate_cells, truth[i].candidate_cells)
        << "query " << i;
    EXPECT_EQ(batch.per_query[i].answer_cells, truth[i].answer_cells)
        << "query " << i;
    EXPECT_EQ(batch.per_query[i].io.logical_reads, truth[i].io.logical_reads)
        << "query " << i;
  }
  // The batch total is the exact accumulation of the per-query stats
  // (per-thread IoStats merged via IoStats::operator+=).
  QueryStats manual;
  for (const QueryStats& s : batch.per_query) manual.Accumulate(s);
  EXPECT_EQ(batch.total.candidate_cells, manual.candidate_cells);
  EXPECT_EQ(batch.total.answer_cells, manual.answer_cells);
  EXPECT_EQ(batch.total.io.logical_reads, manual.io.logical_reads);
  EXPECT_EQ(batch.total.io.physical_reads, manual.io.physical_reads);
}

TEST(ConcurrencyTest, ExecutorSubmitRunsEveryCallback) {
  StatusOr<GridField> field = MakeTestField();
  ASSERT_TRUE(field.ok());
  auto db = FieldDatabase::Build(*field);
  ASSERT_TRUE(db.ok());
  const std::vector<ValueInterval> queries =
      MakeQueries((*db)->value_range());

  QueryExecutor::Options eo;
  eo.threads = 4;
  QueryExecutor executor(db->get(), eo);
  EXPECT_EQ(executor.threads(), 4u);
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failures{0};
  for (int round = 0; round < 4; ++round) {
    for (const ValueInterval& q : queries) {
      executor.Submit(q, [&](const Status& s, const QueryStats&) {
        if (!s.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    executor.Drain();  // after Drain, all callbacks of the round ran
    EXPECT_EQ(completed.load(), (round + 1) * queries.size());
  }
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace fielddb
