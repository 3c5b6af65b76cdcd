// EventLog tests: JSONL schema and field rendering, rotation
// durability, and the obs-I/O isolation invariant — event-log writes
// must never route through the page file, so they can neither inflate
// query IoStats nor recurse into the fault-injection decorator.

#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "query_util.h"

namespace fielddb {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return lines;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    lines.push_back(std::move(line));
  }
  std::fclose(f);
  return lines;
}

void RemoveLog(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(EventLogTest, AppendedLinesCarrySchemaAndSequence) {
  const std::string path = "event_log_test_basic.jsonl";
  RemoveLog(path);
  auto log = EventLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  ASSERT_TRUE((*log)->Append(EventLog::Event("alpha")
                                 .Add("text", "hi \"there\"")
                                 .Add("ratio", 0.5)
                                 .Add("count", uint64_t{42})
                                 .Add("delta", int64_t{-3})
                                 .Add("flag", true))
                  .ok());
  ASSERT_TRUE((*log)->Append(EventLog::Event("beta").Add("n", 1)).ok());
  ASSERT_TRUE((*log)->Sync().ok());
  EXPECT_EQ((*log)->events_appended(), 2u);
  EXPECT_GT((*log)->bytes_written(), 0u);
  EXPECT_EQ((*log)->rotations(), 0u);

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  // Fixed header: schema version, per-log sequence, wall clock, type.
  EXPECT_EQ(lines[0].rfind("{\"v\": 1, \"seq\": 0, \"ts_ms\": ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"v\": 1, \"seq\": 1, \"ts_ms\": ", 0), 0u);
  EXPECT_NE(lines[0].find("\"type\": \"alpha\""), std::string::npos);
  // Values render as native JSON types; strings are escaped.
  EXPECT_NE(lines[0].find("\"text\": \"hi \\\"there\\\"\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"count\": 42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"delta\": -3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"flag\": true"), std::string::npos);
  // Field order is insertion order.
  EXPECT_LT(lines[0].find("\"text\""), lines[0].find("\"ratio\""));
  EXPECT_LT(lines[0].find("\"ratio\""), lines[0].find("\"count\""));
  EXPECT_EQ(lines[0].back(), '}');
  RemoveLog(path);
}

TEST(EventLogTest, RawJsonFieldIsVerbatim) {
  const std::string path = "event_log_test_raw.jsonl";
  RemoveLog(path);
  auto log = EventLog::Open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)
                  ->Append(EventLog::Event("raw").AddRawJson(
                      "pages", "[1, 2, 3]"))
                  .ok());
  ASSERT_TRUE((*log)->Sync().ok());
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"pages\": [1, 2, 3]"), std::string::npos);
  RemoveLog(path);
}

TEST(EventLogTest, RotationPreservesEveryLine) {
  const std::string path = "event_log_test_rotate.jsonl";
  RemoveLog(path);
  EventLog::Options options;
  options.rotate_bytes = 256;  // tiny, so a handful of appends rotate
  auto log = EventLog::Open(path, options);
  ASSERT_TRUE(log.ok());

  constexpr int kEvents = 40;
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_TRUE((*log)
                    ->Append(EventLog::Event("tick").Add(
                        "i", static_cast<int64_t>(i)))
                    .ok());
  }
  EXPECT_EQ((*log)->events_appended(), static_cast<uint64_t>(kEvents));
  EXPECT_GE((*log)->rotations(), 1u);
  ASSERT_TRUE((*log)->Sync().ok());

  // Only one rotated generation is kept, so with tiny rotate_bytes the
  // union of live + ".1" holds a contiguous tail of the sequence and
  // nothing torn: every retained line is complete and parses.
  // (live may legitimately be empty when the very last append was the
  // one that tripped the rotation.)
  const std::vector<std::string> live = ReadLines(path);
  const std::vector<std::string> rotated = ReadLines(path + ".1");
  EXPECT_FALSE(rotated.empty());
  std::vector<std::string> all = rotated;
  all.insert(all.end(), live.begin(), live.end());
  for (const std::string& line : all) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"type\": \"tick\""), std::string::npos);
  }
  RemoveLog(path);
}

TEST(EventLogTest, ReopenAppendsToExistingFile) {
  const std::string path = "event_log_test_reopen.jsonl";
  RemoveLog(path);
  {
    auto log = EventLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(EventLog::Event("first")).ok());
  }  // destructor fsyncs + closes
  {
    auto log = EventLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(EventLog::Event("second")).ok());
    ASSERT_TRUE((*log)->Sync().ok());
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);  // O_APPEND: history survives reopen
  EXPECT_NE(lines[0].find("\"type\": \"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\": \"second\""), std::string::npos);
  RemoveLog(path);
}

// --- obs-I/O isolation invariant -----------------------------------

/// Counts every PageFile operation that reaches the storage layer.
/// Placed *under* the fault-injection decorator, so anything the
/// database reads or writes — for queries or otherwise — is visible.
class CountingPageFile final : public PageFile {
 public:
  explicit CountingPageFile(std::unique_ptr<PageFile> base)
      : PageFile(base->page_size()), base_(std::move(base)) {}

  uint64_t NumPages() const override { return base_->NumPages(); }
  StatusOr<PageId> Allocate(const Page& page) override {
    ops_.fetch_add(1, std::memory_order_relaxed);
    return base_->Allocate(page);
  }
  Status Read(PageId id, Page* out) const override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    ops_.fetch_add(1, std::memory_order_relaxed);
    return base_->Read(id, out);
  }
  Status Write(PageId id, const Page& page) override {
    writes_.fetch_add(1, std::memory_order_relaxed);
    ops_.fetch_add(1, std::memory_order_relaxed);
    return base_->Write(id, page);
  }
  Status VerifyPage(PageId id) const override {
    ops_.fetch_add(1, std::memory_order_relaxed);
    return base_->VerifyPage(id);
  }
  Status Sync() override {
    ops_.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }

  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<PageFile> base_;
  mutable std::atomic<uint64_t> reads_{0};
  mutable std::atomic<uint64_t> writes_{0};
  mutable std::atomic<uint64_t> ops_{0};
};

struct InstrumentedDb {
  std::unique_ptr<FieldDatabase> db;
  CountingPageFile* counting = nullptr;       // borrowed, owned by db
  FaultInjectingPageFile* faulty = nullptr;   // borrowed, owned by db
};

InstrumentedDb BuildInstrumented(const GridField& field,
                                 const std::string& event_log_path) {
  InstrumentedDb out;
  FieldDatabaseOptions options;
  options.build_spatial_index = false;
  options.event_log_path = event_log_path;  // empty = no event log
  options.slow_query_threshold_ms = 0.0;    // log every query
  options.page_file_factory = [&out](uint32_t page_size) {
    auto counting = std::make_unique<CountingPageFile>(
        std::make_unique<MemPageFile>(page_size));
    out.counting = counting.get();
    auto faulty = std::make_unique<FaultInjectingPageFile>(
        std::move(counting), FaultInjectionOptions{});
    out.faulty = faulty.get();
    return faulty;
  };
  auto db = FieldDatabase::Build(field, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (db.ok()) out.db = std::move(*db);
  return out;
}

TEST(EventLogTest, ObsIoNeverTouchesThePageFile) {
  // Two identical databases over instrumented storage stacks
  // (fault-injection decorator over a counting page file): one logs
  // every query to an event log, the other has no log at all. If obs
  // I/O leaked into the storage path — inflating IoStats or recursing
  // into the fault-injection decorator — the two runs would diverge in
  // page-file traffic. They must be identical to the last counter.
  FractalOptions fo;
  fo.size_exp = 5;
  fo.seed = 11;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  const std::string log_path = "event_log_test_invariant.jsonl";
  RemoveLog(log_path);
  InstrumentedDb with_log = BuildInstrumented(*field, log_path);
  InstrumentedDb without_log = BuildInstrumented(*field, "");
  ASSERT_NE(with_log.db, nullptr);
  ASSERT_NE(without_log.db, nullptr);
  ASSERT_NE(with_log.counting, nullptr);
  ASSERT_NE(without_log.counting, nullptr);
  EXPECT_NE(with_log.db->event_log(), nullptr);
  EXPECT_EQ(without_log.db->event_log(), nullptr);

  WorkloadOptions wo;
  wo.qinterval_fraction = 0.05;
  wo.num_queries = 24;
  wo.seed = 77;
  const std::vector<ValueInterval> queries =
      GenerateValueQueries(with_log.db->value_range(), wo);

  for (const ValueInterval& q : queries) {
    QueryStats a, b;
    ASSERT_TRUE(CountOne(*with_log.db, q, &a).ok());
    ASSERT_TRUE(CountOne(*without_log.db, q, &b).ok());
    // Per-query page traffic is identical: the slow-query event
    // appended after `a`'s query contributes nothing to IoStats.
    EXPECT_EQ(a.io.logical_reads, b.io.logical_reads);
    EXPECT_EQ(a.io.physical_reads, b.io.physical_reads);
    EXPECT_EQ(a.io.sequential_reads, b.io.sequential_reads);
    EXPECT_EQ(a.io.writes, b.io.writes);
    EXPECT_EQ(a.io.evictions, b.io.evictions);
    EXPECT_EQ(a.candidate_cells, b.candidate_cells);
    EXPECT_EQ(a.answer_cells, b.answer_cells);
  }

  // Every query crossed the 0ms threshold, so the log really was being
  // written the whole time — this test is not vacuous.
  EXPECT_GE(with_log.db->event_log()->events_appended(),
            static_cast<uint64_t>(queries.size()));

  // Storage-layer totals: same reads, same writes, same total ops, and
  // the fault-injection decorators saw no injected activity.
  EXPECT_EQ(with_log.counting->reads(), without_log.counting->reads());
  EXPECT_EQ(with_log.counting->writes(), without_log.counting->writes());
  EXPECT_EQ(with_log.counting->ops(), without_log.counting->ops());
  EXPECT_EQ(with_log.faulty->counters().read_errors, 0u);
  EXPECT_EQ(without_log.faulty->counters().read_errors, 0u);
  RemoveLog(log_path);
}

}  // namespace
}  // namespace fielddb
