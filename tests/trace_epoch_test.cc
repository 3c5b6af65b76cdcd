// The trace clock's epoch is process start, not the trace buffer's
// first use: a span that began before anything touched the buffer keeps
// its true start. This suite is its own executable so that nothing has
// called TraceBuffer::Global() when its one test runs.

#include <condition_variable>
#include <mutex>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/field_database.h"
#include "core/query_executor.h"
#include "gen/fractal.h"
#include "obs/trace_buffer.h"

namespace fielddb {
namespace {

TEST(TraceEpochTest, QueueWaitEnqueuedBeforeTheBufferKeepsItsStart) {
  FractalOptions fo;
  fo.size_exp = 5;
  fo.seed = 7;
  StatusOr<GridField> field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok()) << field.status().ToString();
  ASSERT_FALSE(TraceBuffer::enabled());
  auto db = FieldDatabase::Build(*field, FieldDatabaseOptions{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const ValueInterval& vr = (*db)->value_range();
  const ValueInterval band{vr.min + 0.3 * (vr.max - vr.min),
                           vr.min + 0.5 * (vr.max - vr.min)};

  std::mutex mu;
  std::condition_variable cv;
  bool blocking = false;
  bool released = false;
  bool answered = false;
  Status query_status;
  {
    QueryExecutor::Options eo;
    eo.threads = 1;
    QueryExecutor executor(db->get(), eo);
    // Occupy the only worker, so the query waits in the queue.
    executor.SubmitTask([&](QueryContext*) {
      std::unique_lock<std::mutex> lock(mu);
      blocking = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return blocking; });
    }
    executor.Submit(band, [&](const Status& s, const QueryStats&) {
      query_status = s;
      answered = true;
    });
    // Tracing starts after the enqueue; the query's wait is the first
    // span that reaches the buffer.
    TraceBuffer::set_enabled(true);
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
    executor.Drain();
  }
  TraceBuffer::set_enabled(false);
  ASSERT_TRUE(answered);
  EXPECT_TRUE(query_status.ok()) << query_status.ToString();

  const std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  const TraceEvent* wait = nullptr;
  const TraceEvent* plan = nullptr;
  for (const TraceEvent& e : events) {
    const std::string_view name(e.name);
    if (name == "queue.wait") {
      EXPECT_EQ(wait, nullptr) << "more than one queue.wait";
      wait = &e;
    } else if (name == "plan") {
      EXPECT_EQ(plan, nullptr) << "more than one plan";
      plan = &e;
    }
  }
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(plan, nullptr);
  // The wait starts at its enqueue, not at 0, and ends before the query
  // it held back plans.
  EXPECT_GT(wait->ts_ns, 0u);
  EXPECT_LE(wait->ts_ns + wait->dur_ns, plan->ts_ns);
}

}  // namespace
}  // namespace fielddb
