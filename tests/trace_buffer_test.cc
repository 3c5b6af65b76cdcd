// Trace-v2 recorder tests: lock-free per-thread ring buffers under real
// concurrency. The multi-threaded cases run under ThreadSanitizer via
// tools/run_sanitizers.sh tsan (labels "concurrency" and "obs") — the
// seqlock slot protocol must be clean there, not just correct here.

#include "obs/trace_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace fielddb {
namespace {

// Every test shares the process-global buffer (a ScopedSpan without a
// per-query trace has no other sink), so each restores the disabled
// state and clears retained events.
class TraceBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceBuffer::Global().Clear();
    TraceBuffer::set_enabled(true);
  }
  void TearDown() override {
    TraceBuffer::set_enabled(false);
    TraceBuffer::Global().set_ring_capacity(
        TraceBuffer::kDefaultRingCapacity);
    TraceBuffer::Global().Clear();
  }
};

TEST_F(TraceBufferTest, DisabledRecordsNothing) {
  TraceBuffer::set_enabled(false);
  const uint64_t before = TraceBuffer::Global().total_recorded();
  {
    ScopedSpan span("test.disabled", "test");
    span.set_items(3);
  }
  EXPECT_EQ(TraceBuffer::Global().total_recorded(), before);
}

TEST_F(TraceBufferTest, ScopeRoundTrip) {
  {
    ScopedSpan span("test.roundtrip", "test");
    span.set_items(7);
  }
  bool found = false;
  for (const TraceEvent& e : TraceBuffer::Global().Snapshot()) {
    if (std::string(e.name) != "test.roundtrip") continue;
    found = true;
    EXPECT_STREQ(e.category, "test");
    EXPECT_EQ(e.items, 7u);
    EXPECT_GT(e.tid, 0u);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceBufferTest, NoSpanLossBelowRingCapacity) {
  // Each thread gets a fresh ring (rings are created on first record),
  // records fewer events than the ring holds, and every single one must
  // come back out — recording is wait-free but never lossy under
  // capacity.
  TraceBuffer& tb = TraceBuffer::Global();
  tb.set_ring_capacity(256);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;  // < 256
  const uint64_t recorded_before = tb.total_recorded();
  const uint64_t dropped_before = tb.total_dropped();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tb] {
      for (int i = 0; i < kPerThread; ++i) {
        tb.Record("test.concurrent", "test", static_cast<uint64_t>(i), 1,
                  static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(tb.total_recorded() - recorded_before,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(tb.total_dropped(), dropped_before);

  std::map<uint32_t, uint64_t> per_tid;
  for (const TraceEvent& e : tb.Snapshot()) {
    if (std::string(e.name) == "test.concurrent") ++per_tid[e.tid];
  }
  uint64_t total = 0;
  for (const auto& [tid, n] : per_tid) {
    EXPECT_EQ(n, static_cast<uint64_t>(kPerThread)) << "tid " << tid;
    total += n;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(TraceBufferTest, DropOldestAccountingAboveCapacity) {
  // Over-fill each fresh ring: the newest `capacity` events survive per
  // thread and the overflow is counted exactly — drop-oldest, never
  // silent.
  TraceBuffer& tb = TraceBuffer::Global();
  constexpr size_t kCapacity = 64;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;  // > 64
  tb.set_ring_capacity(kCapacity);
  const uint64_t dropped_before = tb.total_dropped();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tb] {
      for (int i = 0; i < kPerThread; ++i) {
        tb.Record("test.overflow", "test", static_cast<uint64_t>(i), 1,
                  static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(tb.total_dropped() - dropped_before,
            static_cast<uint64_t>(kThreads) * (kPerThread - kCapacity));

  // Retained events are exactly the newest kCapacity per thread: items
  // carries the sequence number, so the survivors of each ring are the
  // tail [kPerThread - kCapacity, kPerThread).
  std::map<uint32_t, std::vector<uint64_t>> kept;
  for (const TraceEvent& e : tb.Snapshot()) {
    if (std::string(e.name) == "test.overflow") kept[e.tid].push_back(e.items);
  }
  int overflow_rings = 0;
  for (const auto& [tid, items] : kept) {
    if (items.size() != kCapacity) continue;  // another test's ring
    ++overflow_rings;
    for (const uint64_t seq : items) {
      EXPECT_GE(seq, static_cast<uint64_t>(kPerThread) - kCapacity)
          << "tid " << tid << " kept a dropped event";
      EXPECT_LT(seq, static_cast<uint64_t>(kPerThread));
    }
  }
  EXPECT_EQ(overflow_rings, kThreads);
}

TEST_F(TraceBufferTest, ConcurrentExportIsSafe) {
  // Readers race writers over wrapping rings: Snapshot must neither
  // crash nor return torn events (checked via the items==ts invariant
  // the writers maintain). TSan-clean by the seqlock protocol.
  TraceBuffer& tb = TraceBuffer::Global();
  tb.set_ring_capacity(32);  // small, so wrap-around races are constant
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        tb.Record("test.race", "test", i, 1, i);
      }
    });
  }
  std::thread reader([&] {
    for (int pass = 0; pass < 200; ++pass) {
      for (const TraceEvent& e : tb.Snapshot()) {
        if (std::string(e.name) == "test.race" && e.ts_ns != e.items) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  reader.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : writers) th.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST_F(TraceBufferTest, ChromeExportShape) {
  {
    ScopedSpan span("test.export", "test");
    span.set_items(5);
  }
  const std::string json = TraceBuffer::Global().ExportChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"fielddb-trace-v2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);

  const std::string path = "trace_buffer_test_export.json";
  ASSERT_TRUE(TraceBuffer::Global().WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST_F(TraceBufferTest, ClearResetsAccounting) {
  TraceBuffer& tb = TraceBuffer::Global();
  tb.Record("test.clear", "test", 1, 1);
  EXPECT_GT(tb.total_recorded(), 0u);
  tb.Clear();
  EXPECT_EQ(tb.total_recorded(), 0u);
  EXPECT_EQ(tb.total_dropped(), 0u);
  for (const TraceEvent& e : tb.Snapshot()) {
    EXPECT_STRNE(e.name, "test.clear");
  }
}

}  // namespace
}  // namespace fielddb
