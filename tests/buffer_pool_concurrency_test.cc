// Multi-threaded hammer tests for the sharded buffer pool: many readers
// over a working set far larger than the pool, so fetch/pin/evict/
// write-back race constantly. Assertions run on atomics collected by the
// worker threads and are checked after join (gtest expectations are not
// thread-safe).
#include "storage/buffer_pool.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/fault_injection.h"
#include "storage/io_sink.h"
#include "storage/io_stats.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

uint64_t TagFor(PageId id) { return id * 2654435761ull + 17; }

// Allocates `n` pages through the pool, each stamped with its tag, then
// flushes and clears so the hammer starts from a cold cache.
void SeedPages(BufferPool& pool, int n, std::vector<PageId>* ids) {
  for (int i = 0; i < n; ++i) {
    PinnedPage pin;
    StatusOr<PageId> id = pool.Allocate(&pin);
    ASSERT_TRUE(id.ok());
    pin.MutablePage().WriteAt<uint64_t>(0, TagFor(*id));
    ids->push_back(*id);
  }
  ASSERT_TRUE(pool.Flush().ok());
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
}

TEST(BufferPoolConcurrencyTest, ShardedFetchHammerKeepsContentsAndCounts) {
  MemPageFile file(256);
  // 2,048 pages through 256 frames in 16 shards: every thread's fetch
  // storm evicts pages other threads are about to read.
  BufferPool pool(&file, 256);
  ASSERT_EQ(pool.num_shards(), 16u);
  std::vector<PageId> ids;
  SeedPages(pool, 2048, &ids);

  // Page-content access follows the pool's contract — any number of
  // concurrent readers, or one writer with the page to itself. The
  // first kShared pages are read-only and verified by everyone; the
  // rest are write targets partitioned by thread (index % kThreads), so
  // dirty marking and eviction write-back run hot without two threads
  // ever touching one page's bytes with a writer involved.
  constexpr size_t kShared = 1024;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<IoStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread sink: this thread's I/O lands in per_thread[t] only.
      ScopedIoSink sink(&per_thread[t]);
      std::mt19937_64 rng(1000 + t);
      const size_t owned = (ids.size() - kShared) / kThreads;
      std::uniform_int_distribution<size_t> pick(0, kShared + owned - 1);
      for (int i = 0; i < kIters; ++i) {
        const size_t r = pick(rng);
        const bool own = r >= kShared;
        const size_t idx = own ? kShared + (r - kShared) * kThreads + t : r;
        const PageId id = ids[idx];
        PinnedPage pin;
        if (!pool.Fetch(id, &pin).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (pin.page().ReadAt<uint64_t>(0) != TagFor(id)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (own) {
          // Same-value rewrite on a thread-owned page: marks the frame
          // dirty so concurrent evictions exercise write-back without
          // changing what the final verification expects.
          pin.MutablePage().WriteAt<uint64_t>(0, TagFor(id));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(pool.num_frames(), pool.capacity());

  // Each shard counts its events under its mutex: the logical-read
  // total is exact, and the per-thread sinks partition it exactly.
  const IoStats total = pool.stats();
  EXPECT_EQ(total.logical_reads, static_cast<uint64_t>(kThreads) * kIters);
  IoStats merged;
  for (const IoStats& s : per_thread) merged += s;
  EXPECT_EQ(merged.logical_reads, total.logical_reads);
  EXPECT_EQ(merged.physical_reads, total.physical_reads);
  EXPECT_EQ(merged.writes, total.writes);

  // Nothing was lost through the eviction/write-back storm.
  ASSERT_TRUE(pool.Flush().ok());
  for (const PageId id : ids) {
    Page raw(256);
    ASSERT_TRUE(file.Read(id, &raw).ok());
    EXPECT_EQ(raw.ReadAt<uint64_t>(0), TagFor(id));
  }
}

TEST(BufferPoolConcurrencyTest, ClearRacesWithReaders) {
  MemPageFile file(256);
  BufferPool pool(&file, 256);
  std::vector<PageId> ids;
  SeedPages(pool, 1024, &ids);

  constexpr int kReaders = 4;
  constexpr int kIters = 2000;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<bool> readers_done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(77 + t);
      std::uniform_int_distribution<size_t> pick(0, ids.size() - 1);
      for (int i = 0; i < kIters; ++i) {
        const PageId id = ids[pick(rng)];
        PinnedPage pin;
        if (!pool.Fetch(id, &pin).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (pin.page().ReadAt<uint64_t>(0) != TagFor(id)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Clear() concurrently drops whatever is unpinned; pinned frames must
  // survive untouched and later fetches must still see correct bytes.
  std::thread clearer([&] {
    while (!readers_done.load(std::memory_order_acquire)) {
      if (!pool.Clear().ok()) errors.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  for (std::thread& th : threads) th.join();
  readers_done.store(true, std::memory_order_release);
  clearer.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pool.stats().logical_reads,
            static_cast<uint64_t>(kReaders) * kIters);
}

// Every shard prefetches (one ReadBatch per window, no shard lock held
// during the submission) while every other shard fetches and evicts:
// the install-after-read races and the readahead-invariant accounting
// both run hot. Over memory, and over a disk file, whose reads take no
// lock: the TSan sweep vets the concurrent preads and preadvs on its
// one descriptor.
TEST(BufferPoolConcurrencyTest, PrefetchFetchHammerKeepsContentsAndCounts) {
  MemPageFile mem(256);
  const std::string path =
      TestTempDir() + "/fielddb_prefetch_hammer.pages";
  StatusOr<std::unique_ptr<DiskPageFile>> disk =
      DiskPageFile::Create(path, 256);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  for (PageFile* file : {static_cast<PageFile*>(&mem),
                         static_cast<PageFile*>(disk->get())}) {
    SCOPED_TRACE(file == &mem ? "memory" : "disk");
    BufferPool pool(file, 256);
    std::vector<PageId> ids;
    SeedPages(pool, 2048, &ids);

    constexpr int kThreads = 8;
    constexpr int kIters = 1500;
    constexpr size_t kWindow = 8;
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> mismatches{0};
    std::vector<IoStats> per_thread(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ScopedIoSink sink(&per_thread[t]);
        std::mt19937_64 rng(3000 + t);
        std::uniform_int_distribution<size_t> pick(0, ids.size() - kWindow);
        for (int i = 0; i < kIters; ++i) {
          const size_t start = pick(rng);
          if (!pool.PrefetchRange(ids[start], kWindow).ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          for (size_t k = 0; k < kWindow; ++k) {
            const PageId id = ids[start + k];
            PinnedPage pin;
            if (!pool.Fetch(id, &pin).ok()) {
              errors.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            if (pin.page().ReadAt<uint64_t>(0) != TagFor(id)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();

    EXPECT_EQ(errors.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_LE(pool.num_frames(), pool.capacity());

    // Readahead-invariant accounting: prefetch reads count as the
    // physical reads they replace and never as logical ones, so the
    // logical total is exactly the Fetch count and the per-thread sinks
    // still partition both totals exactly.
    const IoStats total = pool.stats();
    EXPECT_EQ(total.logical_reads,
              static_cast<uint64_t>(kThreads) * kIters * kWindow);
    IoStats merged;
    for (const IoStats& s : per_thread) merged += s;
    EXPECT_EQ(merged.logical_reads, total.logical_reads);
    EXPECT_EQ(merged.physical_reads, total.physical_reads);
  }
  disk->reset();
  std::remove(path.c_str());
}

// The same hammer over a file with a 1% transient read-error rate: the
// pool's retry loop absorbs what hits Fetch, a fault landing inside a
// prefetch batch silently skips that page (Fetch re-reads it), and the
// sink/total accounting stays exact throughout.
TEST(BufferPoolConcurrencyTest, PrefetchFetchHammerAbsorbsTransientFaults) {
  MemPageFile base(256);
  FaultInjectionOptions fo;
  fo.seed = 404;
  fo.read_error_prob = 0.01;
  FaultInjectingPageFile faulty(&base, fo);
  BufferPool pool(&faulty, 256);
  std::vector<PageId> ids;
  SeedPages(pool, 1024, &ids);

  constexpr int kThreads = 8;
  constexpr int kIters = 600;
  constexpr size_t kWindow = 8;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<IoStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ScopedIoSink sink(&per_thread[t]);
      std::mt19937_64 rng(5000 + t);
      std::uniform_int_distribution<size_t> pick(0, ids.size() - kWindow);
      for (int i = 0; i < kIters; ++i) {
        const size_t start = pick(rng);
        if (!pool.PrefetchRange(ids[start], kWindow).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        for (size_t k = 0; k < kWindow; ++k) {
          const PageId id = ids[start + k];
          PinnedPage pin;
          if (!pool.Fetch(id, &pin).ok()) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (pin.page().ReadAt<uint64_t>(0) != TagFor(id)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // (A Fetch fails only after 1 + kMaxReadRetries independent 1% draws
  // all fault — P ≈ 1e-8 per fetch, ~4e-4 expected across the run.)
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  const IoStats total = pool.stats();
  EXPECT_EQ(total.logical_reads,
            static_cast<uint64_t>(kThreads) * kIters * kWindow);
  EXPECT_EQ(total.failed_reads, 0u);
  IoStats merged;
  for (const IoStats& s : per_thread) merged += s;
  EXPECT_EQ(merged.logical_reads, total.logical_reads);
  EXPECT_EQ(merged.physical_reads, total.physical_reads);
  EXPECT_EQ(merged.read_retries, total.read_retries);
}

}  // namespace
}  // namespace fielddb
