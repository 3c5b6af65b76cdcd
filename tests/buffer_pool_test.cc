#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include "storage/fault_injection.h"

namespace fielddb {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : file_(256) {}

  PageId AllocViaPool(BufferPool& pool, uint64_t tag) {
    PinnedPage pin;
    StatusOr<PageId> id = pool.Allocate(&pin);
    EXPECT_TRUE(id.ok());
    pin.MutablePage().WriteAt<uint64_t>(0, tag);
    return *id;
  }

  // A page written straight to the file, so a pool reads it clean.
  PageId AllocInFile(uint64_t tag) {
    Page page(256);
    page.WriteAt<uint64_t>(0, tag);
    StatusOr<PageId> id = file_.Allocate(page);
    EXPECT_TRUE(id.ok());
    return *id;
  }

  MemPageFile file_;
};

TEST_F(BufferPoolTest, AllocateAndFetch) {
  BufferPool pool(&file_, 4);
  const PageId id = AllocViaPool(pool, 111);
  PinnedPage pin;
  ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 111u);
}

TEST_F(BufferPoolTest, HitDoesNotTouchFile) {
  BufferPool pool(&file_, 4);
  const PageId id = AllocViaPool(pool, 1);
  pool.ResetStats();
  PinnedPage a, b;
  ASSERT_TRUE(pool.Fetch(id, &a).ok());
  ASSERT_TRUE(pool.Fetch(id, &b).ok());
  EXPECT_EQ(pool.stats().logical_reads, 2u);
  EXPECT_EQ(pool.stats().physical_reads, 0u);  // still cached from alloc
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  BufferPool pool(&file_, 2);
  const PageId a = AllocViaPool(pool, 10);
  const PageId b = AllocViaPool(pool, 20);
  const PageId c = AllocViaPool(pool, 30);  // evicts a, at the hand
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_GE(pool.stats().writes, 1u);

  // Re-fetch all three; contents must have survived the eviction cycle.
  for (const auto& [id, tag] :
       std::vector<std::pair<PageId, uint64_t>>{{a, 10}, {b, 20}, {c, 30}}) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(id, &pin).ok());
    EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), tag);
  }
}

TEST_F(BufferPoolTest, ReferencedFrameSurvivesUnreferencedOneGoes) {
  BufferPool pool(&file_, 2);
  const PageId a = AllocViaPool(pool, 1);
  const PageId b = AllocViaPool(pool, 2);
  {
    PinnedPage pin;  // a hit: `a`'s reference bit is set, `b`'s is not
    ASSERT_TRUE(pool.Fetch(a, &pin).ok());
  }
  AllocViaPool(pool, 3);  // must evict b, not a
  pool.ResetStats();
  {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(a, &pin).ok());
  }
  EXPECT_EQ(pool.stats().physical_reads, 0u);  // a stayed resident
  {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(b, &pin).ok());
  }
  EXPECT_EQ(pool.stats().physical_reads, 1u);  // b was evicted
}

TEST_F(BufferPoolTest, EveryFrameReferencedEvictsTheFrameAtTheHand) {
  BufferPool pool(&file_, 3);
  const PageId a = AllocViaPool(pool, 1);  // frame 0, where the hand is
  const PageId b = AllocViaPool(pool, 2);
  const PageId c = AllocViaPool(pool, 3);
  // Touched newest first, so `c` is the least recently used.
  for (const PageId id : {c, b, a}) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  }
  // The sweep clears all three bits, then evicts `a` on its second turn.
  AllocViaPool(pool, 4);
  pool.ResetStats();
  for (const PageId id : {c, b}) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  }
  EXPECT_EQ(pool.stats().physical_reads, 0u);  // c and b stayed resident
  {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(a, &pin).ok());
    EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 1u);
  }
  EXPECT_EQ(pool.stats().physical_reads, 1u);  // a was evicted
}

TEST_F(BufferPoolTest, NoStealSweepPassesDirtyFramesBy) {
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(AllocInFile(i));
  BufferPool pool(&file_, 3);
  pool.set_no_steal(true);
  // Frames 0 and 1 dirty, frame 2 clean; none referenced.
  for (int i = 0; i < 3; ++i) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(ids[i], &pin).ok());
    if (i < 2) pin.MutablePage().WriteAt<uint64_t>(8, 1);
  }
  PinnedPage pin;
  ASSERT_TRUE(pool.Fetch(ids[3], &pin).ok());  // evicts the clean frame
  pin.Release();
  Page copy(256);
  EXPECT_TRUE(pool.TryGetResident(ids[0], &copy));
  EXPECT_TRUE(pool.TryGetResident(ids[1], &copy));
  EXPECT_FALSE(pool.TryGetResident(ids[2], &copy));

  // Clear drops the clean page and leaves the dirty ones resident.
  ASSERT_TRUE(pool.Clear().ok());
  EXPECT_EQ(pool.num_frames(), 2u);
  EXPECT_TRUE(pool.TryGetResident(ids[0], &copy));
  EXPECT_TRUE(pool.TryGetResident(ids[1], &copy));

  // With every unpinned frame dirty, a miss asks for a checkpoint.
  ASSERT_TRUE(pool.Fetch(ids[3], &pin).ok());
  pin.MutablePage().WriteAt<uint64_t>(8, 1);
  pin.Release();
  const Status full = pool.Fetch(ids[2], &pin);
  EXPECT_EQ(full.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(full.message().find("checkpoint required"), std::string::npos);
  EXPECT_EQ(pool.num_frames(), 3u);
}

TEST_F(BufferPoolTest, PinnedFramesAreNotEvicted) {
  BufferPool pool(&file_, 2);
  const PageId a = AllocViaPool(pool, 1);
  AllocViaPool(pool, 2);
  PinnedPage hold;
  ASSERT_TRUE(pool.Fetch(a, &hold).ok());
  AllocViaPool(pool, 3);  // must evict the unpinned frame
  // `a` is still resident and its content intact.
  EXPECT_EQ(hold.page().ReadAt<uint64_t>(0), 1u);
}

TEST_F(BufferPoolTest, AllPinnedFailsGracefully) {
  BufferPool pool(&file_, 2);
  PinnedPage p1, p2, p3;
  ASSERT_TRUE(pool.Allocate(&p1).ok());
  ASSERT_TRUE(pool.Allocate(&p2).ok());
  StatusOr<PageId> third = pool.Allocate(&p3);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(BufferPoolTest, MovePinTransfersOwnership) {
  BufferPool pool(&file_, 4);
  const PageId id = AllocViaPool(pool, 5);
  PinnedPage a;
  ASSERT_TRUE(pool.Fetch(id, &a).ok());
  PinnedPage b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.page().ReadAt<uint64_t>(0), 5u);
}

TEST_F(BufferPoolTest, FlushPersistsWithoutEviction) {
  BufferPool pool(&file_, 8);
  const PageId id = AllocViaPool(pool, 77);
  ASSERT_TRUE(pool.Flush().ok());
  Page raw(256);
  ASSERT_TRUE(file_.Read(id, &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(0), 77u);
}

TEST_F(BufferPoolTest, ClearDropsResidency) {
  BufferPool pool(&file_, 8);
  const PageId id = AllocViaPool(pool, 9);
  ASSERT_TRUE(pool.Clear().ok());
  EXPECT_EQ(pool.num_frames(), 0u);
  pool.ResetStats();
  PinnedPage pin;
  ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  EXPECT_EQ(pool.stats().physical_reads, 1u);
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 9u);
}

TEST_F(BufferPoolTest, StatsDiffAttributesTraffic) {
  BufferPool pool(&file_, 2);
  const PageId a = AllocViaPool(pool, 1);
  const PageId b = AllocViaPool(pool, 2);
  ASSERT_TRUE(pool.Clear().ok());
  const IoStats before = pool.stats();
  for (const PageId id : {a, b, a, b}) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  }
  const IoStats delta = pool.stats() - before;
  EXPECT_EQ(delta.logical_reads, 4u);
  EXPECT_EQ(delta.physical_reads, 2u);  // both fit; second round hits
}

TEST_F(BufferPoolTest, SequentialReadAccounting) {
  BufferPool pool(&file_, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(AllocViaPool(pool, i));
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
  // Ascending scan: first read is random, the rest sequential.
  for (const PageId id : ids) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  }
  EXPECT_EQ(pool.stats().physical_reads, 8u);
  EXPECT_EQ(pool.stats().sequential_reads, 7u);
  EXPECT_EQ(pool.stats().random_reads(), 1u);

  // Strided access: every read pays a seek.
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();
  for (const PageId id : {ids[0], ids[4], ids[2], ids[6]}) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  }
  EXPECT_EQ(pool.stats().sequential_reads, 0u);
  EXPECT_EQ(pool.stats().random_reads(), 4u);
}

TEST_F(BufferPoolTest, CacheHitsDoNotCountAsPhysical) {
  BufferPool pool(&file_, 8);
  const PageId a = AllocViaPool(pool, 1);
  pool.ResetStats();
  for (int i = 0; i < 5; ++i) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(a, &pin).ok());
  }
  EXPECT_EQ(pool.stats().logical_reads, 5u);
  EXPECT_EQ(pool.stats().physical_reads, 0u);
  EXPECT_EQ(pool.stats().sequential_reads, 0u);
}

TEST_F(BufferPoolTest, CapacityZeroClampsToOne) {
  BufferPool pool(&file_, 0);
  EXPECT_EQ(pool.capacity(), 1u);
  AllocViaPool(pool, 1);
  AllocViaPool(pool, 2);  // forces eviction through the single frame
  EXPECT_GE(pool.stats().evictions, 1u);
}

TEST_F(BufferPoolTest, CloseFlushesAndFencesThePool) {
  BufferPool pool(&file_, 4);
  const PageId id = AllocViaPool(pool, 33);
  ASSERT_TRUE(pool.Close().ok());
  EXPECT_TRUE(pool.closed());
  // The dirty frame reached the file before the pool shut down.
  Page raw(256);
  ASSERT_TRUE(file_.Read(id, &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(0), 33u);
  // A closed pool rejects traffic but tolerates another Close.
  PinnedPage pin;
  EXPECT_EQ(pool.Fetch(id, &pin).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.Allocate(&pin).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(pool.Close().ok());
}

TEST_F(BufferPoolTest, PrefetchMakesSubsequentFetchesHits) {
  BufferPool pool(&file_, 16);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(AllocViaPool(pool, i));
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();

  ASSERT_TRUE(pool.PrefetchRange(ids.front(), ids.size()).ok());
  // Prefetch reads are physical (and sequential after the first) but
  // never logical: readahead replaces Fetch's miss reads one-for-one.
  EXPECT_EQ(pool.stats().logical_reads, 0u);
  EXPECT_EQ(pool.stats().physical_reads, 8u);
  EXPECT_EQ(pool.stats().sequential_reads, 7u);

  for (size_t i = 0; i < ids.size(); ++i) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(ids[i], &pin).ok());
    EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), i);
  }
  // Every Fetch hit; I/O totals match a plain sequential scan exactly.
  EXPECT_EQ(pool.stats().logical_reads, 8u);
  EXPECT_EQ(pool.stats().physical_reads, 8u);
  EXPECT_EQ(pool.stats().sequential_reads, 7u);
}

TEST_F(BufferPoolTest, PrefetchOfResidentPagesReadsNothing) {
  BufferPool pool(&file_, 16);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(AllocViaPool(pool, i));
  pool.ResetStats();
  ASSERT_TRUE(pool.PrefetchRange(ids.front(), ids.size()).ok());
  EXPECT_EQ(pool.stats().logical_reads, 0u);
  EXPECT_EQ(pool.stats().physical_reads, 0u);
}

TEST_F(BufferPoolTest, PrefetchedFramesAreEvictable) {
  // Prefetched frames enter unpinned; they must not wedge a small pool.
  BufferPool pool(&file_, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(AllocViaPool(pool, i));
  ASSERT_TRUE(pool.Clear().ok());
  ASSERT_TRUE(pool.PrefetchRange(ids.front(), ids.size()).ok());
  EXPECT_LE(pool.num_frames(), pool.capacity());
  PinnedPage pin;
  ASSERT_TRUE(pool.Fetch(ids[0], &pin).ok());
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 0u);
}

// A window page already resident is never evicted by the window's own
// installs, even when it sits at the hand with every bit set.
TEST_F(BufferPoolTest, PrefetchInstallsKeepTheWindowsResidentPages) {
  std::vector<PageId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(AllocInFile(i));
  BufferPool pool(&file_, 4);
  // ids[0..3] fill frames 0..3, and the second round references each.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      PinnedPage pin;
      ASSERT_TRUE(pool.Fetch(ids[i], &pin).ok());
    }
  }
  pool.ResetStats();
  const PageId window[] = {ids[0], ids[4]};
  ASSERT_TRUE(pool.Prefetch(window).ok());
  for (const PageId id : window) {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(id, &pin).ok());
  }
  EXPECT_EQ(pool.stats().physical_reads, 1u);  // ids[4], once
}

TEST_F(BufferPoolTest, PrefetchReadFailureIsSilentAndUncounted) {
  FaultInjectingPageFile faulty(&file_);
  BufferPool pool(&faulty, 8);
  PinnedPage pin;
  StatusOr<PageId> id = pool.Allocate(&pin);
  ASSERT_TRUE(id.ok());
  pin.MutablePage().WriteAt<uint64_t>(0, 12);
  pin.Release();
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();

  // The prefetch's single uncounted read fails; Fetch then succeeds
  // through its own retried path with normal accounting.
  faulty.FailNextReads(*id, 1);
  ASSERT_TRUE(pool.PrefetchRange(*id, 1).ok());
  EXPECT_EQ(pool.stats().physical_reads, 0u);
  EXPECT_EQ(pool.stats().failed_reads, 0u);
  ASSERT_TRUE(pool.Fetch(*id, &pin).ok());
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 12u);
  EXPECT_EQ(pool.stats().logical_reads, 1u);
  EXPECT_EQ(pool.stats().physical_reads, 1u);
}

TEST_F(BufferPoolTest, TransientReadFaultRetriedTransparently) {
  FaultInjectingPageFile faulty(&file_);
  BufferPool pool(&faulty, 4);
  PinnedPage pin;
  StatusOr<PageId> id = pool.Allocate(&pin);
  ASSERT_TRUE(id.ok());
  pin.MutablePage().WriteAt<uint64_t>(0, 8);
  pin.Release();
  ASSERT_TRUE(pool.Clear().ok());

  faulty.FailNextReads(*id, BufferPool::kMaxReadRetries);
  ASSERT_TRUE(pool.Fetch(*id, &pin).ok());
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 8u);
  EXPECT_EQ(pool.stats().read_retries,
            static_cast<uint64_t>(BufferPool::kMaxReadRetries));
}

TEST_F(BufferPoolTest, EvictionWriteBackFailureDoesNotLoseData) {
  FaultInjectingPageFile faulty(&file_);
  BufferPool pool(&faulty, 1);
  PinnedPage pin;
  StatusOr<PageId> victim = pool.Allocate(&pin);
  ASSERT_TRUE(victim.ok());
  pin.MutablePage().WriteAt<uint64_t>(0, 55);
  pin.Release();

  faulty.FailAllWrites(*victim);
  PinnedPage other;
  EXPECT_EQ(pool.Allocate(&other).status().code(), StatusCode::kIOError);
  // The dirty frame survived the failed eviction; once the device
  // recovers, a flush writes it out intact.
  faulty.ClearFaults();
  ASSERT_TRUE(pool.Flush().ok());
  Page raw(256);
  ASSERT_TRUE(file_.Read(*victim, &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(0), 55u);
}

}  // namespace
}  // namespace fielddb
