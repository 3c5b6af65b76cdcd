// End-to-end tests of the fault-tolerance layer: injected read/write
// faults, torn writes, checksum verification, scrub, degraded queries,
// and crash-safe persistence. Every fault schedule is deterministic, so
// each failure path is exercised exactly, not probabilistically.

#include "storage/fault_injection.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "index/i_hilbert.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

// ---------------------------------------------------------------------
// PageFile-level behavior of the decorator.

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : base_(256), faulty_(&base_) {}

  PageId AllocWritten(uint64_t tag) {
    StatusOr<PageId> id = faulty_.Allocate(Page(256));
    EXPECT_TRUE(id.ok());
    Page p(256);
    p.WriteAt<uint64_t>(0, tag);
    EXPECT_TRUE(faulty_.Write(*id, p).ok());
    return *id;
  }

  MemPageFile base_;
  FaultInjectingPageFile faulty_;
};

TEST_F(FaultInjectionTest, PassThroughWhenNoFaults) {
  const PageId id = AllocWritten(42);
  Page p(256);
  ASSERT_TRUE(faulty_.Read(id, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 42u);
  EXPECT_EQ(faulty_.counters().read_errors, 0u);
}

TEST_F(FaultInjectionTest, TransientReadFaultClearsAfterCount) {
  const PageId id = AllocWritten(7);
  faulty_.FailNextReads(id, 2);
  Page p(256);
  EXPECT_EQ(faulty_.Read(id, &p).code(), StatusCode::kIOError);
  EXPECT_EQ(faulty_.Read(id, &p).code(), StatusCode::kIOError);
  ASSERT_TRUE(faulty_.Read(id, &p).ok());  // third attempt succeeds
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 7u);
  EXPECT_EQ(faulty_.counters().read_errors, 2u);
}

TEST_F(FaultInjectionTest, PermanentReadFaultNeverClears) {
  const PageId id = AllocWritten(7);
  faulty_.FailAllReads(id);
  Page p(256);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(faulty_.Read(id, &p).code(), StatusCode::kIOError);
  }
  faulty_.ClearFaults();
  ASSERT_TRUE(faulty_.Read(id, &p).ok());
}

TEST_F(FaultInjectionTest, WriteFaultsInjected) {
  const PageId id = AllocWritten(1);
  faulty_.FailNextWrites(id, 1);
  Page p(256);
  p.WriteAt<uint64_t>(0, 2);
  EXPECT_EQ(faulty_.Write(id, p).code(), StatusCode::kIOError);
  ASSERT_TRUE(faulty_.Write(id, p).ok());
  ASSERT_TRUE(faulty_.Read(id, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 2u);
  EXPECT_EQ(faulty_.counters().write_errors, 1u);
}

TEST_F(FaultInjectionTest, TornWriteLeavesMixedContentAndIsDetected) {
  const PageId id = AllocWritten(0);
  Page old_page(256);
  for (uint32_t i = 0; i < 256; i += 8) old_page.WriteAt<uint64_t>(i, 0xAA);
  ASSERT_TRUE(faulty_.Write(id, old_page).ok());

  faulty_.TearNextWrite(id, 16);  // only the first 16 bytes land
  Page new_page(256);
  for (uint32_t i = 0; i < 256; i += 8) new_page.WriteAt<uint64_t>(i, 0xBB);
  ASSERT_TRUE(faulty_.Write(id, new_page).ok());  // "power cut": no error
  EXPECT_EQ(faulty_.counters().torn_writes, 1u);

  // The underlying file holds the mix (prefix new, tail old)...
  Page raw(256);
  ASSERT_TRUE(base_.Read(id, &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(0), 0xBBu);
  EXPECT_EQ(raw.ReadAt<uint64_t>(128), 0xAAu);
  // ...and the checksum layer reports the tear on read.
  Page p(256);
  EXPECT_EQ(faulty_.Read(id, &p).code(), StatusCode::kCorruption);
  EXPECT_EQ(faulty_.VerifyPage(id).code(), StatusCode::kCorruption);
}

TEST_F(FaultInjectionTest, SilentCorruptionFlipsBits) {
  const PageId id = AllocWritten(0xFF);
  faulty_.SilentlyCorruptPage(id, 0x01);
  Page p(256);
  ASSERT_TRUE(faulty_.Read(id, &p).ok());  // no error — that's the point
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 0xFFull ^ 0x0101010101010101ull);
  // Verification still knows.
  EXPECT_EQ(faulty_.VerifyPage(id).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------
// ReadBatch through the decorator: faults fire per submitted page, with
// exactly the schedule semantics of `count` single Reads.

TEST_F(FaultInjectionTest, ReadBatchInjectsOnTheSubmittedPageOnly) {
  PageId ids[5];
  for (uint64_t i = 0; i < 5; ++i) ids[i] = AllocWritten(100 + i);
  faulty_.FailNextReads(ids[2], 1);

  std::vector<Page> outs(5, Page(256));
  std::vector<Status> statuses(5);
  const Status overall =
      faulty_.ReadBatch(ids, 5, outs.data(), statuses.data());
  EXPECT_EQ(overall.code(), StatusCode::kIOError);  // first failing slot
  for (uint64_t i = 0; i < 5; ++i) {
    if (i == 2) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kIOError);
    } else {
      ASSERT_TRUE(statuses[i].ok()) << i;
      EXPECT_EQ(outs[i].ReadAt<uint64_t>(0), 100 + i);
    }
  }
  EXPECT_EQ(faulty_.counters().read_errors, 1u);
  // The batch consumed the armed fault exactly as a single Read would.
  ASSERT_TRUE(faulty_.ReadBatch(ids, 5, outs.data(), statuses.data()).ok());
  for (uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(statuses[i].ok()) << i;
}

TEST_F(FaultInjectionTest, ReadBatchCorruptionIsPerSlot) {
  PageId ids[4];
  for (uint64_t i = 0; i < 4; ++i) ids[i] = AllocWritten(0xF0 + i);
  faulty_.CorruptPage(ids[1]);
  faulty_.SilentlyCorruptPage(ids[3], 0x01);

  std::vector<Page> outs(4, Page(256));
  std::vector<Status> statuses(4);
  EXPECT_EQ(faulty_.ReadBatch(ids, 4, outs.data(), statuses.data()).code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ(outs[0].ReadAt<uint64_t>(0), 0xF0u);
  EXPECT_EQ(statuses[1].code(), StatusCode::kCorruption);
  ASSERT_TRUE(statuses[2].ok());
  EXPECT_EQ(outs[2].ReadAt<uint64_t>(0), 0xF2u);
  ASSERT_TRUE(statuses[3].ok());  // silent: success with flipped bits
  EXPECT_EQ(outs[3].ReadAt<uint64_t>(0),
            (0xF0ull + 3) ^ 0x0101010101010101ull);
  EXPECT_EQ(faulty_.counters().corrupt_reads, 1u);
  EXPECT_EQ(faulty_.counters().silent_flips, 1u);
}

TEST_F(FaultInjectionTest, ReadBatchTicksTheKillCountdownPerPage) {
  PageId ids[5];
  for (uint64_t i = 0; i < 5; ++i) ids[i] = AllocWritten(i);
  faulty_.KillAfterOps(3);
  std::vector<Page> outs(5, Page(256));
  std::vector<Status> statuses(5);
  EXPECT_FALSE(faulty_.ReadBatch(ids, 5, outs.data(), statuses.data()).ok());
  for (uint64_t i = 0; i < 5; ++i) {
    if (i < 3) {
      ASSERT_TRUE(statuses[i].ok()) << i;
      EXPECT_EQ(outs[i].ReadAt<uint64_t>(0), i);
    } else {
      EXPECT_EQ(statuses[i].code(), StatusCode::kIOError) << i;
    }
  }
  EXPECT_EQ(faulty_.counters().killed_ops, 2u);
}

TEST(FaultInjectionSeedTest, ProbabilisticScheduleIsDeterministic) {
  FaultInjectionOptions options;
  options.seed = 2002;
  options.read_error_prob = 0.3;

  std::vector<bool> pattern[2];
  for (int run = 0; run < 2; ++run) {
    MemPageFile base(128);
    FaultInjectingPageFile faulty(&base, options);
    ASSERT_TRUE(faulty.Allocate(Page(128)).ok());
    Page p(128);
    for (int i = 0; i < 100; ++i) {
      pattern[run].push_back(faulty.Read(0, &p).ok());
    }
  }
  EXPECT_EQ(pattern[0], pattern[1]);
  EXPECT_NE(std::count(pattern[0].begin(), pattern[0].end(), false), 0);
}

// ---------------------------------------------------------------------
// BufferPool retry / write-back behavior under faults.

TEST(BufferPoolFaultTest, TransientReadFaultAbsorbedByRetry) {
  MemPageFile base(256);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 4);
  PinnedPage pin;
  StatusOr<PageId> id = pool.Allocate(&pin);
  ASSERT_TRUE(id.ok());
  pin.MutablePage().WriteAt<uint64_t>(0, 99);
  pin.Release();
  ASSERT_TRUE(pool.Clear().ok());

  faulty.FailNextReads(*id, 2);  // < kMaxReadRetries
  ASSERT_TRUE(pool.Fetch(*id, &pin).ok());
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 99u);
  EXPECT_EQ(pool.stats().read_retries, 2u);
  EXPECT_EQ(pool.stats().failed_reads, 0u);
}

TEST(BufferPoolFaultTest, PermanentReadFaultPropagatesAfterRetries) {
  MemPageFile base(256);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 4);
  PinnedPage pin;
  StatusOr<PageId> id = pool.Allocate(&pin);
  ASSERT_TRUE(id.ok());
  pin.Release();
  ASSERT_TRUE(pool.Clear().ok());

  faulty.FailAllReads(*id);
  const Status s = pool.Fetch(*id, &pin);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(pool.stats().read_retries,
            static_cast<uint64_t>(BufferPool::kMaxReadRetries));
  EXPECT_EQ(pool.stats().failed_reads, 1u);
  // 1 + kMaxReadRetries attempts hit the file.
  EXPECT_EQ(faulty.counters().read_errors,
            static_cast<uint64_t>(BufferPool::kMaxReadRetries) + 1);
}

TEST(BufferPoolFaultTest, CorruptionIsNotRetried) {
  MemPageFile base(256);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 4);
  PinnedPage pin;
  StatusOr<PageId> id = pool.Allocate(&pin);
  ASSERT_TRUE(id.ok());
  pin.Release();
  ASSERT_TRUE(pool.Clear().ok());

  faulty.CorruptPage(*id);
  const Status s = pool.Fetch(*id, &pin);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(pool.stats().read_retries, 0u);  // retrying rot is pointless
  EXPECT_EQ(faulty.counters().corrupt_reads, 1u);
}

TEST(BufferPoolFaultTest, EvictionWriteBackFailureKeepsPoolConsistent) {
  MemPageFile base(256);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 2);
  // Two dirty unpinned frames fill the pool.
  PageId ids[2];
  for (uint64_t i = 0; i < 2; ++i) {
    PinnedPage pin;
    StatusOr<PageId> id = pool.Allocate(&pin);
    ASSERT_TRUE(id.ok());
    pin.MutablePage().WriteAt<uint64_t>(0, 100 + i);
    ids[i] = *id;
  }
  // The LRU victim's write-back fails: the allocation must fail cleanly.
  faulty.FailAllWrites(ids[0]);
  PinnedPage pin;
  StatusOr<PageId> third = pool.Allocate(&pin);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kIOError);
  EXPECT_EQ(pool.stats().failed_writes, 1u);
  // The victim frame is still resident with its dirty data intact...
  PinnedPage check;
  ASSERT_TRUE(pool.Fetch(ids[0], &check).ok());
  EXPECT_EQ(check.page().ReadAt<uint64_t>(0), 100u);
  check.Release();
  // ...and once the fault clears, eviction (and the data) go through.
  faulty.ClearFaults();
  StatusOr<PageId> fourth = pool.Allocate(&pin);
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  pin.Release();
  ASSERT_TRUE(pool.Flush().ok());
  Page raw(256);
  ASSERT_TRUE(base.Read(ids[0], &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(0), 100u);
}

TEST(BufferPoolFaultTest, CloseSurfacesWriteBackErrors) {
  MemPageFile base(256);
  FaultInjectingPageFile faulty(&base);
  auto pool = std::make_unique<BufferPool>(&faulty, 4);
  PinnedPage pin;
  StatusOr<PageId> id = pool->Allocate(&pin);
  ASSERT_TRUE(id.ok());
  pin.MutablePage().WriteAt<uint64_t>(0, 5);
  pin.Release();

  faulty.FailAllWrites(*id);
  const Status s = pool->Close();
  EXPECT_EQ(s.code(), StatusCode::kIOError);  // the destructor only logs
  EXPECT_FALSE(pool->closed());
  // Fault cleared: Close succeeds, is idempotent, and fences the pool.
  faulty.ClearFaults();
  ASSERT_TRUE(pool->Close().ok());
  ASSERT_TRUE(pool->Close().ok());
  EXPECT_EQ(pool->Fetch(*id, &pin).code(), StatusCode::kFailedPrecondition);
}

TEST(BufferPoolFaultTest, PrefetchFailureCountsOnlyTheDedicatedMetric) {
  MemPageFile base(256);
  FaultInjectingPageFile faulty(&base);
  BufferPool pool(&faulty, 8);
  std::vector<PageId> ids;
  for (uint64_t i = 0; i < 4; ++i) {
    PinnedPage pin;
    StatusOr<PageId> id = pool.Allocate(&pin);
    ASSERT_TRUE(id.ok());
    pin.MutablePage().WriteAt<uint64_t>(0, 700 + i);
    ids.push_back(*id);
  }
  ASSERT_TRUE(pool.Flush().ok());
  ASSERT_TRUE(pool.Clear().ok());
  pool.ResetStats();

  Counter* failed =
      MetricsRegistry::Default().GetCounter("storage.pool.prefetch_failed");
  Counter* batches =
      MetricsRegistry::Default().GetCounter("storage.pool.batch_reads");
  const uint64_t failed_before = failed->value();
  const uint64_t batches_before = batches->value();

  faulty.FailAllReads(ids[1]);
  // Best effort: the pool reports OK, skips the bad page and installs
  // the other three.
  ASSERT_TRUE(pool.PrefetchRange(ids[0], 4).ok());
  EXPECT_EQ(failed->value() - failed_before, 1u);
  EXPECT_EQ(batches->value() - batches_before, 1u);

  // The failed prefetch read is invisible in the I/O totals: only the
  // three installed pages count physical; nothing counts logical,
  // failed or retried — Fetch's counted-and-retried path stays
  // authoritative for the bad page.
  IoStats s = pool.stats();
  EXPECT_EQ(s.physical_reads, 3u);
  EXPECT_EQ(s.logical_reads, 0u);
  EXPECT_EQ(s.failed_reads, 0u);
  EXPECT_EQ(s.read_retries, 0u);

  // A prefetched page hits without further physical reads...
  PinnedPage pin;
  ASSERT_TRUE(pool.Fetch(ids[2], &pin).ok());
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 702u);
  pin.Release();
  EXPECT_EQ(pool.stats().physical_reads, 3u);
  // ...and the faulted page fails through the normal retry path.
  EXPECT_EQ(pool.Fetch(ids[1], &pin).code(), StatusCode::kIOError);
  EXPECT_EQ(pool.stats().failed_reads, 1u);
  faulty.ClearFaults();
  ASSERT_TRUE(pool.Fetch(ids[1], &pin).ok());
  EXPECT_EQ(pin.page().ReadAt<uint64_t>(0), 701u);
}

// ---------------------------------------------------------------------
// Checksummed DiskPageFile: real on-disk corruption.

class DiskChecksumTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempDir() + "/fielddb_checksum_test.bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DiskChecksumTest, BitFlipInPayloadDetected) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
  Page p(512);
  p.WriteAt<uint64_t>(64, 0x1234);
  ASSERT_TRUE((*f)->Write(0, p).ok());
  ASSERT_TRUE((*f)->Read(0, &p).ok());

  // One flipped bit in the payload region.
  ASSERT_TRUE((*f)->CorruptRawForTest(0, kPageHeaderSize + 64, 0x10).ok());
  const Status s = (*f)->Read(0, &p);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("page 0"), std::string::npos);
  EXPECT_EQ((*f)->VerifyPage(0).code(), StatusCode::kCorruption);
}

TEST_F(DiskChecksumTest, TornTailDetected) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
  Page p(512);
  for (uint32_t i = 0; i < 512; i += 8) p.WriteAt<uint64_t>(i, 7);
  ASSERT_TRUE((*f)->Write(0, p).ok());
  // A torn sector: the last byte of the slot never hit the platter.
  ASSERT_TRUE(
      (*f)->CorruptRawForTest(0, kPageHeaderSize + 511, 0xFF).ok());
  EXPECT_EQ((*f)->Read(0, &p).code(), StatusCode::kCorruption);
}

TEST_F(DiskChecksumTest, HeaderCorruptionDetected) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
  ASSERT_TRUE((*f)->CorruptRawForTest(0, 9, 0x01).ok());  // page-id field
  Page p(512);
  EXPECT_EQ((*f)->Read(0, &p).code(), StatusCode::kCorruption);
}

TEST_F(DiskChecksumTest, CleanPagesSurviveReopen) {
  {
    auto f = DiskPageFile::Create(path_, 512, /*epoch=*/3);
    ASSERT_TRUE(f.ok());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
    Page p(512);
    p.WriteAt<uint64_t>(0, 11);
    ASSERT_TRUE((*f)->Write(2, p).ok());
  }
  auto f = DiskPageFile::Open(path_, 512, /*epoch=*/3);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->NumPages(), 4u);
  Page p(512);
  ASSERT_TRUE((*f)->Read(2, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(0), 11u);
  // Wrong expected epoch = catalog/page-file mix: detected.
  auto stale = DiskPageFile::Open(path_, 512, /*epoch=*/7);
  ASSERT_TRUE(stale.ok());  // the length check cannot see epochs...
  EXPECT_EQ((*stale)->Read(2, &p).code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------
// DiskPageFile::ReadBatch: the vectored path must be indistinguishable
// from a loop of single Reads — same bytes, same error taxonomy, per
// slot.

/// A failing batch slot reports exactly what a lone Read of its page
/// does, in code and message.
void ExpectLoneReadStatus(const DiskPageFile& file, PageId id,
                          const Status& slot) {
  Page lone(512);
  const Status s = file.Read(id, &lone);
  EXPECT_EQ(s.code(), slot.code()) << id;
  EXPECT_EQ(s.message(), slot.message()) << id;
}

TEST_F(DiskChecksumTest, ReadBatchMatchesSingleReads) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
    Page p(512);
    p.WriteAt<uint64_t>(0, 900 + i);
    ASSERT_TRUE((*f)->Write(i, p).ok());
  }
  // Out-of-order, non-contiguous submission: the backend may coalesce
  // whatever runs it finds, but each slot must land in its own buffer.
  const PageId ids[] = {7, 0, 3, 4, 5, 1};
  std::vector<Page> outs(6, Page(512));
  std::vector<Status> statuses(6);
  ASSERT_TRUE((*f)->ReadBatch(ids, 6, outs.data(), statuses.data()).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << i;
    EXPECT_EQ(outs[i].ReadAt<uint64_t>(0), 900 + ids[i]);
  }
  // An out-of-range id fails its slot alone.
  const PageId mixed[] = {2, 64, 6};
  std::vector<Page> mouts(3, Page(512));
  std::vector<Status> mstat(3);
  EXPECT_EQ((*f)->ReadBatch(mixed, 3, mouts.data(), mstat.data()).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(mstat[0].ok());
  EXPECT_EQ(mouts[0].ReadAt<uint64_t>(0), 902u);
  EXPECT_EQ(mstat[1].code(), StatusCode::kOutOfRange);
  ExpectLoneReadStatus(**f, 64, mstat[1]);
  ASSERT_TRUE(mstat[2].ok());
  EXPECT_EQ(mouts[2].ReadAt<uint64_t>(0), 906u);
}

TEST_F(DiskChecksumTest, ReadBatchReportsTheCorruptSlotAlone) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
    Page p(512);
    p.WriteAt<uint64_t>(0, 40 + i);
    ASSERT_TRUE((*f)->Write(i, p).ok());
  }
  ASSERT_TRUE((*f)->CorruptRawForTest(2, kPageHeaderSize + 8, 0x40).ok());
  const PageId ids[] = {0, 1, 2, 3};
  std::vector<Page> outs(4, Page(512));
  std::vector<Status> statuses(4);
  const Status overall =
      (*f)->ReadBatch(ids, 4, outs.data(), statuses.data());
  EXPECT_EQ(overall.code(), StatusCode::kCorruption);
  EXPECT_NE(overall.message().find("page 2"), std::string::npos);
  for (uint64_t i = 0; i < 4; ++i) {
    if (i == 2) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kCorruption);
      ExpectLoneReadStatus(**f, i, statuses[i]);
    } else {
      ASSERT_TRUE(statuses[i].ok()) << i;
      EXPECT_EQ(outs[i].ReadAt<uint64_t>(0), 40 + i);
    }
  }
}

TEST_F(DiskChecksumTest, ReadBatchShortReadFailsOnlyTheTruncatedSlot) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE((*f)->Allocate(Page(512)).ok());
    Page p(512);
    p.WriteAt<uint64_t>(0, 60 + i);
    ASSERT_TRUE((*f)->Write(i, p).ok());
  }
  ASSERT_TRUE((*f)->Sync().ok());
  // The device loses the tail of the last slot: the short transfer must
  // become a per-slot IOError, never garbage bytes.
  const uint64_t slot = kPageHeaderSize + 512;
  ASSERT_EQ(::truncate(path_.c_str(), 3 * slot + 17), 0);
  const PageId ids[] = {0, 1, 2, 3};
  std::vector<Page> outs(4, Page(512));
  std::vector<Status> statuses(4);
  EXPECT_EQ((*f)->ReadBatch(ids, 4, outs.data(), statuses.data()).code(),
            StatusCode::kIOError);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << i;
    EXPECT_EQ(outs[i].ReadAt<uint64_t>(0), 60 + i);
  }
  EXPECT_EQ(statuses[3].code(), StatusCode::kIOError);
  ExpectLoneReadStatus(**f, 3, statuses[3]);
}

// ---------------------------------------------------------------------
// FieldDatabase-level degradation: scrub + fallback to LinearScan.

class DatabaseFaultTest : public ::testing::Test {
 protected:
  StatusOr<std::unique_ptr<FieldDatabase>> BuildFaulty(IndexMethod method) {
    FractalOptions fo;
    fo.size_exp = 5;
    fo.roughness_h = 0.6;
    field_ = MakeFractalField(fo);
    if (!field_.ok()) return field_.status();

    FieldDatabaseOptions options;
    options.method = method;
    options.page_file_factory = [this](uint32_t page_size) {
      auto mem = std::make_unique<MemPageFile>(page_size);
      auto faulty = std::make_unique<FaultInjectingPageFile>(std::move(mem));
      injector_ = faulty.get();
      return faulty;
    };
    return FieldDatabase::Build(*field_, options);
  }

  StatusOr<GridField> field_ = Status::NotFound("not built");
  FaultInjectingPageFile* injector_ = nullptr;
};

TEST_F(DatabaseFaultTest, ScrubCleanOnHealthyDatabase) {
  auto db = BuildFaulty(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  FieldDatabase::ScrubReport report;
  ASSERT_TRUE((*db)->Scrub(&report).ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.pages_checked, (*db)->pool().file()->NumPages());
  EXPECT_GT(report.pages_checked, 0u);
}

TEST_F(DatabaseFaultTest, ScrubReportsExactlyTheCorruptPage) {
  auto db = BuildFaulty(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  const PageId victim = 3;
  injector_->CorruptPage(victim);
  FieldDatabase::ScrubReport report;
  ASSERT_TRUE((*db)->Scrub(&report).ok());
  ASSERT_EQ(report.corrupt_pages.size(), 1u);
  EXPECT_EQ(report.corrupt_pages[0], victim);
}

TEST_F(DatabaseFaultTest, CorruptIndexFallsBackToScanWithIdenticalResults) {
  // Reference run: an intact database of the same field.
  FractalOptions fo;
  fo.size_exp = 5;
  fo.roughness_h = 0.6;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  auto intact = FieldDatabase::Build(*field);
  ASSERT_TRUE(intact.ok());

  auto db = BuildFaulty(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  // Pin the indexed plan: this test exercises the corrupt-filter
  // fallback, and on a field this small the auto planner would choose
  // the fused scan and never touch the index at all.
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  // Corrupt the I-Hilbert tree root: the filtering step becomes
  // unusable, but the clustered cell store is untouched.
  const auto* idx = static_cast<const IHilbertIndex*>(&(*db)->index());
  injector_->CorruptPage(idx->tree().meta().root);
  // Drop cached frames so the next tree descent actually hits storage.
  ASSERT_TRUE((*db)->pool().Clear().ok());

  // Every fallback writes one corruption_fallback event (no query here
  // is slow enough for a slow_query event).
  const std::string events = TestTempDir() + "/fielddb_fallback.jsonl";
  std::remove(events.c_str());
  ASSERT_TRUE((*db)->AttachEventLog(events, /*slow_query_threshold_ms=*/1e9)
                  .ok());

  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.04, 10, 17});
  for (const ValueInterval& q : queries) {
    ValueQueryResult expected, degraded;
    ASSERT_TRUE(QueryOne(**intact, q, &expected).ok());
    ASSERT_TRUE(QueryOne(**db, q, &degraded).ok());
    EXPECT_EQ(degraded.stats.index_fallbacks, 1u);
    EXPECT_EQ(degraded.stats.answer_cells, expected.stats.answer_cells);
    EXPECT_NEAR(degraded.region.TotalArea(), expected.region.TotalArea(),
                1e-9);
  }
  EXPECT_EQ((*db)->index_fallbacks(), queries.size());
  uint64_t fallbacks = queries.size();

  // A shared sweep falls back once for the whole batch, and every
  // member reports it. The plan counters count the decision, so the
  // fallen-back sweep is one plans_index and no plans_scan.
  const Counter* const plans_index =
      MetricsRegistry::Default().GetCounter("db.plans_index");
  const Counter* const plans_scan =
      MetricsRegistry::Default().GetCounter("db.plans_scan");
  for (size_t i = 0; i + 1 < queries.size(); i += 2) {
    const std::vector<ValueInterval> batch = {queries[i], queries[i + 1]};
    std::vector<ValueQueryResult> expected, degraded;
    ASSERT_TRUE(QueryShared(**intact, batch, &expected).ok());
    const uint64_t index_before = plans_index->value();
    const uint64_t scan_before = plans_scan->value();
    ASSERT_TRUE(QueryShared(**db, batch, &degraded).ok());
    EXPECT_EQ(plans_index->value(), index_before + 1);
    EXPECT_EQ(plans_scan->value(), scan_before);
    for (size_t m = 0; m < batch.size(); ++m) {
      EXPECT_EQ(degraded[m].stats.index_fallbacks, 1u);
      EXPECT_EQ(degraded[m].stats.answer_cells,
                expected[m].stats.answer_cells);
      EXPECT_EQ(degraded[m].stats.candidate_cells,
                expected[m].stats.candidate_cells);
      EXPECT_NEAR(degraded[m].region.TotalArea(),
                  expected[m].region.TotalArea(), 1e-9);
    }
    EXPECT_EQ((*db)->index_fallbacks(), ++fallbacks);
  }

  for (const ValueInterval& q : queries) {
    const double level = 0.5 * (q.min + q.max);
    IsolineQueryResult expected, degraded;
    ASSERT_TRUE((*intact)->IsolineQuery(level, &expected).ok());
    ASSERT_TRUE((*db)->IsolineQuery(level, &degraded).ok());
    EXPECT_EQ(degraded.stats.index_fallbacks, 1u);
    EXPECT_EQ(degraded.stats.answer_cells, expected.stats.answer_cells);
    EXPECT_EQ(degraded.isoline.polylines, expected.isoline.polylines);
    EXPECT_EQ((*db)->index_fallbacks(), ++fallbacks);
  }

  std::ifstream log(events);
  uint64_t fallback_events = 0;
  for (std::string line; std::getline(log, line);) {
    if (line.find("\"type\": \"corruption_fallback\"") != std::string::npos) {
      ++fallback_events;
    }
  }
  EXPECT_EQ(fallback_events, fallbacks);
  std::remove(events.c_str());

  // Scrub agrees with the failure the queries worked around.
  FieldDatabase::ScrubReport report;
  ASSERT_TRUE((*db)->Scrub(&report).ok());
  ASSERT_EQ(report.corrupt_pages.size(), 1u);
  EXPECT_EQ(report.corrupt_pages[0], idx->tree().meta().root);
}

TEST_F(DatabaseFaultTest, TransientFaultsDuringQueriesAreInvisible) {
  auto db = BuildFaulty(IndexMethod::kIHilbert);
  ASSERT_TRUE(db.ok());
  // Every page of the store intermittently fails: a 20% transient
  // error rate must be fully absorbed by the pool's retry loop.
  FaultInjectionOptions options;
  options.seed = 99;
  options.read_error_prob = 0.2;
  FieldDatabaseOptions db_options;
  db_options.page_file_factory = [&](uint32_t page_size) {
    auto mem = std::make_unique<MemPageFile>(page_size);
    return std::make_unique<FaultInjectingPageFile>(std::move(mem), options);
  };
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  auto flaky = FieldDatabase::Build(*field, db_options);
  ASSERT_TRUE(flaky.ok());

  QueryStats stats;
  ASSERT_TRUE(CountOne(**flaky, ValueInterval{0.2, 0.4}, &stats).ok());
  // (With a 3-retry budget, P(4 consecutive 20% faults) = 0.16% per
  // read; the seeded schedule above stays under that.)
}

}  // namespace
}  // namespace fielddb
