#ifndef FIELDDB_STORAGE_BUFFER_POOL_H_
#define FIELDDB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace fielddb {

/// One frame of a pool shard (internal to BufferPool; exposed at
/// namespace scope only so PinnedPage's inline accessors can dereference
/// it). `id`, `referenced` and every pin are set under the owning
/// shard's mutex; a pin is released without it (PinnedPage::Release),
/// so `pin_count` is atomic, and `dirty` is atomic because
/// PinnedPage::MutablePage sets it without the lock.
struct BufferFrame {
  /// No bytes until the frame first holds a page; it keeps them from
  /// one page to the next.
  Page page{0};
  /// The page held, kInvalidPageId while the frame is free.
  PageId id = kInvalidPageId;
  std::atomic<uint32_t> pin_count{0};
  std::atomic<bool> dirty{false};
  /// The second-chance bit: set by a hit and by Prefetch's install,
  /// cleared by a sweep passing the frame.
  bool referenced = false;
};

/// RAII pin on a buffer-pool frame. While alive, the underlying page is
/// guaranteed not to be evicted; `page()` stays valid. Marking the pin
/// dirty causes a write-back on eviction / flush. A pin is held and
/// released by one thread; distinct threads may hold distinct pins on
/// the same page concurrently. A pin must be released before its pool
/// is destroyed.
class PinnedPage {
 public:
  PinnedPage() = default;
  ~PinnedPage() { Release(); }

  PinnedPage(PinnedPage&& other) noexcept { *this = std::move(other); }
  PinnedPage& operator=(PinnedPage&& other) noexcept;
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;

  bool valid() const { return frame_ != nullptr; }
  /// A pinned frame keeps its page, so its id needs no lock.
  PageId id() const { return valid() ? frame_->id : kInvalidPageId; }

  const Page& page() const;
  /// Grants mutable access and marks the frame dirty. Mutating a page
  /// concurrently with readers of the same page is a caller-level data
  /// race — the engine's contract is that writers (updates, Save) have
  /// the database to themselves.
  Page& MutablePage();

  /// Drops the pin early (idempotent). Takes no lock.
  void Release();

 private:
  friend class BufferPool;
  explicit PinnedPage(BufferFrame* frame) : frame_(frame) {}

  BufferFrame* frame_ = nullptr;
};

/// A fixed-capacity page cache over a PageFile, safe for concurrent
/// readers. The frames are split into shards (pages map to shards by
/// id), each guarded by its own mutex, so N threads fetching different
/// pages contend only when their pages share a shard. A shard is a fixed
/// array of frames, a page -> frame map and one second-chance (CLOCK)
/// hand: a hit is a map probe, a reference bit and a pin; a miss takes a
/// free frame or the first frame the hand finds unpinned and
/// unreferenced, clearing the bits it passes.
/// Each shard counts its own I/O events under its mutex, and stats()
/// sums the shards; per-query attribution flows through the calling
/// thread's ScopedIoSink (storage/io_sink.h). All
/// page traffic in the library goes through a pool, which is also where
/// the experiment harness reads its I/O counters (logical accesses vs.
/// misses).
///
/// Failure behavior: transient read faults (kIOError) are absorbed by a
/// bounded retry loop with capped backoff; corruption and out-of-range
/// errors are never retried. A failed write-back leaves the dirty frame
/// resident, so the data is not lost and a later Flush/eviction can
/// retry.
class BufferPool {
 public:
  /// Reads that fail with kIOError are retried up to this many times
  /// before the error propagates to the caller.
  static constexpr int kMaxReadRetries = 3;

  /// Shard count of pools of at least 256 frames; a smaller pool is one
  /// shard, one hand over every frame.
  static constexpr size_t kDefaultShards = 16;

  /// Readahead window (pages) of range scans
  /// (RecordStore::ScanRangesFiltered): the depth of one Prefetch.
  static constexpr size_t kReadaheadPages = 8;

  /// `capacity` is the number of frames (0 reads as 1). The pool does
  /// not take ownership of `file`; the file's Read must be safe to call
  /// from multiple shards concurrently (both library PageFiles are).
  BufferPool(PageFile* file, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the file on a miss. Safe to call
  /// from any number of threads concurrently.
  Status Fetch(PageId id, PinnedPage* out);

  /// Batched readahead: loads the listed pages (ascending ids, not
  /// necessarily consecutive) that are not yet resident into unpinned,
  /// referenced frames, so subsequent Fetches of them hit. The misses
  /// are submitted as ONE PageFile::ReadBatch (a preadv per run of
  /// consecutive pages on disk files) with no shard lock held, then
  /// installed page by page; making room passes the listed pages by,
  /// so no install evicts one. Best effort — a page whose frame cannot
  /// be made (shard full of pins) or whose read fails is skipped,
  /// leaving Fetch's normal counted-and-retried read path authoritative
  /// for it; failed batch reads count the `storage.pool.prefetch_failed`
  /// metric (and nothing else, so I/O totals stay readahead-invariant).
  ///
  /// Accounting: a prefetch read counts as a physical (and, when the ids
  /// run consecutively, sequential) read exactly like the Fetch it
  /// replaces, and never as a logical read — so a scan's I/O totals are
  /// identical with and without readahead. Already-resident pages count
  /// only the `storage.pool.prefetch_hit` metric.
  Status Prefetch(std::span<const PageId> ids);

  /// Prefetch of the consecutive pages [first, first + count).
  Status PrefetchRange(PageId first, size_t count);

  /// Allocates a fresh all-zero page in the file (PageFile::
  /// AllocateZeroed) and pins it (dirty); its bytes are zeroed once, in
  /// the frame.
  StatusOr<PageId> Allocate(PinnedPage* out);

  /// Writes back all dirty frames.
  Status Flush();

  /// Flushes and shuts the pool down; the explicit counterpart to the
  /// destructor (which can only log a failed final flush, not report
  /// it). Idempotent; after a successful Close, Fetch/Allocate fail
  /// with kFailedPrecondition. A failing Close leaves the pool open so
  /// the caller can retry once the fault clears.
  Status Close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Drops every unpinned frame (after flushing it). Used by benchmarks
  /// to cold-start the cache between runs. Under no-steal, dirty frames
  /// are skipped (they stay resident) instead of flushed.
  Status Clear();

  /// No-steal policy (WAL mode, DESIGN.md §14): when set, a dirty frame
  /// is never written back by eviction, Flush, Clear, or the
  /// destructor — the on-disk pages always hold exactly the last
  /// checkpoint, so recovery is a pure logical redo of the log and a
  /// torn in-place page write is architecturally impossible. The sweep
  /// passes dirty frames by; if every unpinned frame is dirty the pool
  /// reports FailedPrecondition ("checkpoint required").
  /// After its snapshot renames commit, the checkpoint epilogue briefly
  /// clears no-steal and Flushes the dirty frames into the still-open
  /// (now unlinked) pre-checkpoint inode, which both clears the dirty
  /// bits and keeps the live handle serving post-checkpoint state.
  void set_no_steal(bool v) { no_steal_.store(v, std::memory_order_release); }
  bool no_steal() const { return no_steal_.load(std::memory_order_acquire); }

  /// Drops every frame without writing anything back, then shuts the
  /// pool down. The crash-consistent counterpart to Close(): in WAL
  /// mode all uncheckpointed mutations live in the log, so the dirty
  /// frames are deliberately discarded. Fails if any frame is pinned.
  Status Abandon();

  /// Copies page `id` out of the pool if it is resident (dirty or
  /// clean), without setting its reference bit or touching the file.
  /// The checkpoint uses this to capture in-memory state page by page
  /// with zero pool pressure. Returns false on a miss.
  bool TryGetResident(PageId id, Page* out);

  /// The pool-wide I/O counters: the sum of every shard's, each read
  /// under its shard's mutex. Each counter is exact; a sum taken while
  /// traffic is in flight may be skewed between shards by the in-flight
  /// events.
  IoStats stats() const;
  void ResetStats();

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return num_shards_; }
  /// Total resident frames across shards (locks each shard briefly).
  size_t num_frames() const;
  PageFile* file() const { return file_; }

 private:
  struct Shard {
    std::mutex mu;
    std::vector<BufferFrame> frames;
    // Resident page -> the index of its frame.
    std::unordered_map<PageId, uint32_t> index;
    // Frames holding no page, the next one taken last.
    std::vector<uint32_t> free;
    // The frame the next sweep examines first.
    uint32_t hand = 0;
    // This shard's share of the pool's I/O counters.
    IoStats stats;
  };

  Shard& ShardOf(PageId id) { return shards_[id % num_shards_]; }
  // The members below run with `shard.mu` held, where `shard` owns
  // the page, and count each I/O event in the shard's stats, the
  // calling thread's sink and the metric.
  /// Pins `frame` into `*out`, releasing the pin `*out` held.
  static void PinLocked(BufferFrame& frame, PinnedPage* out);
  /// A free frame of `shard` for a new page, else the second-chance
  /// sweep's victim (see the class comment), written back and unmapped.
  /// The sweep passes by the pinned frames and those holding a page of
  /// `keep` (ascending ids) and fails with FailedPrecondition after two
  /// turns. The caller maps the frame's page and sets its id, or puts
  /// it back on the free list.
  StatusOr<uint32_t> TakeFrameLocked(Shard& shard,
                                     std::span<const PageId> keep = {});
  /// Unmaps frame `k` and puts it on the free list, clean.
  static void FreeLocked(Shard& shard, uint32_t k);
  Status WriteBackLocked(Shard& shard, BufferFrame& frame);
  /// file_->Read with the bounded transient-fault retry policy.
  Status ReadWithRetry(Shard& shard, PageId id, Page* out);
  void CountLogicalRead(Shard& shard);
  /// Returns whether this physical read should be latency-sampled.
  bool CountPhysicalRead(Shard& shard, PageId id);

  PageFile* file_;
  size_t capacity_;
  size_t num_shards_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> no_steal_{false};
  std::unique_ptr<Shard[]> shards_;
  // Previous physical read's page id, for sequential-read accounting.
  // Pool-wide: under one reader it reproduces the single-thread counts
  // exactly; under concurrent readers interleaved streams make the
  // split approximate (as they would on a real disk head).
  std::atomic<PageId> last_physical_read_{kInvalidPageId - 1};

  // Process-wide instruments (registered once per pool; cheap relaxed
  // RMW updates on the hot path, see obs/metrics.h). Physical-read
  // latency is sampled 1-in-kLatencySampleEvery (every 16th physical
  // read of a shard) to keep the clock calls off the common path;
  // write-backs are rare enough to time every one.
  static constexpr uint64_t kLatencySampleEvery = 16;
  Counter* m_logical_reads_;
  Counter* m_physical_reads_;
  Counter* m_evictions_;
  Counter* m_read_retries_;
  Counter* m_failed_reads_;
  Counter* m_failed_writes_;
  Counter* m_prefetch_issued_;
  Counter* m_prefetch_hit_;
  Counter* m_prefetch_failed_;
  Counter* m_batch_reads_;
  Histogram* m_read_latency_us_;
  Histogram* m_write_latency_us_;
};

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_BUFFER_POOL_H_
