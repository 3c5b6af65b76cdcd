#ifndef FIELDDB_STORAGE_PAGE_FILE_H_
#define FIELDDB_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace fielddb {

/// Backing store for pages. Two implementations: in-memory (the default
/// for benchmarks — timing then reflects algorithmic work, while the
/// BufferPool still counts "physical" reads) and an actual on-disk file
/// (useful for persistence tests and to sanity-check the simulation).
///
/// Thread safety: Read/Write/Allocate/Sync on both library
/// implementations are safe to call concurrently (the BufferPool's
/// shards issue reads and write-backs in parallel). Same-page
/// Write/Write and Read/Write overlap is the caller's job to exclude —
/// the pool's per-shard locks guarantee it for all pool traffic.
class PageFile {
 public:
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  uint32_t page_size() const { return page_size_; }

  /// Number of allocated pages; valid ids are [0, NumPages()).
  virtual uint64_t NumPages() const = 0;

  /// Appends `page` (must have size == page_size()) and returns its id.
  virtual StatusOr<PageId> Allocate(const Page& page) = 0;

  /// Appends an all-zero page and returns its id: the buffer pool's
  /// allocation, whose frame holds the new page's bytes. The default
  /// appends a zeroed Page; the in-memory file stores nothing for the
  /// page until it is first written.
  virtual StatusOr<PageId> AllocateZeroed() {
    return Allocate(Page(page_size_));
  }

  /// Reads page `id` into `*out` (resized to page_size() if needed).
  /// Implementations with integrity framing return kCorruption (naming
  /// the page id) instead of handing back bytes that fail verification;
  /// after a failed read, `*out` holds unspecified bytes.
  virtual Status Read(PageId id, Page* out) const = 0;

  /// Vectored read: pages `ids[0..count)` into `outs[0..count)`, one
  /// per-page status in `statuses[0..count)`. Every page is attempted —
  /// a failed page never blocks its neighbors — and each status matches
  /// what a lone Read of that page would have returned (same integrity
  /// verification, same error taxonomy). Returns OK iff every page
  /// succeeded; otherwise the first failing page's status.
  ///
  /// The default loops over Read; DiskPageFile overrides it with one
  /// preadv per run of consecutive ids, which is what makes
  /// BufferPool::PrefetchRange one transfer per window.
  virtual Status ReadBatch(const PageId* ids, size_t count, Page* outs,
                           Status* statuses) const;

  /// Writes `page` (must have size == page_size()) to page `id`.
  virtual Status Write(PageId id, const Page& page) = 0;

  /// Verifies the integrity of page `id` without exposing its contents.
  /// The default reads the page into a scratch buffer, so any Read-side
  /// checksum verification applies; kCorruption identifies a bad page.
  virtual Status VerifyPage(PageId id) const;

  /// Durably flushes buffered writes to the backing medium (fsync for
  /// disk files). No-op for memory-backed files.
  virtual Status Sync() { return Status::OK(); }

 protected:
  explicit PageFile(uint32_t page_size) : page_size_(page_size) {}

  uint32_t page_size_;
};

/// Heap-backed page file. A page allocated zeroed (AllocateZeroed) holds
/// no bytes until its first Write and reads as zeros, so a pool that
/// keeps every page of an in-memory database resident is its only copy.
class MemPageFile final : public PageFile {
 public:
  explicit MemPageFile(uint32_t page_size = kDefaultPageSize)
      : PageFile(page_size) {}

  uint64_t NumPages() const override;
  StatusOr<PageId> Allocate(const Page& page) override;
  StatusOr<PageId> AllocateZeroed() override;
  Status Read(PageId id, Page* out) const override;
  Status Write(PageId id, const Page& page) override;

 private:
  // Shared: Read/Write touch one slot (stable address); exclusive:
  // Allocate may reallocate the outer vector. An empty slot is a page
  // of zeros never written.
  mutable std::shared_mutex mu_;
  std::vector<std::vector<uint8_t>> pages_;
};

/// Per-page framing prepended to every on-disk page slot:
///   [masked CRC32C (4) | epoch (4) | page id (8)] + payload.
/// The CRC covers epoch, page id and payload, so torn writes, bit rot
/// and misdirected (right data, wrong offset) pages are all detected on
/// Read. The epoch is stamped by each Save generation; a mismatch means
/// the catalog and the page file come from different snapshots (e.g. a
/// crash landed between the two commit renames).
inline constexpr uint32_t kPageHeaderSize = 16;

/// On-disk page file: one descriptor, read and written with positioned
/// calls, so no call moves a shared file position and no read takes a
/// lock. Page `id` occupies the slot at offset
/// id * (kPageHeaderSize + page_size).
class DiskPageFile final : public PageFile {
 public:
  ~DiskPageFile() override;

  /// Creates (truncating) a new page file at `path`. Pages written are
  /// stamped with `epoch`; reads verify it.
  static StatusOr<std::unique_ptr<DiskPageFile>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize,
      uint32_t epoch = 1);

  /// Opens an existing page file; the file length must be a multiple of
  /// kPageHeaderSize + `page_size`. Pass `epoch` = 0 to skip epoch
  /// verification (the CRC and page-id checks still apply).
  static StatusOr<std::unique_ptr<DiskPageFile>> Open(
      const std::string& path, uint32_t page_size = kDefaultPageSize,
      uint32_t epoch = 0);

  uint64_t NumPages() const override {
    return num_pages_.load(std::memory_order_acquire);
  }
  /// AppendRun of one page.
  StatusOr<PageId> Allocate(const Page& page) override;
  /// Appends `count` pages (each of page_size()) as the next ids, framed
  /// as Write frames a page, with one positioned vector write per run of
  /// up to 512 pages. Returns the first page's id.
  StatusOr<PageId> AppendRun(const Page* pages, size_t count);
  /// A batch of one, so a lone read and a batch slot report the same
  /// status.
  Status Read(PageId id, Page* out) const override;
  /// One preadv per run of consecutive in-range ids, each slot's header
  /// into a small buffer and its payload straight into the caller's
  /// page. A failed or short run is re-read slot by slot, so only the
  /// slots past the short point fail; an out-of-range id fails its slot
  /// alone. Every slot read is then verified (VerifySlot).
  Status ReadBatch(const PageId* ids, size_t count, Page* outs,
                   Status* statuses) const override;
  Status Write(PageId id, const Page& page) override;
  Status Sync() override;

  uint32_t epoch() const { return epoch_; }

  /// Testing back-door: XORs `xor_mask` into one byte of the raw on-disk
  /// slot of page `id` (offset counted from the slot start, i.e. 0..15
  /// hits the header). Simulates bit rot / a torn sector beneath the
  /// checksum layer; a subsequent Read reports kCorruption.
  Status CorruptRawForTest(PageId id, uint32_t offset, uint8_t xor_mask);

 private:
  DiskPageFile(int fd, uint32_t page_size, uint64_t num_pages,
               uint32_t epoch)
      : PageFile(page_size), fd_(fd), num_pages_(num_pages), epoch_(epoch) {}

  uint64_t SlotSize() const { return uint64_t{kPageHeaderSize} + page_size_; }
  /// The unmasked CRC32C of a slot: its header's epoch and id, then its
  /// payload.
  uint32_t SlotCrc(const uint8_t* header, const uint8_t* payload) const;
  /// Frames `pages` as pages first .. first + count - 1 (count <= 512)
  /// and writes the slots with one pwritev.
  Status WriteSlots(PageId first, const Page* pages, size_t count);
  /// Verifies a slot read as its header and payload (CRC -> page id ->
  /// epoch), counting storage.file.corrupt_page_reads on failure.
  Status VerifySlot(PageId id, const uint8_t* header,
                    const Page& payload) const;

  const int fd_;
  // Allocate's append moves num_pages_; nothing else locks.
  std::mutex allocate_mu_;
  std::atomic<uint64_t> num_pages_;
  /// Stamped into written headers; verified on Read when non-zero.
  const uint32_t epoch_;
};

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_PAGE_FILE_H_
