#ifndef FIELDDB_STORAGE_RECORD_STORE_H_
#define FIELDDB_STORAGE_RECORD_STORE_H_

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/interval.h"
#include "common/simd/interval_filter.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fielddb {

template <typename T>
class RecordStoreAppender;

/// Fixed-size records packed into consecutive pages of a buffer pool —
/// the one paged record store of every field type: BasicCellStore
/// (index/cell_store.h) wraps one per store and adds the id map and zone
/// map. Records are stored in the order given at Build time; callers
/// pass them pre-sorted (e.g. by Hilbert value) to get physical
/// clustering. Any number of concurrent readers; writers (Put, Update)
/// are externally excluded (DESIGN.md §11).
///
/// Every scan takes a statically bound visitor — `visit(uint64_t pos,
/// const T&) -> bool`, returning false to stop early — so hot loops pay
/// no std::function indirection per record.
template <typename T>
class RecordStore {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "records are raw page bytes");

  /// Writes `records` sequentially into freshly allocated pages: a loop
  /// over RecordStoreAppender, so both produce the same page layout.
  static StatusOr<RecordStore> Build(BufferPool* pool,
                                     const std::vector<T>& records) {
    RecordStoreAppender<T> appender(pool);
    for (const T& record : records) {
      FIELDDB_RETURN_IF_ERROR(appender.Append(record));
    }
    return appender.Finish();
  }

  /// Re-attaches a store persisted by Save against the on-disk pages:
  /// the catalog records `first_page` and `num_records`; the layout is
  /// a pure function of those plus the page size.
  static StatusOr<RecordStore> Attach(BufferPool* pool, PageId first_page,
                                      uint64_t num_records) {
    const uint32_t per_page = pool->file()->page_size() /
                              static_cast<uint32_t>(sizeof(T));
    if (per_page == 0) {
      return Status::InvalidArgument("page too small for a record");
    }
    return RecordStore(pool, first_page, num_records, per_page);
  }

  RecordStore(RecordStore&&) = default;
  RecordStore& operator=(RecordStore&&) = default;
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  PageId first_page() const { return first_page_; }
  uint64_t size() const { return num_records_; }
  uint32_t records_per_page() const { return per_page_; }
  uint64_t num_pages() const {
    return num_records_ == 0 ? 1
                             : (num_records_ + per_page_ - 1) / per_page_;
  }

  Status Get(uint64_t pos, T* out) const {
    if (pos >= num_records_) {
      return Status::OutOfRange("record position out of range");
    }
    PinnedPage pin;
    FIELDDB_RETURN_IF_ERROR(pool_->Fetch(PageOf(pos), &pin));
    pin.page().Read(OffsetOf(pos), out, sizeof(T));
    return Status::OK();
  }

  Status Put(uint64_t pos, const T& record) {
    if (pos >= num_records_) {
      return Status::OutOfRange("record position out of range");
    }
    PinnedPage pin;
    FIELDDB_RETURN_IF_ERROR(pool_->Fetch(PageOf(pos), &pin));
    pin.MutablePage().Write(OffsetOf(pos), &record, sizeof(T));
    return Status::OK();
  }

  /// Read-modify-write of the record at `pos` in one page fetch:
  /// `edit(T*) -> Status` rewrites the record in place. The page is
  /// written (and dirtied) only when `edit` returns OK.
  template <typename Edit>
  Status Update(uint64_t pos, Edit&& edit) {
    if (pos >= num_records_) {
      return Status::OutOfRange("record position out of range");
    }
    PinnedPage pin;
    FIELDDB_RETURN_IF_ERROR(pool_->Fetch(PageOf(pos), &pin));
    T record;
    pin.page().Read(OffsetOf(pos), &record, sizeof(T));
    FIELDDB_RETURN_IF_ERROR(edit(&record));
    pin.MutablePage().Write(OffsetOf(pos), &record, sizeof(T));
    return Status::OK();
  }

  /// Visits positions [begin, end) in storage order, touching each page
  /// once, one blocking fetch per page.
  template <typename Visitor>
  Status Scan(uint64_t begin, uint64_t end, Visitor&& visit) const {
    if (begin > end || end > num_records_) {
      return Status::OutOfRange("scan range out of bounds");
    }
    T record;
    uint64_t pos = begin;
    while (pos < end) {
      PinnedPage pin;
      FIELDDB_RETURN_IF_ERROR(pool_->Fetch(PageOf(pos), &pin));
      const uint64_t page_end =
          std::min<uint64_t>(end, (pos / per_page_ + 1) * per_page_);
      for (; pos < page_end; ++pos) {
        pin.page().Read(OffsetOf(pos), &record, sizeof(T));
        if (!visit(pos, record)) return Status::OK();
      }
    }
    return Status::OK();
  }

  /// Visits the positions of each run in `ranges` (ascending, disjoint)
  /// whose zone entry intersects `query`, reading ahead the pool's
  /// readahead window (BufferPool::readahead_pages) at a time so a
  /// run's pages arrive in one vectored batch instead of one blocking
  /// read per page. Every page of every run is fetched, so I/O totals —
  /// and the paper's page-access semantics — equal Scan-ing each run
  /// (readahead reads count as the physical reads Fetch would have
  /// issued); only matching positions are deserialized and visited.
  /// `zones.FilterRange(run, query, &out)` appends a run's matching
  /// sub-runs (ScalarZoneMap for a value interval, BoxZoneMap for a
  /// (u, v) box). Non-matching positions are counted into `*skipped`
  /// (when non-null) without their records being touched.
  template <typename Zones, typename Key, typename Visitor>
  Status ScanRangesFiltered(const PosRange* ranges, size_t num_ranges,
                            const Zones& zones, const Key& query,
                            uint64_t* skipped, Visitor&& visit) const {
    T record;
    std::vector<PosRange> matches;
    Readahead readahead(this);
    for (size_t r = 0; r < num_ranges; ++r) {
      const uint64_t begin = ranges[r].begin;
      const uint64_t end = ranges[r].end;
      if (begin > end || end > num_records_) {
        return Status::OutOfRange("scan range out of bounds");
      }
      if (begin == end) continue;
      matches.clear();
      zones.FilterRange(ranges[r], query, &matches);
      if (skipped != nullptr) {
        *skipped += (end - begin) - TotalRangeLength(matches);
      }
      size_t m = 0;
      const uint64_t last_page_index = (end - 1) / per_page_;
      for (uint64_t page_index = begin / per_page_;
           page_index <= last_page_index; ++page_index) {
        PinnedPage pin;
        FIELDDB_RETURN_IF_ERROR(
            readahead.Fetch(page_index, last_page_index, &pin));
        const uint64_t page_begin = page_index * per_page_;
        const uint64_t page_end = page_begin + per_page_;
        while (m < matches.size() && matches[m].begin < page_end) {
          const uint64_t lo = std::max(matches[m].begin, page_begin);
          const uint64_t hi = std::min(matches[m].end, page_end);
          for (uint64_t pos = lo; pos < hi; ++pos) {
            pin.page().Read(OffsetOf(pos), &record, sizeof(T));
            if (!visit(pos, record)) return Status::OK();
          }
          if (matches[m].end <= page_end) {
            ++m;
          } else {
            break;  // run continues on the next page
          }
        }
      }
    }
    return Status::OK();
  }

 private:
  RecordStore(BufferPool* pool, PageId first_page, uint64_t num_records,
              uint32_t per_page)
      : pool_(pool), first_page_(first_page), num_records_(num_records),
        per_page_(per_page) {}

  PageId PageOf(uint64_t pos) const { return first_page_ + pos / per_page_; }
  uint32_t OffsetOf(uint64_t pos) const {
    return static_cast<uint32_t>(pos % per_page_) *
           static_cast<uint32_t>(sizeof(T));
  }

  /// One range scan's readahead cursor: before fetching a page beyond
  /// the prefetched window, prefetch up to readahead_pages more pages of
  /// the current run.
  class Readahead {
   public:
    explicit Readahead(const RecordStore* store)
        : store_(store),
          window_(std::max<size_t>(store->pool_->readahead_pages(), 1)) {}

    Status Fetch(uint64_t page_index, uint64_t last_page_index,
                 PinnedPage* pin) {
      const PageId page = store_->first_page_ + page_index;
      if (page >= prefetched_to_) {
        const size_t count = static_cast<size_t>(std::min<uint64_t>(
            window_, last_page_index - page_index + 1));
        FIELDDB_RETURN_IF_ERROR(store_->pool_->PrefetchRange(page, count));
        prefetched_to_ = page + count;
      }
      return store_->pool_->Fetch(page, pin);
    }

   private:
    const RecordStore* store_;
    uint64_t window_;
    PageId prefetched_to_ = 0;
  };

  BufferPool* pool_;
  PageId first_page_;
  uint64_t num_records_;
  uint32_t per_page_;
};

/// Streaming counterpart of RecordStore::Build for producers that never
/// hold all records in RAM (the external-sort merge): records arrive one
/// at a time via Append and Finish() returns a store whose page layout is
/// byte-identical to Build over the same sequence.
template <typename T>
class RecordStoreAppender {
 public:
  explicit RecordStoreAppender(BufferPool* pool) : pool_(pool) {
    per_page_ = pool->file()->page_size() /
                static_cast<uint32_t>(sizeof(T));
  }

  RecordStoreAppender(const RecordStoreAppender&) = delete;
  RecordStoreAppender& operator=(const RecordStoreAppender&) = delete;

  Status Append(const T& record) {
    if (per_page_ == 0) {
      return Status::InvalidArgument("page too small for a record");
    }
    const uint32_t slot = static_cast<uint32_t>(num_records_ % per_page_);
    if (slot == 0) {
      StatusOr<PageId> id = pool_->Allocate(&pin_);
      if (!id.ok()) return id.status();
      if (first_page_ == kInvalidPageId) first_page_ = *id;
    }
    pin_.MutablePage().Write(slot * sizeof(T), &record, sizeof(T));
    ++num_records_;
    return Status::OK();
  }

  uint64_t size() const { return num_records_; }

  /// Seals the store. An empty store still allocates one page, so
  /// first_page() is always valid.
  StatusOr<RecordStore<T>> Finish() {
    if (per_page_ == 0) {
      return Status::InvalidArgument("page too small for a record");
    }
    pin_.Release();
    if (num_records_ == 0) {
      StatusOr<PageId> id = pool_->Allocate(&pin_);
      if (!id.ok()) return id.status();
      first_page_ = *id;
      pin_.Release();
    }
    return RecordStore<T>::Attach(pool_, first_page_, num_records_);
  }

 private:
  BufferPool* pool_;
  uint32_t per_page_ = 0;
  PageId first_page_ = kInvalidPageId;
  uint64_t num_records_ = 0;
  PinnedPage pin_;
};

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_RECORD_STORE_H_
