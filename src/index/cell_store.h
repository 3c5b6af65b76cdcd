#ifndef FIELDDB_INDEX_CELL_STORE_H_
#define FIELDDB_INDEX_CELL_STORE_H_

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "field/cell.h"
#include "field/field.h"
#include "index/zone_sidecar.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"

namespace fielddb {

/// A stored record's zone-map key: its value interval (CellRecord,
/// VoxelRecord, the temporal slab record) or, for the one record without
/// an interval (VectorCellRecord), its (u, v) value box.
template <typename Record>
auto StoreKeyOf(const Record& record) {
  if constexpr (requires { record.Interval(); }) {
    return record.Interval();
  } else {
    return record.ValueBox();
  }
}

/// Whether a record read from disk can be used at all, checked before
/// StoreKeyOf or any other accessor reads it: its id names a slot of a
/// store of `num_records`, and a record with vertex arrays (CellRecord,
/// VectorCellRecord, the temporal slab record) has 3 or 4 vertices, so
/// no loop over them leaves the arrays. VoxelRecord's count is a
/// constant.
template <typename Record>
bool ValidStoredRecord(const Record& record, uint64_t num_records) {
  if constexpr (requires { record.x; }) {
    if (record.num_vertices != 3 && record.num_vertices != 4) return false;
  }
  return record.id < num_records;
}

/// The edit of every sample update: copies `samples` over dst[0, n).
/// Refuses with InvalidArgument a count other than `n` and any
/// non-finite sample — such a sample has no value interval, so no zone
/// slot, subfield key or catalog row could hold it.
Status WriteSamples(const std::vector<double>& samples, uint32_t n,
                    double* dst);

/// The update edit of a record whose samples are w[0, num_vertices)
/// (CellRecord, VoxelRecord): they become `samples`.
inline auto SetSamples(const std::vector<double>& samples) {
  return [&samples](auto* record) {
    return WriteSamples(samples, record->num_vertices, record->w);
  };
}

/// What an update did to its record's key: the input of the subfield
/// refresh (RefreshSubfieldAfterUpdate).
template <typename Key>
struct KeyChange {
  uint64_t pos = 0;  // the record's slot
  Key old_key;
  Key new_key;

  bool changed() const { return !(old_key == new_key); }
};

/// Records serialized into fixed-slot pages in a caller-chosen order — the
/// physical clustering the paper requires: I-Hilbert stores cells in
/// Hilbert-value order so that a subfield's cells occupy a contiguous page
/// range addressable by (start, end) pointers (Fig. 6's leaf layout).
///
/// The one store of every field type: the grid's CellStore is the
/// CellRecord instance; volume, vector and temporal slabs store
/// VoxelRecord, VectorCellRecord and TemporalSlabRecord. The pages are a
/// RecordStore<Record> (records()), which owns every page loop; the
/// per-slot keys (StoreKeyOf) are a zone map (zone_map(): ScalarZoneMap
/// for interval keys, BoxZoneMap for boxes). The store adds the
/// record-id -> slot map (records carry their ids), the permutation
/// check at build and Attach, and Update, the one-fetch update that keeps
/// the zone map in sync. Positions are 0-based slots in storage order.
/// Concurrency contract is the pages': any number of readers, writers
/// externally excluded (DESIGN.md §11).
template <typename Record>
class BasicCellStore {
 public:
  using Key = decltype(StoreKeyOf(std::declval<const Record&>()));
  using ZoneMap = std::conditional_t<std::is_same_v<Key, ValueInterval>,
                                     ScalarZoneMap, BoxZoneMap>;
  using Change = KeyChange<Key>;

  /// Streams records into a new store one slot at a time, in storage
  /// order: Append() exactly `num_records` records, then Finish().
  /// Defined after the class.
  class Appender;

  /// Serializes a grid `field`'s cells into `pool`'s file (CellStore
  /// only), visiting them in the order given by `order` (order[pos] =
  /// field cell id stored at slot pos). `order` must be a permutation of
  /// [0, field.NumCells()); pass an empty `order` for the identity.
  static StatusOr<BasicCellStore> Build(BufferPool* pool, const Field& field,
                                        const std::vector<CellId>& order) {
    const uint64_t n = field.NumCells();
    if (!order.empty() && order.size() != n) {
      return Status::InvalidArgument("order size does not match cell count");
    }
    Appender appender(pool, n);
    for (uint64_t pos = 0; pos < n; ++pos) {
      const CellId cell_id =
          order.empty() ? static_cast<CellId>(pos) : order[pos];
      if (cell_id >= n) {
        return Status::InvalidArgument("order is not a permutation");
      }
      FIELDDB_RETURN_IF_ERROR(appender.Append(field.GetCell(cell_id)));
    }
    return appender.Finish();
  }

  /// Re-attaches to a store persisted in `pool`'s file. Scans the
  /// records once to rebuild the id -> slot map and the zone map;
  /// kCorruption naming the slot of the first record that fails
  /// ValidStoredRecord, and when the stored ids are not a permutation.
  static StatusOr<BasicCellStore> Attach(BufferPool* pool, PageId first_page,
                                         uint64_t num_records) {
    StatusOr<RecordStore<Record>> records =
        RecordStore<Record>::Attach(pool, first_page, num_records);
    if (!records.ok()) return records.status();
    std::vector<uint64_t> position_of(num_records, kNoPosition);
    ZoneMap zones;
    zones.Reserve(num_records);
    Status invalid;
    FIELDDB_RETURN_IF_ERROR(records->Scan(
        0, num_records, [&](uint64_t pos, const Record& record) {
          if (!ValidStoredRecord(record, num_records)) {
            invalid = Status::Corruption("record store slot " +
                                         std::to_string(pos) +
                                         " holds an invalid record");
            return false;
          }
          position_of[record.id] = pos;
          zones.Append(StoreKeyOf(record));
          return true;
        }));
    FIELDDB_RETURN_IF_ERROR(invalid);
    for (const uint64_t pos : position_of) {
      if (pos == kNoPosition) {
        return Status::Corruption("record store is missing record ids");
      }
    }
    return BasicCellStore(std::move(records).value(), std::move(position_of),
                          std::move(zones));
  }

  BasicCellStore(BasicCellStore&&) = default;
  BasicCellStore& operator=(BasicCellStore&&) = default;
  BasicCellStore(const BasicCellStore&) = delete;
  BasicCellStore& operator=(const BasicCellStore&) = delete;

  /// The pages: every read and scan goes through here.
  const RecordStore<Record>& records() const { return records_; }
  /// The per-slot keys (equal to each slot's StoreKeyOf at all times).
  const ZoneMap& zone_map() const { return zones_; }

  /// First page of the store within the pool's file (for persistence).
  PageId first_page() const { return records_.first_page(); }
  /// Number of stored records.
  uint64_t size() const { return records_.size(); }
  /// Records per page for this pool's page size.
  uint32_t cells_per_page() const { return records_.records_per_page(); }
  /// Number of pages occupied by the store.
  uint64_t num_pages() const { return records_.num_pages(); }

  /// Slot position of a record id (inverse of the build order).
  uint64_t PositionOf(uint64_t id) const { return position_of_[id]; }

  /// Runs `edit(Record*) -> Status` on a copy of record `id` and writes
  /// nothing: the check every update makes before it is logged, so only
  /// updates that Update accepts reach the WAL (one page fetch).
  template <typename Edit>
  Status CheckUpdate(uint64_t id, Edit&& edit) const {
    if (id >= size()) return Status::OutOfRange("no such cell");
    Record record;
    FIELDDB_RETURN_IF_ERROR(records_.Get(position_of_[id], &record));
    return edit(&record);
  }

  /// Rewrites record `id` through `edit(Record*) -> Status` in one page
  /// fetch — written only when `edit` returns OK — resyncs its zone slot,
  /// and reports the slot and the key before and after in `*change`.
  template <typename Edit>
  Status Update(uint64_t id, Edit&& edit, Change* change) {
    if (id >= size()) return Status::OutOfRange("no such cell");
    change->pos = position_of_[id];
    FIELDDB_RETURN_IF_ERROR(
        records_.Update(change->pos, [&](Record* record) -> Status {
          change->old_key = StoreKeyOf(*record);
          FIELDDB_RETURN_IF_ERROR(edit(record));
          change->new_key = StoreKeyOf(*record);
          return Status::OK();
        }));
    zones_.Set(change->pos, change->new_key);
    return Status::OK();
  }

 private:
  static constexpr uint64_t kNoPosition = ~uint64_t{0};

  BasicCellStore(RecordStore<Record> records,
                 std::vector<uint64_t> position_of, ZoneMap zones)
      : records_(std::move(records)), position_of_(std::move(position_of)),
        zones_(std::move(zones)) {}

  RecordStore<Record> records_;
  std::vector<uint64_t> position_of_;
  ZoneMap zones_;
};

template <typename Record>
class BasicCellStore<Record>::Appender {
 public:
  Appender(BufferPool* pool, uint64_t num_records)
      : records_(pool), position_of_(num_records, kNoPosition) {
    zones_.Reserve(num_records);
  }

  /// Writes `record` at the next slot. Each record id must be stored
  /// exactly once (the store is a permutation of its ids).
  Status Append(const Record& record) {
    const uint64_t pos = records_.size();
    if (pos >= position_of_.size()) {
      return Status::OutOfRange("appended past the declared cell count");
    }
    if (record.id >= position_of_.size() ||
        position_of_[record.id] != kNoPosition) {
      return Status::InvalidArgument("order is not a permutation");
    }
    FIELDDB_RETURN_IF_ERROR(records_.Append(record));
    position_of_[record.id] = pos;
    zones_.Append(StoreKeyOf(record));
    return Status::OK();
  }

  /// Slots appended so far.
  uint64_t size() const { return records_.size(); }

  StatusOr<BasicCellStore> Finish() {
    if (records_.size() != position_of_.size()) {
      return Status::InvalidArgument("appended fewer cells than declared");
    }
    StatusOr<RecordStore<Record>> records = records_.Finish();
    if (!records.ok()) return records.status();
    return BasicCellStore(std::move(records).value(), std::move(position_of_),
                          std::move(zones_));
  }

 private:
  RecordStoreAppender<Record> records_;
  std::vector<uint64_t> position_of_;
  ZoneMap zones_;
};

/// The grid's store.
using CellStore = BasicCellStore<CellRecord>;

}  // namespace fielddb

#endif  // FIELDDB_INDEX_CELL_STORE_H_
