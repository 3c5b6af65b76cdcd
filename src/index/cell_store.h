#ifndef FIELDDB_INDEX_CELL_STORE_H_
#define FIELDDB_INDEX_CELL_STORE_H_

#include <vector>

#include "common/status.h"
#include "field/cell.h"
#include "field/field.h"
#include "index/zone_sidecar.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"

namespace fielddb {

/// Cells serialized into fixed-slot pages in a caller-chosen order — the
/// physical clustering the paper requires: I-Hilbert stores cells in
/// Hilbert-value order so that a subfield's cells occupy a contiguous page
/// range addressable by (start, end) pointers (Fig. 6's leaf layout).
///
/// The pages are a RecordStore<CellRecord> (records()), which owns every
/// page loop; the per-slot value intervals are a ScalarZoneMap
/// (zone_map()). CellStore adds only what is grid-specific: the cell-id
/// -> slot map (the records carry their cell ids), the permutation check
/// at Build/Attach, and UpdateValues, the one-fetch update that keeps the
/// zone map in sync. Positions are 0-based slots in storage order.
/// Concurrency contract is the pages': any number of readers, writers
/// externally excluded (DESIGN.md §11).
class CellStore {
 public:
  /// Serializes `field`'s cells into `pool`'s file, visiting them in the
  /// order given by `order` (order[pos] = field cell id stored at slot
  /// pos). `order` must be a permutation of [0, field.NumCells()).
  /// Pass an empty `order` for the identity (native field order).
  static StatusOr<CellStore> Build(BufferPool* pool, const Field& field,
                                   const std::vector<CellId>& order);

  /// Streaming counterpart of Build for callers that produce records one
  /// slot at a time instead of holding a full order vector — the
  /// external-sort build feeds each merged record straight in. Append()
  /// exactly `num_cells` records in storage order, then Finish(). Build
  /// itself is a loop over this class. Defined after the class.
  class Appender;

  /// Re-attaches to a store persisted in `pool`'s file. Scans the
  /// records once to rebuild the cell-id -> position map and the zone
  /// map.
  static StatusOr<CellStore> Attach(BufferPool* pool, PageId first_page,
                                    uint64_t num_cells);

  CellStore(CellStore&&) = default;
  CellStore& operator=(CellStore&&) = default;
  CellStore(const CellStore&) = delete;
  CellStore& operator=(const CellStore&) = delete;

  /// The pages: every read and scan goes through here.
  const RecordStore<CellRecord>& records() const { return records_; }
  /// The per-slot record intervals (equal to each slot's
  /// CellRecord::Interval() at all times).
  const ScalarZoneMap& zone_map() const { return zones_; }

  /// First page of the store within the pool's file (for persistence).
  PageId first_page() const { return records_.first_page(); }
  /// Number of stored cells.
  uint64_t size() const { return records_.size(); }
  /// Cells per page for this pool's page size.
  uint32_t cells_per_page() const { return records_.records_per_page(); }
  /// Number of pages occupied by the store.
  uint64_t num_pages() const { return records_.num_pages(); }

  /// Rewrites only the sample values of the record at slot `pos` and
  /// reports the value interval before and after — the update fast path
  /// shared by every index method (one page fetch). `values.size()` must
  /// match the record's vertex count.
  Status UpdateValues(uint64_t pos, const std::vector<double>& values,
                      ValueInterval* old_iv, ValueInterval* new_iv);

  /// Slot position of a field cell id (inverse of the build order).
  uint64_t PositionOf(CellId field_cell_id) const {
    return position_of_[field_cell_id];
  }

 private:
  CellStore(RecordStore<CellRecord> records, std::vector<uint64_t> position_of,
            ScalarZoneMap zones)
      : records_(std::move(records)), position_of_(std::move(position_of)),
        zones_(std::move(zones)) {}

  RecordStore<CellRecord> records_;
  std::vector<uint64_t> position_of_;
  ScalarZoneMap zones_;
};

class CellStore::Appender {
 public:
  Appender(BufferPool* pool, uint64_t num_cells);
  /// Writes `record` at the next slot. Validates the same permutation
  /// invariant Build does (each cell id stored exactly once).
  Status Append(const CellRecord& record);
  /// Slots appended so far.
  uint64_t size() const { return records_.size(); }
  StatusOr<CellStore> Finish();

 private:
  RecordStoreAppender<CellRecord> records_;
  std::vector<uint64_t> position_of_;
  ScalarZoneMap zones_;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_CELL_STORE_H_
