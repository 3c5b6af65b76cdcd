#ifndef FIELDDB_INDEX_CELL_STORE_H_
#define FIELDDB_INDEX_CELL_STORE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "field/cell.h"
#include "field/field.h"
#include "index/zone_sidecar.h"
#include "obs/trace.h"
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
/// store of `num_records`; a record with vertex arrays (CellRecord,
/// VectorCellRecord, the temporal slab record) has 3 or 4 vertices, so
/// no loop over them leaves the arrays (VoxelRecord's count is a
/// constant); and every coordinate and sample of its vertices is
/// finite, as a lattice slot's samples must be (CellSlots::Valid) — a
/// NaN has no value interval, so no zone slot could hold it.
template <typename Record>
bool ValidStoredRecord(const Record& record, uint64_t num_records) {
  const uint32_t n = record.num_vertices;
  const auto finite = [n](const double* values) {
    return std::all_of(values, values + n,
                       [](double v) { return std::isfinite(v); });
  };
  if constexpr (requires { record.x; }) {
    if (n != 3 && n != 4) return false;
    if (!finite(record.x) || !finite(record.y)) return false;
  }
  if constexpr (requires { record.w; }) {
    if (!finite(record.w)) return false;
  } else {
    if (!finite(record.u) || !finite(record.v)) return false;
  }
  return record.id < num_records;
}

/// What a lattice cell store keeps in each slot: a grid cell's id, its
/// lattice id and its corner values (ll, lr, ur, ul) — 40 bytes, so 102
/// cells fit a 4 KB page where 39 CellRecords do. The rectangle follows
/// from the lattice.
struct LatticeSlot {
  CellId id = kInvalidCellId;
  uint32_t lattice_id = 0;
  double w[4] = {0, 0, 0, 0};
};

static_assert(sizeof(LatticeSlot) == 40,
              "LatticeSlot layout is part of the cell-store page format");

/// The slot codec of the grid's CellRecord stores (see RawSlots). The
/// field picks the layout (Field::Lattice), no option does:
///  - explicit: a slot is the 104-byte CellRecord itself (TINs, the
///    explicit-cells adapter, grid snapshots saved before lattice slots);
///  - lattice: a slot is a LatticeSlot, and Decode rebuilds the
///    rectangle with GridLattice::CellRect, the expression
///    GridField::GetCell uses, so a decoded cell equals GetCell bit for
///    bit.
/// Visitors see CellRecords either way.
class CellSlots {
 public:
  /// The explicit layout.
  CellSlots() = default;
  /// The lattice layout over `lattice`.
  explicit CellSlots(const GridLattice& lattice)
      : lattice_(lattice), steps_(lattice.CellSteps()) {}

  /// The layout of a store of `field`'s cells.
  static CellSlots For(const Field& field) {
    const std::optional<GridLattice> lattice = field.Lattice();
    return lattice ? CellSlots(*lattice) : CellSlots();
  }

  /// The lattice of a lattice store; nullopt for the explicit layout.
  const std::optional<GridLattice>& lattice() const { return lattice_; }

  uint32_t size() const {
    return lattice_ ? sizeof(LatticeSlot) : sizeof(CellRecord);
  }

  void Decode(const uint8_t* slot, CellRecord* out) const {
    if (!lattice_) {
      std::memcpy(out, slot, sizeof(CellRecord));
      return;
    }
    LatticeSlot s;
    std::memcpy(&s, slot, sizeof(s));
    *out = Rebuild(s);
  }

  /// Writes `record` into `slot`. In the lattice layout the record must
  /// be a cell of the lattice — the cell its centroid lies in, rebuilt
  /// bit for bit — else InvalidArgument, with nothing written.
  Status Encode(const CellRecord& record, uint8_t* slot) const;

  /// Whether `slot` can be used at all (ValidStoredSlot). A lattice
  /// slot needs an id below `num_records`, a lattice id below cols x
  /// rows and finite samples; an explicit one, ValidStoredRecord.
  bool Valid(const uint8_t* slot, uint64_t num_records) const;

 private:
  /// The cell a lattice slot holds (lattice layout only).
  CellRecord Rebuild(const LatticeSlot& s) const {
    return CellRecord::Quad(s.id, lattice_->CellRect(s.lattice_id, steps_),
                            s.w[0], s.w[1], s.w[2], s.w[3]);
  }

  std::optional<GridLattice> lattice_;
  /// The lattice's CellSteps, computed once per store.
  GridLattice::Steps steps_;
};

/// The codec of a BasicCellStore<Record>: the grid's CellRecord stores
/// pick their layout per store; every other record's slot is its bytes.
template <typename Record>
using StoreSlots = std::conditional_t<std::is_same_v<Record, CellRecord>,
                                      CellSlots, RawSlots<Record>>;

/// Whether a stored slot can be used at all, checked before it is
/// decoded (BasicCellStore::Attach): a raw slot's record passes
/// ValidStoredRecord, a cell slot passes CellSlots::Valid.
template <typename Record>
bool ValidStoredSlot(const RawSlots<Record>& slots, const uint8_t* slot,
                     uint64_t num_records) {
  Record record;
  slots.Decode(slot, &record);
  return ValidStoredRecord(record, num_records);
}

inline bool ValidStoredSlot(const CellSlots& slots, const uint8_t* slot,
                            uint64_t num_records) {
  return slots.Valid(slot, num_records);
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
/// RecordStore<Record> (records()) through the record's slot codec
/// (StoreSlots), which owns every page loop and every decode; the
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
  using Slots = StoreSlots<Record>;
  using Records = RecordStore<Record, Slots>;
  using Key = decltype(StoreKeyOf(std::declval<const Record&>()));
  using ZoneMap = std::conditional_t<std::is_same_v<Key, ValueInterval>,
                                     ScalarZoneMap, BoxZoneMap>;
  using Change = KeyChange<Key>;

  /// Streams records into a new store one slot at a time, in storage
  /// order: Append() exactly `num_records` records, then Finish().
  /// Defined after the class.
  class Appender;

  /// Serializes a grid `field`'s cells into `pool`'s file (CellStore
  /// only) in the field's layout (CellSlots::For), visiting them in the
  /// order given by `order` (order[pos] = field cell id stored at slot
  /// pos). `order` must be a permutation of [0, field.NumCells()); pass
  /// an empty `order` for the identity.
  static StatusOr<BasicCellStore> Build(BufferPool* pool, const Field& field,
                                        const std::vector<CellId>& order) {
    ScopedSpan span("build.store", "build");
    const uint64_t n = field.NumCells();
    span.set_items(n);
    if (!order.empty() && order.size() != n) {
      return Status::InvalidArgument("order size does not match cell count");
    }
    Appender appender(pool, n, Slots::For(field));
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

  /// Re-attaches to a store persisted in `pool`'s file in the `slots`
  /// layout. Scans the records once to rebuild the id -> slot map and
  /// the zone map, reading ahead BufferPool::kReadaheadPages pages per
  /// batch when the pool holds twice that; kCorruption naming the slot of
  /// the first record that fails ValidStoredSlot, and when the stored ids
  /// are not a permutation.
  static StatusOr<BasicCellStore> Attach(BufferPool* pool, PageId first_page,
                                         uint64_t num_records,
                                         const Slots& slots = {}) {
    ScopedSpan span("open.attach", "open");
    span.set_items(num_records);
    StatusOr<Records> records =
        Records::Attach(pool, first_page, num_records, slots);
    if (!records.ok()) return records.status();
    std::vector<uint64_t> position_of(num_records, kNoPosition);
    ZoneMap zones;
    zones.Reserve(num_records);
    Status invalid;
    Record record;
    const auto visit = [&](uint64_t pos, const uint8_t* slot) {
      if (!ValidStoredSlot(slots, slot, num_records)) {
        invalid = Status::Corruption("record store slot " +
                                     std::to_string(pos) +
                                     " holds an invalid record");
        return false;
      }
      slots.Decode(slot, &record);
      position_of[record.id] = pos;
      zones.Append(StoreKeyOf(record));
      return true;
    };
    // A window's pages arrive in one batch read (Prefetch), then the
    // scan fetches them as pool hits; a pool too small to hold a window
    // beside the page being scanned reads page by page.
    const uint64_t per_page = records->records_per_page();
    const uint64_t window_pages =
        pool->capacity() >= 2 * BufferPool::kReadaheadPages
            ? BufferPool::kReadaheadPages
            : 0;
    const uint64_t window = std::max<uint64_t>(window_pages, 1) * per_page;
    for (uint64_t begin = 0; begin < num_records && invalid.ok();
         begin += window) {
      const uint64_t end = std::min(num_records, begin + window);
      if (window_pages > 0) {
        const uint64_t page = begin / per_page;
        FIELDDB_RETURN_IF_ERROR(pool->PrefetchRange(
            first_page + page, (end - 1) / per_page - page + 1));
      }
      FIELDDB_RETURN_IF_ERROR(records->ScanSlots(begin, end, visit));
    }
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
  const Records& records() const { return records_; }
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

  BasicCellStore(Records records, std::vector<uint64_t> position_of,
                 ZoneMap zones)
      : records_(std::move(records)), position_of_(std::move(position_of)),
        zones_(std::move(zones)) {}

  Records records_;
  std::vector<uint64_t> position_of_;
  ZoneMap zones_;
};

template <typename Record>
class BasicCellStore<Record>::Appender {
 public:
  /// Lays the slots out in the `slots` layout (CellStore builds pass
  /// CellSlots::For(field)).
  Appender(BufferPool* pool, uint64_t num_records, const Slots& slots = {})
      : records_(pool, slots), position_of_(num_records, kNoPosition) {
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
    StatusOr<Records> records = records_.Finish();
    if (!records.ok()) return records.status();
    return BasicCellStore(std::move(records).value(), std::move(position_of_),
                          std::move(zones_));
  }

 private:
  RecordStoreAppender<Record, Slots> records_;
  std::vector<uint64_t> position_of_;
  ZoneMap zones_;
};

/// The grid's store.
using CellStore = BasicCellStore<CellRecord>;

}  // namespace fielddb

#endif  // FIELDDB_INDEX_CELL_STORE_H_
