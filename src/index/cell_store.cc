#include "index/cell_store.h"

#include <string>

namespace fielddb {

namespace {

constexpr uint64_t kNoPosition = ~uint64_t{0};

}  // namespace

CellStore::Appender::Appender(BufferPool* pool, uint64_t num_cells)
    : records_(pool), position_of_(num_cells, kNoPosition) {
  zones_.Reserve(num_cells);
}

Status CellStore::Appender::Append(const CellRecord& record) {
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
  zones_.Append(record.Interval());
  return Status::OK();
}

StatusOr<CellStore> CellStore::Appender::Finish() {
  if (records_.size() != position_of_.size()) {
    return Status::InvalidArgument("appended fewer cells than declared");
  }
  StatusOr<RecordStore<CellRecord>> records = records_.Finish();
  if (!records.ok()) return records.status();
  return CellStore(std::move(records).value(), std::move(position_of_),
                   std::move(zones_));
}

StatusOr<CellStore> CellStore::Build(BufferPool* pool, const Field& field,
                                     const std::vector<CellId>& order) {
  const uint64_t n = field.NumCells();
  if (!order.empty() && order.size() != n) {
    return Status::InvalidArgument("order size does not match cell count");
  }
  Appender appender(pool, n);
  for (uint64_t pos = 0; pos < n; ++pos) {
    const CellId cell_id = order.empty() ? static_cast<CellId>(pos)
                                         : order[pos];
    if (cell_id >= n) {
      return Status::InvalidArgument("order is not a permutation");
    }
    FIELDDB_RETURN_IF_ERROR(appender.Append(field.GetCell(cell_id)));
  }
  return appender.Finish();
}

StatusOr<CellStore> CellStore::Attach(BufferPool* pool, PageId first_page,
                                      uint64_t num_cells) {
  StatusOr<RecordStore<CellRecord>> records =
      RecordStore<CellRecord>::Attach(pool, first_page, num_cells);
  if (!records.ok()) return records.status();
  // One pass rebuilds both derived structures: the cell-id -> position
  // map and the zone map.
  std::vector<uint64_t> position_of;
  ScalarZoneMap zones;
  zones.Reserve(num_cells);
  FIELDDB_RETURN_IF_ERROR(MapRecordIds(
      *records, &position_of, [&](uint64_t, const CellRecord& cell) {
        zones.Append(cell.Interval());
      }));
  return CellStore(std::move(records).value(), std::move(position_of),
                   std::move(zones));
}

Status CellStore::UpdateValues(uint64_t pos,
                               const std::vector<double>& values,
                               ValueInterval* old_iv, ValueInterval* new_iv) {
  FIELDDB_RETURN_IF_ERROR(
      records_.Update(pos, [&](CellRecord* record) -> Status {
        if (values.size() != record->num_vertices) {
          return Status::InvalidArgument(
              "expected " + std::to_string(record->num_vertices) +
              " values, got " + std::to_string(values.size()));
        }
        *old_iv = record->Interval();
        for (uint32_t i = 0; i < record->num_vertices; ++i) {
          record->w[i] = values[i];
        }
        *new_iv = record->Interval();
        return Status::OK();
      }));
  zones_.Set(pos, *new_iv);
  return Status::OK();
}

}  // namespace fielddb
