#include "index/row_ip_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>


namespace fielddb {

StatusOr<std::unique_ptr<RowIpIndex>> RowIpIndex::Build(
    BufferPool* pool, const Field& field) {
  const auto t0 = std::chrono::steady_clock::now();
  const CellId n = field.NumCells();
  if (n == 0) {
    return Status::InvalidArgument("empty field");
  }

  // Infer the row structure from cell geometry: native order must be
  // row-major with constant per-row lower-y.
  std::vector<std::pair<uint64_t, uint64_t>> row_ranges;  // cell id spans
  double current_y = field.GetCell(0).Bounds().lo.y;
  uint64_t row_start = 0;
  for (CellId id = 1; id < n; ++id) {
    const double y = field.GetCell(id).Bounds().lo.y;
    if (std::abs(y - current_y) > kGeomEpsilon) {
      if (y < current_y) {
        return Status::InvalidArgument(
            "cells are not row-major; RowIpIndex needs a grid field");
      }
      row_ranges.emplace_back(row_start, id);
      row_start = id;
      current_y = y;
    }
  }
  row_ranges.emplace_back(row_start, n);
  if (row_ranges.size() < 2) {
    return Status::InvalidArgument("field has a single row");
  }

  // Cells stored in native (row-major) order: position == cell id.
  StatusOr<CellStore> store = CellStore::Build(pool, field, {});
  if (!store.ok()) return store.status();

  // Per-row directories, concatenated into one record store.
  std::vector<DirEntry> directory;
  directory.reserve(n);
  std::vector<Row> rows;
  rows.reserve(row_ranges.size());
  for (const auto& [start, end] : row_ranges) {
    Row row;
    row.dir_start = directory.size();
    for (uint64_t id = start; id < end; ++id) {
      const ValueInterval iv = field.GetCell(static_cast<CellId>(id))
                                   .Interval();
      directory.push_back(DirEntry{iv.min, iv.max, id});
    }
    std::sort(directory.begin() + row.dir_start, directory.end(),
              [](const DirEntry& a, const DirEntry& b) {
                return a.min < b.min;
              });
    row.dir_end = directory.size();
    rows.push_back(row);
  }
  StatusOr<RecordStore<DirEntry>> dir_store =
      RecordStore<DirEntry>::Build(pool, directory);
  if (!dir_store.ok()) return dir_store.status();

  IndexBuildInfo info;
  info.num_cells = n;
  info.num_index_entries = directory.size();
  info.store_pages = store->num_pages() + dir_store->num_pages();
  info.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return std::unique_ptr<RowIpIndex>(
      new RowIpIndex(std::move(store).value(),
                     std::move(dir_store).value(), std::move(rows), info));
}

Status RowIpIndex::FilterCandidateRanges(
    const ValueInterval& query, std::vector<PosRange>* ranges) const {
  std::vector<uint64_t> positions;
  for (const Row& row : rows_) {
    // Scan this row's directory in min order; stop once min > query.max.
    // (The real IP-index binary-searches to the first anchor; our paged
    // scan touches the same directory pages a search would, since the
    // entries with min <= query.max form exactly the scanned prefix.)
    FIELDDB_RETURN_IF_ERROR(directory_.Scan(
        row.dir_start, row.dir_end,
        [&](uint64_t, const DirEntry& entry) {
          if (entry.min > query.max) return false;
          if (entry.max >= query.min) {
            positions.push_back(entry.position);
          }
          return true;
        }));
  }
  // Ascending merged runs; within a row candidates are often contiguous,
  // so the run list stays near the access-region count of the paper.
  std::sort(positions.begin(), positions.end());
  for (const uint64_t pos : positions) AppendPosition(ranges, pos);
  return Status::OK();
}

Status RowIpIndex::UpdateCellValues(CellId id,
                                    const std::vector<double>& values) {
  CellStore::Change change;
  FIELDDB_RETURN_IF_ERROR(store_.Update(id, SetSamples(values), &change));
  if (!change.changed()) return Status::OK();
  const uint64_t pos = change.pos;

  // Find the row's directory entry for this position and re-sort the
  // row (rows are short; the real IP-index does an analogous local fix).
  for (const Row& row : rows_) {
    bool found = false;
    uint64_t slot = 0;
    DirEntry entry;
    FIELDDB_RETURN_IF_ERROR(directory_.Scan(
        row.dir_start, row.dir_end, [&](uint64_t s, const DirEntry& e) {
          if (e.position == pos) {
            found = true;
            slot = s;
            entry = e;
            return false;
          }
          return true;
        }));
    if (!found) continue;
    entry.min = change.new_key.min;
    entry.max = change.new_key.max;
    FIELDDB_RETURN_IF_ERROR(directory_.Put(slot, entry));
    // Restore the row's min-order by bubbling the changed entry.
    std::vector<DirEntry> row_entries;
    FIELDDB_RETURN_IF_ERROR(directory_.Scan(
        row.dir_start, row.dir_end, [&](uint64_t, const DirEntry& e) {
          row_entries.push_back(e);
          return true;
        }));
    std::sort(row_entries.begin(), row_entries.end(),
              [](const DirEntry& a, const DirEntry& b) {
                return a.min < b.min;
              });
    for (size_t i = 0; i < row_entries.size(); ++i) {
      FIELDDB_RETURN_IF_ERROR(
          directory_.Put(row.dir_start + i, row_entries[i]));
    }
    return Status::OK();
  }
  return Status::Internal("directory entry not found");
}

}  // namespace fielddb
