#include "index/value_index.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "core/ext_sort.h"
#include "index/subfield_maintenance.h"
#include "obs/trace.h"

namespace fielddb {

const char* IndexMethodName(IndexMethod method) {
  switch (method) {
    case IndexMethod::kLinearScan:
      return "LinearScan";
    case IndexMethod::kIAll:
      return "I-All";
    case IndexMethod::kIHilbert:
      return "I-Hilbert";
    case IndexMethod::kIntervalQuadtree:
      return "I-Quadtree";
    case IndexMethod::kRowIp:
      return "Row-IP";
  }
  return "unknown";
}

namespace {

/// Quadtree division stops at this depth regardless of the threshold (a
/// 2^16 x 2^16 finest grid).
constexpr int kQuadtreeMaxDepth = 16;

StatusOr<std::unique_ptr<ValueIndex>> BuildLinearScan(BufferPool* pool,
                                                      const Field& field) {
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<CellStore> store = CellStore::Build(pool, field, {});
  if (!store.ok()) return store.status();
  IndexBuildInfo info;
  info.num_cells = store->size();
  info.store_pages = store->num_pages();
  info.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return ValueIndex::Attach(IndexMethod::kLinearScan,
                            std::move(store).value(), std::nullopt, {}, info);
}

StatusOr<std::unique_ptr<ValueIndex>> BuildIAll(BufferPool* pool,
                                                const Field& field) {
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<CellStore> store = CellStore::Build(pool, field, {});
  if (!store.ok()) return store.status();

  const uint64_t n = store->size();
  // Sort entries by interval midpoint so packed leaves cover tight
  // value ranges.
  std::vector<RTreeEntry<1>> entries(n);
  for (uint64_t pos = 0; pos < n; ++pos) {
    const ValueInterval iv = field.GetCell(static_cast<CellId>(pos))
                                 .Interval();
    entries[pos].box = BoxFromInterval(iv);
    entries[pos].a = pos;
  }
  {
    ScopedSpan span("build.sort", "build");
    span.set_items(n);
    std::sort(entries.begin(), entries.end(),
              [](const RTreeEntry<1>& x, const RTreeEntry<1>& y) {
                const double mx = x.box.lo[0] + x.box.hi[0];
                const double my = y.box.lo[0] + y.box.hi[0];
                return mx < my || (mx == my && x.a < y.a);
              });
  }
  StatusOr<RStarTree<1>> tree = RStarTree<1>::BulkLoad(pool, entries);
  if (!tree.ok()) return tree.status();

  IndexBuildInfo info;
  info.num_cells = n;
  info.num_index_entries = tree->size();
  info.tree_height = tree->height();
  info.tree_nodes = tree->num_nodes();
  info.store_pages = store->num_pages();
  info.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return ValueIndex::Attach(IndexMethod::kIAll, std::move(store).value(),
                            std::move(tree).value(), {}, info);
}

StatusOr<std::unique_ptr<ValueIndex>> BuildIHilbert(
    BufferPool* pool, const Field& field, const IHilbertOptions& options,
    size_t build_memory_budget_bytes) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, kCurveOrder);
  if (curve == nullptr) {
    return Status::InvalidArgument("unknown curve type");
  }

  // The linearization sort runs through the external sorter: budget 0
  // is one in-RAM sort, a budget spills runs of (curve key, cell_id)
  // to temp files, and either way the merge streams straight into the
  // store appender. The merge's (key, insertion-seq) tie-break is the
  // (key, id) order because ids are added in order, so every budget
  // builds the same bytes.
  const CellId n = field.NumCells();
  const Rect2 domain = field.Domain();
  ExternalKeyRecordSorter<CellId> sorter(build_memory_budget_bytes);
  sorter.Reserve(n);
  {
    ScopedSpan span("build.keys", "build");
    span.set_items(n);
    for (CellId id = 0; id < n; ++id) {
      FIELDDB_RETURN_IF_ERROR(sorter.Add(
          CellCurveKey(*curve, domain, field.GetCell(id).Centroid()), id));
    }
  }
  CellStore::Appender appender(pool, n, CellSlots::For(field));
  {
    // The merge sorts what is still buffered (build.sort) and streams
    // the cells into the store.
    ScopedSpan span("build.store", "build");
    span.set_items(n);
    FIELDDB_RETURN_IF_ERROR(
        sorter.Merge([&](uint64_t, const CellId& id) -> Status {
          return appender.Append(field.GetCell(id));
        }));
  }
  StatusOr<CellStore> store = appender.Finish();
  if (!store.ok()) return store.status();
  std::vector<Subfield> subfields =
      PartitionStore(*store, field.ValueRange(), options.cost);

  StatusOr<RStarTree<1>> tree =
      RStarTree<1>::BulkLoad(pool, SubfieldEntries(subfields, RunEntry{}));
  if (!tree.ok()) return tree.status();

  IndexBuildInfo info;
  info.num_cells = store->size();
  info.num_index_entries = subfields.size();
  info.num_subfields = subfields.size();
  info.tree_height = tree->height();
  info.tree_nodes = tree->num_nodes();
  info.store_pages = store->num_pages();
  info.ext_spill_runs = sorter.spill_runs();
  info.ext_peak_buffered_bytes = sorter.peak_buffered_bytes();
  info.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return ValueIndex::Attach(IndexMethod::kIHilbert, std::move(store).value(),
                            std::move(tree).value(), std::move(subfields),
                            info);
}

struct QuadWork {
  Rect2 rect;
  std::vector<CellId> cells;
  int depth;
};

// Recursively divides `work` until the interval-size condition holds,
// appending final quadrants' cells to `order` and recording one subfield
// per quadrant.
void Divide(const std::vector<ValueInterval>& intervals,
            const std::vector<Point2>& centroids, QuadWork work,
            double threshold, std::vector<CellId>* order,
            std::vector<Subfield>* subfields) {
  ValueInterval hull = ValueInterval::Empty();
  for (const CellId id : work.cells) hull.Extend(intervals[id]);

  const bool small_enough = hull.Length() <= threshold;
  if (small_enough || work.cells.size() <= 1 ||
      work.depth >= kQuadtreeMaxDepth) {
    if (work.cells.empty()) return;
    Subfield sf;
    sf.start = order->size();
    double si = 0.0;
    for (const CellId id : work.cells) {
      order->push_back(id);
      si += intervals[id].PaperSize();
    }
    sf.end = order->size();
    sf.interval = hull;
    sf.sum_interval_sizes = si;
    subfields->push_back(sf);
    return;
  }

  const Point2 mid = work.rect.Center();
  std::array<QuadWork, 4> quads;
  for (int q = 0; q < 4; ++q) {
    const bool east = (q & 1) != 0;
    const bool north = (q & 2) != 0;
    quads[q].rect = Rect2{{east ? mid.x : work.rect.lo.x,
                           north ? mid.y : work.rect.lo.y},
                          {east ? work.rect.hi.x : mid.x,
                           north ? work.rect.hi.y : mid.y}};
    quads[q].depth = work.depth + 1;
  }
  for (const CellId id : work.cells) {
    const Point2 c = centroids[id];
    const int q = (c.x >= mid.x ? 1 : 0) | (c.y >= mid.y ? 2 : 0);
    quads[q].cells.push_back(id);
  }
  work.cells.clear();
  work.cells.shrink_to_fit();
  for (QuadWork& quad : quads) {
    Divide(intervals, centroids, std::move(quad), threshold, order,
           subfields);
  }
}

StatusOr<std::unique_ptr<ValueIndex>> BuildQuadtree(
    BufferPool* pool, const Field& field,
    const IntervalQuadtreeOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  if (options.threshold_fraction <= 0.0) {
    return Status::InvalidArgument("threshold fraction must be positive");
  }

  const CellId n = field.NumCells();
  std::vector<ValueInterval> intervals(n);
  std::vector<Point2> centroids(n);
  ValueInterval range = ValueInterval::Empty();
  for (CellId id = 0; id < n; ++id) {
    const CellRecord cell = field.GetCell(id);
    intervals[id] = cell.Interval();
    centroids[id] = cell.Centroid();
    range.Extend(intervals[id]);
  }
  // Fractional threshold -> an absolute interval-length bound. (Length,
  // not the paper's size = length + 1: the +1 exists to keep the cost
  // function's denominator positive and would swamp a fractional
  // threshold on normalized value ranges.)
  const double threshold = options.threshold_fraction * range.Length();

  QuadWork root;
  root.rect = field.Domain();
  root.depth = 0;
  root.cells.resize(n);
  for (CellId id = 0; id < n; ++id) root.cells[id] = id;

  std::vector<CellId> order;
  order.reserve(n);
  std::vector<Subfield> subfields;
  {
    ScopedSpan span("build.partition", "build");
    span.set_items(n);
    Divide(intervals, centroids, std::move(root), threshold, &order,
           &subfields);
  }

  StatusOr<CellStore> store = CellStore::Build(pool, field, order);
  if (!store.ok()) return store.status();

  StatusOr<RStarTree<1>> tree =
      RStarTree<1>::BulkLoad(pool, SubfieldEntries(subfields, RunEntry{}));
  if (!tree.ok()) return tree.status();

  IndexBuildInfo info;
  info.num_cells = n;
  info.num_index_entries = subfields.size();
  info.num_subfields = subfields.size();
  info.tree_height = tree->height();
  info.tree_nodes = tree->num_nodes();
  info.store_pages = store->num_pages();
  info.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return ValueIndex::Attach(IndexMethod::kIntervalQuadtree,
                            std::move(store).value(), std::move(tree).value(),
                            std::move(subfields), info);
}

}  // namespace

StatusOr<std::unique_ptr<ValueIndex>> ValueIndex::Build(
    IndexMethod method, BufferPool* pool, const Field& field,
    const IHilbertOptions& ihilbert, const IntervalQuadtreeOptions& iqt,
    size_t build_memory_budget_bytes) {
  switch (method) {
    case IndexMethod::kLinearScan:
      return BuildLinearScan(pool, field);
    case IndexMethod::kIAll:
      return BuildIAll(pool, field);
    case IndexMethod::kIHilbert:
      return BuildIHilbert(pool, field, ihilbert, build_memory_budget_bytes);
    case IndexMethod::kIntervalQuadtree:
      return BuildQuadtree(pool, field, iqt);
    case IndexMethod::kRowIp:
      return BuildRowIp(pool, field);
  }
  return Status::InvalidArgument("unknown index method");
}

std::unique_ptr<ValueIndex> ValueIndex::Attach(
    IndexMethod method, CellStore store, std::optional<RStarTree<1>> tree,
    std::vector<Subfield> subfields, const IndexBuildInfo& info) {
  if (method == IndexMethod::kLinearScan) tree.reset();
  return std::unique_ptr<ValueIndex>(new ValueIndex(
      method, std::move(store), std::move(tree), std::move(subfields), info));
}

StatusOr<std::unique_ptr<ValueIndex>> ValueIndex::BuildRowIp(
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
            "cells are not row-major; Row-IP needs a grid field");
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
  std::unique_ptr<ValueIndex> index =
      Attach(IndexMethod::kRowIp, std::move(store).value(), std::nullopt, {},
             info);
  index->directory_.emplace(std::move(dir_store).value());
  index->rows_ = std::move(rows);
  return index;
}

Status ValueIndex::FilterCandidateRanges(const ValueInterval& query,
                                         std::vector<PosRange>* ranges) const {
  switch (method_) {
    case IndexMethod::kLinearScan:
      // The scan baseline's filter step is the zone-map sweep itself:
      // one SIMD pass over the SoA interval arrays, no page I/O, no
      // record deserialization. (LinearScan *queries* run the fused
      // scan, filter and estimate in one pass over the store, which
      // reads the pages holding a zone match — or every store page, as
      // the paper's cost model requires, when the database was built
      // with read_whole_runs; see FieldEngine::BandScan.)
      store_.zone_map().FilterRanges(query, ranges);
      return Status::OK();
    case IndexMethod::kIAll: {
      // One tree entry per cell, so the search yields individual
      // positions; sort them ascending (sequential store fetches) and
      // merge contiguous neighbors into runs. An entry's box is its
      // cell's interval (Replace keeps it so), so an entry that
      // disagrees with the zone map is corrupt.
      std::vector<uint64_t> positions;
      bool agrees = true;
      FIELDDB_RETURN_IF_ERROR(
          tree_->Search(BoxFromInterval(query), [&](const RTreeEntry<1>& e) {
            agrees = e.a < store_.size() &&
                     e.box == BoxFromInterval(store_.zone_map().At(e.a));
            if (agrees) positions.push_back(e.a);
            return agrees;
          }));
      if (!agrees) {
        return Status::Corruption("value tree entry disagrees with its cell");
      }
      std::sort(positions.begin(), positions.end());
      for (const uint64_t pos : positions) AppendPosition(ranges, pos);
      return Status::OK();
    }
    case IndexMethod::kIHilbert:
    case IndexMethod::kIntervalQuadtree:
      // Each qualifying subfield IS a [start, end) run of store slots.
      return SearchRunEntries(*tree_, subfields_, BoxFromInterval(query),
                              ranges);
    case IndexMethod::kRowIp:
      return FilterRows(query, ranges);
  }
  return Status::Internal("unknown index method");
}

Status ValueIndex::UpdateCellValues(CellId id,
                                    const std::vector<double>& values) {
  CellStore::Change change;
  FIELDDB_RETURN_IF_ERROR(store_.Update(id, SetSamples(values), &change));
  switch (method_) {
    case IndexMethod::kLinearScan:
      // No index structure to maintain: the scan sees the new values.
      return Status::OK();
    case IndexMethod::kIAll:
      if (!change.changed()) return Status::OK();
      return tree_->Replace(BoxFromInterval(change.old_key), change.pos, 0,
                            BoxFromInterval(change.new_key));
    case IndexMethod::kIHilbert:
    case IndexMethod::kIntervalQuadtree:
      return RefreshSubfieldAfterUpdate(store_, change, &*tree_, &subfields_,
                                        RunEntry{});
    case IndexMethod::kRowIp:
      if (!change.changed()) return Status::OK();
      return UpdateRow(change);
  }
  return Status::Internal("unknown index method");
}

Status ValueIndex::FilterRows(const ValueInterval& query,
                              std::vector<PosRange>* ranges) const {
  std::vector<uint64_t> positions;
  for (const Row& row : rows_) {
    // Scan this row's directory in min order; stop once min > query.max.
    // (The real IP-index binary-searches to the first anchor; our paged
    // scan touches the same directory pages a search would, since the
    // entries with min <= query.max form exactly the scanned prefix.)
    FIELDDB_RETURN_IF_ERROR(directory_->Scan(
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

Status ValueIndex::UpdateRow(const CellStore::Change& change) {
  const uint64_t pos = change.pos;

  // Find the row's directory entry for this position and re-sort the
  // row (rows are short; the real IP-index does an analogous local fix).
  for (const Row& row : rows_) {
    bool found = false;
    uint64_t slot = 0;
    DirEntry entry;
    FIELDDB_RETURN_IF_ERROR(directory_->Scan(
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
    FIELDDB_RETURN_IF_ERROR(directory_->Put(slot, entry));
    // Restore the row's min-order by bubbling the changed entry.
    std::vector<DirEntry> row_entries;
    FIELDDB_RETURN_IF_ERROR(directory_->Scan(
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
          directory_->Put(row.dir_start + i, row_entries[i]));
    }
    return Status::OK();
  }
  return Status::Internal("directory entry not found");
}

}  // namespace fielddb
