#include "index/i_hilbert.h"

#include <algorithm>
#include <chrono>

#include "core/ext_sort.h"
#include "index/subfield_maintenance.h"

namespace fielddb {

std::vector<CellId> LinearizeCells(const Field& field,
                                   const SpaceFillingCurve& curve) {
  const CellId n = field.NumCells();
  const Rect2 domain = field.Domain();
  const double w = std::max(domain.Width(), kGeomEpsilon);
  const double h = std::max(domain.Height(), kGeomEpsilon);

  std::vector<std::pair<uint64_t, CellId>> keyed(n);
  for (CellId id = 0; id < n; ++id) {
    const Point2 c = field.GetCell(id).Centroid();
    const double ux = (c.x - domain.lo.x) / w;
    const double uy = (c.y - domain.lo.y) / h;
    keyed[id] = {curve.EncodeUnit(ux, uy), id};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<CellId> order(n);
  for (CellId pos = 0; pos < n; ++pos) order[pos] = keyed[pos].second;
  return order;
}

StatusOr<std::unique_ptr<IHilbertIndex>> IHilbertIndex::Build(
    BufferPool* pool, const Field& field, const Options& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, options.curve_order);
  if (curve == nullptr) {
    return Status::InvalidArgument("unknown curve type");
  }

  const ValueInterval range = field.ValueRange();
  StatusOr<CellStore> store = Status::Internal("store not built");
  std::vector<Subfield> subfields;
  uint64_t ext_spill_runs = 0;
  uint64_t ext_peak_buffered_bytes = 0;

  if (options.build_memory_budget_bytes > 0) {
    // Bounded-memory build: the linearization sort spills runs of
    // (hilbert_key, cell_id) to temp files and the k-way merge streams
    // straight into the store appender and the greedy subfield costing
    // — the keyed working set never exceeds the budget. The merge's
    // (key, insertion-seq) tie-break equals the in-RAM sort's (key, id)
    // tie-break because ids are added in order, so the index built here
    // is byte-identical to the std::sort path's.
    const CellId n = field.NumCells();
    const Rect2 domain = field.Domain();
    const double w = std::max(domain.Width(), kGeomEpsilon);
    const double h = std::max(domain.Height(), kGeomEpsilon);
    ExternalKeyRecordSorter<CellId> sorter(options.build_memory_budget_bytes);
    for (CellId id = 0; id < n; ++id) {
      const Point2 c = field.GetCell(id).Centroid();
      const double ux = (c.x - domain.lo.x) / w;
      const double uy = (c.y - domain.lo.y) / h;
      FIELDDB_RETURN_IF_ERROR(sorter.Add(curve->EncodeUnit(ux, uy), id));
    }
    CellStore::Appender appender(pool, n);
    SubfieldStreamBuilder costing(range, options.cost);
    FIELDDB_RETURN_IF_ERROR(
        sorter.Merge([&](uint64_t, const CellId& id) -> Status {
          const CellRecord record = field.GetCell(id);
          FIELDDB_RETURN_IF_ERROR(appender.Append(record));
          costing.Add(record.Interval());
          return Status::OK();
        }));
    store = appender.Finish();
    if (!store.ok()) return store.status();
    subfields = costing.Finish();
    ext_spill_runs = sorter.spill_runs();
    ext_peak_buffered_bytes = sorter.peak_buffered_bytes();
  } else {
    const std::vector<CellId> order = LinearizeCells(field, *curve);
    store = CellStore::Build(pool, field, order);
    if (!store.ok()) return store.status();

    // Intervals in storage order feed the greedy grouping.
    std::vector<ValueInterval> intervals(order.size());
    for (uint64_t pos = 0; pos < order.size(); ++pos) {
      intervals[pos] = field.GetCell(order[pos]).Interval();
    }
    subfields = BuildSubfields(intervals, range, options.cost);
  }

  StatusOr<RStarTree<1>> tree = [&]() -> StatusOr<RStarTree<1>> {
    if (options.bulk_load) {
      // Subfields are already in Hilbert order, which is exactly the
      // packing order Kamel & Faloutsos [14] prescribe.
      std::vector<RTreeEntry<1>> entries(subfields.size());
      for (size_t i = 0; i < subfields.size(); ++i) {
        entries[i].box = BoxFromInterval(subfields[i].interval);
        entries[i].a = subfields[i].start;
        entries[i].b = subfields[i].end;
      }
      return RStarTree<1>::BulkLoad(pool, entries, options.rstar);
    }
    StatusOr<RStarTree<1>> t = RStarTree<1>::Create(pool, options.rstar);
    if (!t.ok()) return t.status();
    for (const Subfield& sf : subfields) {
      FIELDDB_RETURN_IF_ERROR(
          t->Insert(BoxFromInterval(sf.interval), sf.start, sf.end));
    }
    return t;
  }();
  if (!tree.ok()) return tree.status();

  IndexBuildInfo info;
  info.num_cells = store->size();
  info.num_index_entries = subfields.size();
  info.num_subfields = subfields.size();
  info.tree_height = tree->height();
  info.tree_nodes = tree->num_nodes();
  info.store_pages = store->num_pages();
  info.ext_spill_runs = ext_spill_runs;
  info.ext_peak_buffered_bytes = ext_peak_buffered_bytes;
  info.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return std::unique_ptr<IHilbertIndex>(
      new IHilbertIndex(std::move(store).value(), std::move(tree).value(),
                        std::move(subfields), info));
}

Status IHilbertIndex::UpdateCellValues(CellId id,
                                       const std::vector<double>& values) {
  if (id >= store_.size()) {
    return Status::OutOfRange("no such cell");
  }
  const uint64_t pos = store_.PositionOf(id);
  ValueInterval old_iv, new_iv;
  FIELDDB_RETURN_IF_ERROR(
      store_.UpdateValues(pos, values, &old_iv, &new_iv));
  if (new_iv != old_iv) {
    FIELDDB_RETURN_IF_ERROR(
        RefreshSubfieldAfterUpdate(store_.records(), &tree_, &subfields_,
                                   pos));
  }
  return Status::OK();
}

Status IHilbertIndex::FilterCandidateRanges(
    const ValueInterval& query, std::vector<PosRange>* ranges) const {
  // The filter step is naturally range-shaped here: each qualifying
  // subfield IS a [start, end) run of store slots. Collect, sort, and
  // merge overlaps/adjacencies — O(subfields touched), independent of
  // how many cells the runs cover.
  std::vector<PosRange> raw;
  FIELDDB_RETURN_IF_ERROR(
      tree_.Search(BoxFromInterval(query), [&](const RTreeEntry<1>& e) {
        raw.push_back(PosRange{e.a, e.b});
        return true;
      }));
  MergeRuns(&raw, ranges);
  return Status::OK();
}

Status IHilbertIndex::FilterSubfields(
    const ValueInterval& query, std::vector<uint32_t>* subfield_ids) const {
  // Subfields are contiguous and ordered, so the id is recoverable from
  // the start position by binary search.
  return tree_.Search(BoxFromInterval(query), [&](const RTreeEntry<1>& e) {
    const auto it = std::lower_bound(
        subfields_.begin(), subfields_.end(), e.a,
        [](const Subfield& sf, uint64_t start) { return sf.start < start; });
    if (it != subfields_.end() && it->start == e.a) {
      subfield_ids->push_back(
          static_cast<uint32_t>(it - subfields_.begin()));
    }
    return true;
  });
}

}  // namespace fielddb
