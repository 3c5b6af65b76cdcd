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

  // The linearization sort runs through the external sorter: budget 0
  // is one in-RAM sort, a budget spills runs of (hilbert_key, cell_id)
  // to temp files, and either way the merge streams straight into the
  // store appender. The merge's (key, insertion-seq) tie-break equals
  // LinearizeCells's (key, id) order because ids are added in order, so
  // every budget builds the same bytes.
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
  CellStore::Appender appender(pool, n, CellSlots::For(field));
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const CellId& id) -> Status {
        return appender.Append(field.GetCell(id));
      }));
  StatusOr<CellStore> store = appender.Finish();
  if (!store.ok()) return store.status();
  std::vector<Subfield> subfields =
      PartitionStore(*store, field.ValueRange(), options.cost);

  StatusOr<RStarTree<1>> tree =
      BuildSubfieldTree(pool, SubfieldEntries(subfields, RunEntry{}),
                        options.rstar, options.bulk_load);
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
  return std::unique_ptr<IHilbertIndex>(
      new IHilbertIndex(std::move(store).value(), std::move(tree).value(),
                        std::move(subfields), info));
}

Status IHilbertIndex::UpdateCellValues(CellId id,
                                       const std::vector<double>& values) {
  CellStore::Change change;
  FIELDDB_RETURN_IF_ERROR(store_.Update(id, SetSamples(values), &change));
  return RefreshSubfieldAfterUpdate(store_, change, &tree_, &subfields_,
                                    RunEntry{});
}

Status IHilbertIndex::FilterCandidateRanges(
    const ValueInterval& query, std::vector<PosRange>* ranges) const {
  // Each qualifying subfield IS a [start, end) run of store slots.
  return SearchRunEntries(tree_, BoxFromInterval(query), ranges);
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
