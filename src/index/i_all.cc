#include "index/i_all.h"

#include <algorithm>
#include <chrono>


namespace fielddb {

StatusOr<std::unique_ptr<IAllIndex>> IAllIndex::Build(
    BufferPool* pool, const Field& field, const Options& options) {
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<CellStore> store = CellStore::Build(pool, field, {});
  if (!store.ok()) return store.status();

  const uint64_t n = store->size();
  StatusOr<RStarTree<1>> tree = [&]() -> StatusOr<RStarTree<1>> {
    if (options.bulk_load) {
      // Sort entries by interval midpoint so packed leaves cover tight
      // value ranges.
      std::vector<RTreeEntry<1>> entries(n);
      for (uint64_t pos = 0; pos < n; ++pos) {
        const ValueInterval iv = field.GetCell(static_cast<CellId>(pos))
                                     .Interval();
        entries[pos].box = BoxFromInterval(iv);
        entries[pos].a = pos;
      }
      std::sort(entries.begin(), entries.end(),
                [](const RTreeEntry<1>& x, const RTreeEntry<1>& y) {
                  const double mx = x.box.lo[0] + x.box.hi[0];
                  const double my = y.box.lo[0] + y.box.hi[0];
                  return mx < my || (mx == my && x.a < y.a);
                });
      return RStarTree<1>::BulkLoad(pool, entries, options.rstar);
    }
    StatusOr<RStarTree<1>> t = RStarTree<1>::Create(pool, options.rstar);
    if (!t.ok()) return t.status();
    for (uint64_t pos = 0; pos < n; ++pos) {
      const ValueInterval iv = field.GetCell(static_cast<CellId>(pos))
                                   .Interval();
      FIELDDB_RETURN_IF_ERROR(t->Insert(BoxFromInterval(iv), pos));
    }
    return t;
  }();
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
  return std::unique_ptr<IAllIndex>(new IAllIndex(
      std::move(store).value(), std::move(tree).value(), info));
}

Status IAllIndex::UpdateCellValues(CellId id,
                                   const std::vector<double>& values) {
  CellStore::Change change;
  FIELDDB_RETURN_IF_ERROR(store_.Update(id, SetSamples(values), &change));
  if (change.changed()) {
    FIELDDB_RETURN_IF_ERROR(
        tree_.Delete(BoxFromInterval(change.old_key), change.pos));
    FIELDDB_RETURN_IF_ERROR(
        tree_.Insert(BoxFromInterval(change.new_key), change.pos));
  }
  return Status::OK();
}

Status IAllIndex::FilterCandidateRanges(
    const ValueInterval& query, std::vector<PosRange>* ranges) const {
  // One tree entry per cell, so the search yields individual positions;
  // sort them ascending (sequential store fetches) and merge contiguous
  // neighbors into runs.
  std::vector<uint64_t> positions;
  FIELDDB_RETURN_IF_ERROR(
      tree_.Search(BoxFromInterval(query), [&](const RTreeEntry<1>& e) {
        positions.push_back(e.a);
        return true;
      }));
  std::sort(positions.begin(), positions.end());
  for (const uint64_t pos : positions) AppendPosition(ranges, pos);
  return Status::OK();
}

}  // namespace fielddb
