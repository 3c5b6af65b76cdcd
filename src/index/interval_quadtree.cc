#include "index/interval_quadtree.h"

#include <algorithm>
#include <chrono>

#include "index/subfield_maintenance.h"

namespace fielddb {

namespace {

struct QuadWork {
  Rect2 rect;
  std::vector<CellId> cells;
  int depth;
};

// Recursively divides `work` until the interval-size condition holds,
// appending final quadrants' cells to `order` and recording one subfield
// per quadrant.
void Divide(const Field& field, const std::vector<ValueInterval>& intervals,
            const std::vector<Point2>& centroids, QuadWork work,
            double threshold, int max_depth, std::vector<CellId>* order,
            std::vector<Subfield>* subfields) {
  ValueInterval hull = ValueInterval::Empty();
  for (const CellId id : work.cells) hull.Extend(intervals[id]);

  const bool small_enough = hull.Length() <= threshold;
  if (small_enough || work.cells.size() <= 1 || work.depth >= max_depth) {
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
    Divide(field, intervals, centroids, std::move(quad), threshold,
           max_depth, order, subfields);
  }
}

}  // namespace

StatusOr<std::unique_ptr<IntervalQuadtreeIndex>> IntervalQuadtreeIndex::Build(
    BufferPool* pool, const Field& field, const Options& options) {
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
  Divide(field, intervals, centroids, std::move(root), threshold,
         options.max_depth, &order, &subfields);

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
  return std::unique_ptr<IntervalQuadtreeIndex>(new IntervalQuadtreeIndex(
      std::move(store).value(), std::move(tree).value(),
      std::move(subfields), info));
}

Status IntervalQuadtreeIndex::UpdateCellValues(
    CellId id, const std::vector<double>& values) {
  CellStore::Change change;
  FIELDDB_RETURN_IF_ERROR(store_.Update(id, SetSamples(values), &change));
  return RefreshSubfieldAfterUpdate(store_, change, &tree_, &subfields_,
                                    RunEntry{});
}

Status IntervalQuadtreeIndex::FilterCandidateRanges(
    const ValueInterval& query, std::vector<PosRange>* ranges) const {
  // Like I-Hilbert: qualifying subfields are [start, end) store runs.
  return SearchRunEntries(tree_, BoxFromInterval(query), ranges);
}

}  // namespace fielddb
