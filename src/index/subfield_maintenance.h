#ifndef FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_
#define FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/status.h"
#include "index/subfield.h"
#include "rtree/box.h"
#include "rtree/rstar_tree.h"
#include "storage/record_store.h"

namespace fielddb {

/// Whether `subfields` tile the store [0, num_cells): starts run in order
/// from 0, each equal to the previous end, and the last end is
/// num_cells. The builders always produce a tiling and
/// SubfieldContaining relies on it, so every catalog reader rejects a
/// subfield table that fails this check. Works for any subfield type
/// with `start`/`end` (Subfield, VectorSubfield).
template <typename S>
bool TilesStore(const std::vector<S>& subfields, uint64_t num_cells) {
  uint64_t next = 0;
  for (const S& sf : subfields) {
    if (sf.start != next || sf.end < sf.start) return false;
    next = sf.end;
  }
  return next == num_cells;
}

/// Index of the subfield whose [start, end) range contains store
/// position `pos`. `subfields` must tile the store (see TilesStore).
template <typename S>
size_t SubfieldContaining(const std::vector<S>& subfields, uint64_t pos) {
  // First subfield whose end exceeds pos; the partition is contiguous,
  // so that subfield's start is <= pos.
  const auto it = std::upper_bound(
      subfields.begin(), subfields.end(), pos,
      [](uint64_t p, const S& sf) { return p < sf.end; });
  assert(it != subfields.end() && it->start <= pos && pos < it->end);
  return static_cast<size_t>(it - subfields.begin());
}

/// After the record at store position `pos` changed values, refreshes
/// the containing subfield: recomputes its interval hull and SI from its
/// members' Interval() and, if the hull moved, replaces its entry in the
/// 1-D R*-tree. Shared by I-Hilbert, the Interval Quadtree (over
/// CellStore::records()) and the volume database.
template <typename T>
Status RefreshSubfieldAfterUpdate(const RecordStore<T>& store,
                                  RStarTree<1>* tree,
                                  std::vector<Subfield>* subfields,
                                  uint64_t pos) {
  Subfield& sf = (*subfields)[SubfieldContaining(*subfields, pos)];
  ValueInterval hull = ValueInterval::Empty();
  double sum_sizes = 0.0;
  FIELDDB_RETURN_IF_ERROR(
      store.Scan(sf.start, sf.end, [&](uint64_t, const T& record) {
        const ValueInterval iv = record.Interval();
        hull.Extend(iv);
        sum_sizes += iv.PaperSize();
        return true;
      }));
  if (hull != sf.interval) {
    FIELDDB_RETURN_IF_ERROR(
        tree->Delete(BoxFromInterval(sf.interval), sf.start, sf.end));
    FIELDDB_RETURN_IF_ERROR(
        tree->Insert(BoxFromInterval(hull), sf.start, sf.end));
    sf.interval = hull;
  }
  sf.sum_interval_sizes = sum_sizes;
  return Status::OK();
}

}  // namespace fielddb

#endif  // FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_
