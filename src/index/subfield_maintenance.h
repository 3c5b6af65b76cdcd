#ifndef FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_
#define FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/cell_store.h"
#include "index/subfield.h"
#include "rtree/box.h"
#include "obs/trace_buffer.h"
#include "rtree/rstar_tree.h"

namespace fielddb {

/// The subfields of a store: its partition, the R*-tree entries that
/// index them and the refresh that keeps both exact after an update —
/// one copy for every field type and key (value interval or (u, v) box).
///
/// A type names its tree entry once, as `entry_of(row, index) ->
/// RTreeEntry<D>`, and both the bulk load (SubfieldEntries, packed in
/// the subfields' curve order, the order Kamel & Faloutsos [14]
/// prescribe) and the refresh use it: RunEntry for trees over the
/// subfields' own runs, the temporal database's slab entry for its
/// value × time tree.

/// The entry of a subfield indexed by its own run: the key's box plus
/// (start, end) — every subfield tree but the temporal one.
struct RunEntry {
  RTreeEntry<1> operator()(const Subfield& sf, size_t) const {
    return RTreeEntry<1>{BoxFromInterval(sf.interval), sf.start, sf.end};
  }
  RTreeEntry<2> operator()(const VectorSubfield& sf, size_t) const {
    return RTreeEntry<2>{sf.box, sf.start, sf.end};
  }
};

/// Whether `e` is exactly the RunEntry of one row of `subfields` (its
/// [start, end) run and its key); the rows tile the store in order.
template <typename Row, int Dim>
bool IsRowEntry(const std::vector<Row>& subfields, const RTreeEntry<Dim>& e) {
  auto it = std::lower_bound(
      subfields.begin(), subfields.end(), e.a,
      [](const Row& sf, uint64_t start) { return sf.start < start; });
  for (; it != subfields.end() && it->start == e.a; ++it) {
    if (RunEntry{}(*it, 0) == e) return true;
  }
  return false;
}

/// The filter step over a RunEntry tree: the runs of every subfield
/// whose key meets `box`, appended to `*runs` as ascending, disjoint
/// runs (MergeRuns) — O(subfields touched), independent of how many
/// cells the runs cover. The tree indexes `subfields`, so a hit that is
/// not exactly one of its rows (a leaf entry rewritten under a valid
/// checksum) is kCorruption, as a page that fails its checksum is: the
/// band scan then falls back to the store.
template <int Dim, typename Row>
Status SearchRunEntries(const RStarTree<Dim>& tree,
                        const std::vector<Row>& subfields,
                        const Box<Dim>& box, std::vector<PosRange>* runs) {
  std::vector<PosRange> hits;
  bool agrees = true;
  FIELDDB_RETURN_IF_ERROR(tree.Search(box, [&](const RTreeEntry<Dim>& e) {
    agrees = IsRowEntry(subfields, e);
    if (agrees) hits.push_back(PosRange{e.a, e.b});
    return agrees;
  }));
  if (!agrees) {
    return Status::Corruption("subfield tree entry matches no subfield row");
  }
  MergeRuns(&hits, runs);
  return Status::OK();
}

/// The subfield partition of `store`'s records in storage order: the
/// paper's insertion rule (§3.1) over the keys of its zone map.
template <typename Record, typename Key>
std::vector<SubfieldOf<Key>> PartitionStore(
    const BasicCellStore<Record>& store, const Key& value_range,
    const SubfieldCostConfigOf<Key>& config) {
  TraceScope span("build.partition", "build");
  span.set_items(store.size());
  SubfieldStreamBuilder<Key> builder(value_range, config);
  for (uint64_t pos = 0; pos < store.size(); ++pos) {
    builder.Add(store.zone_map().At(pos));
  }
  return builder.Finish();
}

/// The tree entries of `subfields` in order, the bulk-load input.
template <typename Row, typename EntryOf>
auto SubfieldEntries(const std::vector<Row>& subfields,
                     const EntryOf& entry_of) {
  std::vector<decltype(entry_of(subfields.front(), 0))> entries;
  entries.reserve(subfields.size());
  for (size_t i = 0; i < subfields.size(); ++i) {
    entries.push_back(entry_of(subfields[i], i));
  }
  return entries;
}

/// Index of the subfield whose [start, end) range contains store
/// position `pos`. `subfields` must tile the store, which every catalog
/// reader checks (ReadCatalog) and every builder guarantees.
template <typename Row>
size_t SubfieldContaining(const std::vector<Row>& subfields, uint64_t pos) {
  // First subfield whose end exceeds pos; the partition is contiguous,
  // so that subfield's start is <= pos.
  const auto it = std::upper_bound(
      subfields.begin(), subfields.end(), pos,
      [](uint64_t p, const Row& sf) { return p < sf.end; });
  assert(it != subfields.end() && it->start <= pos && pos < it->end);
  return static_cast<size_t>(it - subfields.begin());
}

/// After an update changed the key of the record at `change.pos`,
/// refreshes the containing subfield: recomputes its key hull and SI from
/// its members in the store and, if the hull moved, rewrites its tree
/// entry's box in place (`entry_of`, see above). Nothing to do when the
/// record's key did not change.
template <typename Record, typename Key, int Dim, typename EntryOf>
Status RefreshSubfieldAfterUpdate(const BasicCellStore<Record>& store,
                                  const KeyChange<Key>& change,
                                  RStarTree<Dim>* tree,
                                  std::vector<SubfieldOf<Key>>* subfields,
                                  const EntryOf& entry_of) {
  using Traits = SubfieldTraits<Key>;
  if (!change.changed()) return Status::OK();
  const size_t si = SubfieldContaining(*subfields, change.pos);
  typename Traits::Row& sf = (*subfields)[si];
  Key hull = Key::Empty();
  double sum_sizes = 0.0;
  FIELDDB_RETURN_IF_ERROR(store.records().Scan(
      sf.start, sf.end, [&](uint64_t, const Record& record) {
        const Key key = StoreKeyOf(record);
        hull.Extend(key);
        sum_sizes += Traits::Size(key);
        return true;
      }));
  if (!(hull == Traits::KeyOf(sf))) {
    typename Traits::Row moved = sf;
    Traits::KeyOf(moved) = hull;
    const RTreeEntry<Dim> old_entry = entry_of(sf, si);
    FIELDDB_RETURN_IF_ERROR(tree->Replace(old_entry.box, old_entry.a,
                                          old_entry.b,
                                          entry_of(moved, si).box));
    Traits::KeyOf(sf) = hull;
  }
  Traits::SumOf(sf) = sum_sizes;
  return Status::OK();
}

}  // namespace fielddb

#endif  // FIELDDB_INDEX_SUBFIELD_MAINTENANCE_H_
