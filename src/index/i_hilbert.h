#ifndef FIELDDB_INDEX_I_HILBERT_H_
#define FIELDDB_INDEX_I_HILBERT_H_

#include <memory>
#include <vector>

#include "curve/curves.h"
#include "field/field.h"
#include "index/subfield.h"
#include "index/value_index.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace fielddb {

/// The paper's contribution, 'I-Hilbert' (Section 3.1):
///  1. linearize cells by the Hilbert value of their centers;
///  2. store them physically in that order (CellStore);
///  3. greedily group consecutive cells into subfields with the cost
///     function C = P/SI;
///  4. index only the subfield intervals in a 1-D R*-tree whose leaf
///     entries carry [start, end) pointers into the clustered store
///     (Fig. 6's leaf layout).
/// A value query searches the small tree, then reads each qualifying
/// subfield's contiguous page range.
struct IHilbertOptions {
  /// Linearization order; kHilbert is the paper's choice, the others
  /// exist for the clustering ablation.
  CurveType curve = CurveType::kHilbert;
  /// Bits per dimension of the curve grid cells' centers are quantized
  /// onto. 16 gives a 65536^2 grid — far below a center-spacing that
  /// would alias for every workload in this repository.
  int curve_order = 16;
  SubfieldCostConfig cost;
  /// Pack the subfield intervals bottom-up instead of R*-inserting.
  bool bulk_load = true;
  RStarOptions rstar;
  /// When > 0, the (hilbert_key, cell) linearization sort runs as a
  /// bounded-memory external merge sort: the sorter's in-RAM buffer is
  /// capped at this many bytes, overflow spills sorted runs to temp
  /// files, and the k-way merge feeds the store appender streamwise. The
  /// resulting index is byte-identical to the in-RAM build (same
  /// (key, id) tie-break, same page layout). 0 (the default) sorts once
  /// in RAM.
  size_t build_memory_budget_bytes = 0;
};

class IHilbertIndex final : public ValueIndex {
 public:
  using Options = IHilbertOptions;

  static StatusOr<std::unique_ptr<IHilbertIndex>> Build(
      BufferPool* pool, const Field& field, const Options& options = {});

  /// Re-wraps persisted components (for FieldDatabase::Open).
  static std::unique_ptr<IHilbertIndex> Attach(
      CellStore store, RStarTree<1> tree, std::vector<Subfield> subfields,
      const IndexBuildInfo& info) {
    return std::unique_ptr<IHilbertIndex>(
        new IHilbertIndex(std::move(store), std::move(tree),
                          std::move(subfields), info));
  }

  IndexMethod method() const override { return IndexMethod::kIHilbert; }
  Status FilterCandidateRanges(const ValueInterval& query,
                               std::vector<PosRange>* ranges) const override;
  const CellStore& cell_store() const override { return store_; }
  const IndexBuildInfo& build_info() const override { return info_; }
  Status UpdateCellValues(CellId id,
                          const std::vector<double>& values) override;

  const std::vector<Subfield>& subfields() const { return subfields_; }
  const RStarTree<1>& tree() const { return tree_; }

  /// Visits the subfields whose interval intersects the query — the raw
  /// filtering step, exposed for tests and the subfield-map example.
  Status FilterSubfields(const ValueInterval& query,
                         std::vector<uint32_t>* subfield_ids) const;

 private:
  IHilbertIndex(CellStore store, RStarTree<1> tree,
                std::vector<Subfield> subfields, IndexBuildInfo info)
      : store_(std::move(store)), tree_(std::move(tree)),
        subfields_(std::move(subfields)), info_(info) {}

  CellStore store_;
  RStarTree<1> tree_;
  std::vector<Subfield> subfields_;
  IndexBuildInfo info_;
};

/// Computes the linearization order of a field's cells under `curve`:
/// result[pos] = cell id stored at slot pos. Cell centers are normalized
/// to the field domain and quantized onto the curve grid; ties (cells
/// sharing a quantized center) break by cell id, keeping the order
/// deterministic.
std::vector<CellId> LinearizeCells(const Field& field,
                                   const SpaceFillingCurve& curve);

}  // namespace fielddb

#endif  // FIELDDB_INDEX_I_HILBERT_H_
