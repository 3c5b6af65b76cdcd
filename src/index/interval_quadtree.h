#ifndef FIELDDB_INDEX_INTERVAL_QUADTREE_H_
#define FIELDDB_INDEX_INTERVAL_QUADTREE_H_

#include <memory>
#include <vector>

#include "field/field.h"
#include "index/subfield.h"
#include "index/value_index.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace fielddb {

/// The authors' earlier Interval Quadtree (Kang et al., CIKM'99 [15]),
/// built here as the fixed-threshold baseline the paper argues against
/// (Section 3.1.1): the field space is divided quadtree-style until each
/// quadrant's value-interval size drops below a pre-set threshold; the
/// final quadrants are the subfields. The paper's critique — "there is no
/// justifiable way to decide the optimal threshold" — is what the
/// threshold-sweep ablation bench demonstrates.
///
/// Cells are assigned to quadrants by centroid, so the structure also
/// covers TINs (if less naturally than grids, which is the paper's other
/// critique of quadratic division).
struct IntervalQuadtreeOptions {
  /// Maximum allowed subfield interval length as a fraction of the
  /// field's value-range length (the pre-determined fixed threshold of
  /// the CIKM'99 scheme, here made range-relative).
  double threshold_fraction = 0.1;
  /// Division stops at this depth regardless of the threshold (a
  /// 2^max_depth x 2^max_depth finest grid).
  int max_depth = 16;
};

class IntervalQuadtreeIndex final : public ValueIndex {
 public:
  using Options = IntervalQuadtreeOptions;

  static StatusOr<std::unique_ptr<IntervalQuadtreeIndex>> Build(
      BufferPool* pool, const Field& field, const Options& options = {});

  /// Re-wraps persisted components (for FieldDatabase::Open).
  static std::unique_ptr<IntervalQuadtreeIndex> Attach(
      CellStore store, RStarTree<1> tree, std::vector<Subfield> subfields,
      const IndexBuildInfo& info) {
    return std::unique_ptr<IntervalQuadtreeIndex>(
        new IntervalQuadtreeIndex(std::move(store), std::move(tree),
                                  std::move(subfields), info));
  }

  IndexMethod method() const override {
    return IndexMethod::kIntervalQuadtree;
  }
  Status FilterCandidateRanges(const ValueInterval& query,
                               std::vector<PosRange>* ranges) const override;
  const CellStore& cell_store() const override { return store_; }
  const IndexBuildInfo& build_info() const override { return info_; }
  Status UpdateCellValues(CellId id,
                          const std::vector<double>& values) override;

  const std::vector<Subfield>& subfields() const { return subfields_; }
  const RStarTree<1>& tree() const { return tree_; }

 private:
  IntervalQuadtreeIndex(CellStore store, RStarTree<1> tree,
                        std::vector<Subfield> subfields, IndexBuildInfo info)
      : store_(std::move(store)), tree_(std::move(tree)),
        subfields_(std::move(subfields)), info_(info) {}

  CellStore store_;
  RStarTree<1> tree_;
  std::vector<Subfield> subfields_;
  IndexBuildInfo info_;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_INTERVAL_QUADTREE_H_
