#ifndef FIELDDB_INDEX_I_ALL_H_
#define FIELDDB_INDEX_I_ALL_H_

#include <memory>

#include "field/field.h"
#include "index/value_index.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace fielddb {

/// The paper's 'I-All' straw man (Section 3): every individual cell's
/// value interval goes into the 1-D R*-tree. Simple, but the tree holds
/// as many heavily-overlapping intervals as there are cells — tall, large
/// and slow; on smooth / high-selectivity workloads it loses even to
/// LinearScan (the effect Fig. 11.a shows). The paper inserts the
/// intervals one by one; here they are packed bottom-up in midpoint
/// order (Kamel–Faloutsos [14]): the same answers, much faster builds
/// on the million-cell workloads.
class IAllIndex final : public ValueIndex {
 public:
  static StatusOr<std::unique_ptr<IAllIndex>> Build(BufferPool* pool,
                                                    const Field& field);

  /// Re-wraps a persisted store + tree (for FieldDatabase::Open).
  static std::unique_ptr<IAllIndex> Attach(CellStore store,
                                           RStarTree<1> tree,
                                           const IndexBuildInfo& info) {
    return std::unique_ptr<IAllIndex>(
        new IAllIndex(std::move(store), std::move(tree), info));
  }

  IndexMethod method() const override { return IndexMethod::kIAll; }
  Status FilterCandidateRanges(const ValueInterval& query,
                               std::vector<PosRange>* ranges) const override;
  const CellStore& cell_store() const override { return store_; }
  const IndexBuildInfo& build_info() const override { return info_; }
  Status UpdateCellValues(CellId id,
                          const std::vector<double>& values) override;

  const RStarTree<1>& tree() const { return tree_; }

 private:
  IAllIndex(CellStore store, RStarTree<1> tree, IndexBuildInfo info)
      : store_(std::move(store)), tree_(std::move(tree)), info_(info) {}

  CellStore store_;
  RStarTree<1> tree_;
  IndexBuildInfo info_;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_I_ALL_H_
