#ifndef FIELDDB_RTREE_RSTAR_TREE_H_
#define FIELDDB_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "rtree/box.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace fielddb {

/// An entry of an R*-tree node. In internal nodes `a` is the child page id
/// and `b` is unused; in leaves `(a, b)` is an opaque 16-byte payload
/// (cell id for I-All; [start, end) cell-store positions for I-Hilbert
/// subfields, matching the paper's leaf layout in Fig. 6).
template <int Dim>
struct RTreeEntry {
  Box<Dim> box;
  uint64_t a = 0;
  uint64_t b = 0;

  bool operator==(const RTreeEntry& other) const = default;
};

/// Tuning knobs. Defaults follow Beckmann et al. [1]: 40% minimum fill,
/// 30% forced-reinsert fraction.
struct RStarOptions {
  double min_fill_fraction = 0.4;
  double reinsert_fraction = 0.3;
  /// Leaf/internal fill used by BulkLoad (Kamel & Faloutsos packing [14]).
  double bulk_fill_fraction = 1.0;
};

/// Persistable tree identity: everything needed to re-attach a tree to its
/// page file in a later session.
struct RStarMeta {
  PageId root = kInvalidPageId;
  uint32_t height = 0;   // number of levels; leaf level is 0
  uint64_t size = 0;     // number of leaf entries
  uint64_t num_nodes = 0;
};

/// A disk-page R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD'90)
/// over `Dim`-dimensional boxes. Nodes occupy one buffer-pool page each;
/// all node traffic is counted by the pool, which is how the experiment
/// harness attributes I/O cost to the index.
///
/// Used with Dim=1 to index value intervals (the paper's 1-D R*-tree for
/// I-All and I-Hilbert) and Dim=2 as the conventional spatial index for
/// point (Q1) queries on TINs.
template <int Dim>
class RStarTree {
 public:
  using Entry = RTreeEntry<Dim>;
  using BoxT = Box<Dim>;
  /// Return false to stop the search early.
  using Visitor = std::function<bool(const Entry&)>;

  /// Creates an empty tree whose nodes are allocated from `pool`.
  /// The pool must outlive the tree.
  static StatusOr<RStarTree> Create(BufferPool* pool,
                                    const RStarOptions& options = {});

  /// Re-attaches to an existing tree in `pool`'s page file.
  static RStarTree Attach(BufferPool* pool, const RStarMeta& meta,
                          const RStarOptions& options = {});

  /// Bulk-loads from leaf entries *already sorted by the caller* (for the
  /// paper's workloads: by Hilbert value, per Kamel & Faloutsos [14]).
  /// Packs leaves to `options.bulk_fill_fraction` of capacity and builds
  /// upper levels bottom-up.
  static StatusOr<RStarTree> BulkLoad(BufferPool* pool,
                                      const std::vector<Entry>& sorted,
                                      const RStarOptions& options = {});

  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Inserts one leaf entry (R* insertion with forced reinsert).
  Status Insert(const BoxT& box, uint64_t a, uint64_t b = 0);

  /// Removes the leaf entry exactly matching (box, a, b). Underfull nodes
  /// are dissolved and their entries reinserted (condense-tree).
  /// Returns NotFound if no such entry exists.
  Status Delete(const BoxT& box, uint64_t a, uint64_t b = 0);

  /// Visits every leaf entry whose box intersects `query`.
  Status Search(const BoxT& query, const Visitor& visit) const;

  /// Convenience: collects intersecting leaf entries into `*out`
  /// (appended; not cleared).
  Status Search(const BoxT& query, std::vector<Entry>* out) const;

  /// A nearest-neighbor hit: the entry plus its squared MINDIST to the
  /// query point.
  struct Neighbor {
    Entry entry;
    double distance2 = 0.0;
  };

  /// Best-first k-nearest-neighbor search (Hjaltason & Samet): the k
  /// leaf entries whose boxes are closest to `point` (MINDIST metric),
  /// in ascending distance order. Ties are broken arbitrarily. With
  /// Dim=1 this answers the paper's "value approximately equal to w'"
  /// queries without guessing an error bound up front.
  Status NearestNeighbors(const std::array<double, Dim>& point, size_t k,
                          std::vector<Neighbor>* out) const;

  /// Number of leaf entries.
  uint64_t size() const { return meta_.size; }
  /// Number of levels (0 for an about-to-be-created tree, 1 = just a leaf).
  uint32_t height() const { return meta_.height; }
  uint64_t num_nodes() const { return meta_.num_nodes; }
  const RStarMeta& meta() const { return meta_; }

  /// Max entries per node for this pool's page size.
  uint32_t max_entries() const { return max_entries_; }
  uint32_t min_entries() const { return min_entries_; }

  /// Walks the whole tree verifying structural invariants (MBR containment,
  /// fill bounds, uniform leaf depth, node/entry counts). For tests.
  Status CheckInvariants() const;

 private:
  struct Node {
    uint32_t level = 0;  // 0 = leaf
    std::vector<Entry> entries;
  };

  struct PendingInsert {
    Entry entry;
    uint32_t level;
  };

  RStarTree(BufferPool* pool, const RStarOptions& options);

  static uint32_t MaxEntriesFor(uint32_t page_size);

  Status LoadNode(PageId id, Node* node) const;
  /// kCorruption unless the root page's level is height - 1. Insert and
  /// Delete check this before sizing anything from the height, which
  /// an edited catalog can set to any value.
  Status CheckHeight() const;
  Status StoreNode(PageId id, const Node& node) const;
  StatusOr<PageId> AllocNode();
  void FreeNode(PageId id);

  static BoxT NodeBox(const Node& node);

  /// R* ChooseSubtree: index of the child of `node` to descend into when
  /// inserting `box` toward `target_level`.
  size_t ChooseSubtree(const Node& node, const BoxT& box) const;

  /// Recursive insert; see implementation for the contract.
  Status InsertRec(PageId page_id, const PendingInsert& ins,
                   std::vector<bool>* reinserted_at_level,
                   std::vector<PendingInsert>* pending,
                   std::optional<Entry>* split_out, BoxT* box_out);

  /// Splits an overflowing node (R* topological split). On return `node`
  /// keeps the first group; the second group is written to a new page and
  /// returned as an entry.
  StatusOr<Entry> SplitNode(Node* node);

  Status DeleteRec(PageId page_id, const BoxT& box, uint64_t a, uint64_t b,
                   std::vector<PendingInsert>* orphans, bool* found,
                   bool* underflow, BoxT* box_out);

  Status SearchRec(PageId page_id, const BoxT& query, const Visitor& visit,
                   bool* keep_going) const;

  Status CheckRec(PageId page_id, const BoxT& parent_box, bool is_root,
                  uint32_t expected_level, uint64_t* leaf_entries,
                  uint64_t* nodes) const;

  Status DrainPending(std::vector<PendingInsert>* pending,
                      std::vector<bool>* reinserted_at_level);

  BufferPool* pool_;
  RStarOptions options_;
  RStarMeta meta_;
  uint32_t max_entries_;
  uint32_t min_entries_;
  uint32_t reinsert_count_;
  std::vector<PageId> free_pages_;

  // Process-wide observability counters (obs/metrics.h), shared by every
  // tree: search-time node visits explain filtering I/O, reinserts and
  // splits expose update-path churn.
  Counter* m_node_visits_;
  Counter* m_reinserts_;
  Counter* m_splits_;
};

// Instantiated in rstar_tree.cc for the dimensions the library uses.
extern template class RStarTree<1>;
extern template class RStarTree<2>;
extern template class RStarTree<3>;

}  // namespace fielddb

#endif  // FIELDDB_RTREE_RSTAR_TREE_H_
