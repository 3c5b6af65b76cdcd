#ifndef FIELDDB_RTREE_RSTAR_TREE_H_
#define FIELDDB_RTREE_RSTAR_TREE_H_

#include <array>
#include <cstdint>
#include <functional>
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

/// Persistable tree identity: everything needed to re-attach a tree to its
/// page file in a later session.
struct RStarMeta {
  PageId root = kInvalidPageId;
  uint32_t height = 0;   // number of levels; leaf level is 0
  uint64_t size = 0;     // number of leaf entries
  uint64_t num_nodes = 0;
};

/// A paged R-tree with the R*-tree's node layout (Beckmann, Kriegel,
/// Schneider, Seeger, SIGMOD'90) over `Dim`-dimensional boxes, packed
/// bottom-up once (Kamel & Faloutsos [14]) and updated in place. Nodes
/// occupy one buffer-pool page each; all node traffic is counted by the
/// pool, which is how the experiment harness attributes I/O cost to the
/// index. The shape is fixed at BulkLoad: Replace rewrites one leaf
/// entry's box and refits the boxes above it, so no update allocates,
/// splits or frees a node, and height, size and node count stay what
/// BulkLoad made.
///
/// Used with Dim=1 to index value intervals (the paper's 1-D R*-tree for
/// I-All and I-Hilbert) and Dim=2 as the conventional spatial index for
/// point (Q1) queries on TINs and for the vector and temporal subfields.
template <int Dim>
class RStarTree {
 public:
  using Entry = RTreeEntry<Dim>;
  using BoxT = Box<Dim>;
  /// Return false to stop the search early.
  using Visitor = std::function<bool(const Entry&)>;

  /// Re-attaches to an existing tree in `pool`'s page file. kCorruption
  /// when `meta.height` contradicts the root page's level (CheckHeight):
  /// every descent, and the planner's price of one, sizes itself from
  /// the height, which an edited catalog can set to any value. The root
  /// is read as a checkpoint copies a page — a resident frame, else the
  /// file — so attaching moves no frame and no pool counter. Only a root
  /// that reads cleanly can contradict the height: one that does not (a
  /// checksum failure, an I/O error) attaches unchecked, because the
  /// tree only accelerates the store. Searches then report the failure
  /// (a corrupt page makes the band scan fall back to the store), and
  /// Replace re-checks the height before writing.
  static StatusOr<RStarTree> Attach(BufferPool* pool, const RStarMeta& meta);

  /// Packs leaf entries *already sorted by the caller* (for the paper's
  /// workloads: by Hilbert value, per Kamel & Faloutsos [14]) into full
  /// nodes and builds the upper levels bottom-up; the last node of a
  /// level borrows from its predecessor to keep the minimum fill. No
  /// entries make one empty root leaf. The pool must outlive the tree.
  static StatusOr<RStarTree> BulkLoad(BufferPool* pool,
                                      const std::vector<Entry>& sorted);

  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Sets the box of the leaf entry exactly matching (old_box, a, b) to
  /// `new_box` and refits every box on its path to the root, which may
  /// shrink or grow; only the nodes on that path are written. NotFound
  /// when no leaf entry matches, InvalidArgument for an empty `new_box`.
  Status Replace(const BoxT& old_box, uint64_t a, uint64_t b,
                 const BoxT& new_box);

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
  /// Number of levels (1 = just a leaf).
  uint32_t height() const { return meta_.height; }
  uint64_t num_nodes() const { return meta_.num_nodes; }
  const RStarMeta& meta() const { return meta_; }

  /// Max entries per node for this pool's page size.
  uint32_t max_entries() const { return max_entries_; }

  /// Walks the whole tree verifying structural invariants (exact MBRs,
  /// fill bounds, uniform leaf depth, node/entry counts). For tests.
  Status CheckInvariants() const;

 private:
  struct Node {
    uint32_t level = 0;  // 0 = leaf
    std::vector<Entry> entries;
  };

  explicit RStarTree(BufferPool* pool);

  static uint32_t MaxEntriesFor(uint32_t page_size);

  Status LoadNode(PageId id, Node* node) const;
  /// kCorruption unless the root page's level is height - 1. Replace
  /// checks this before sizing anything from the height, which an
  /// edited catalog can set to any value; Attach checks `root`, its copy
  /// of the root page.
  Status CheckHeight() const;
  Status CheckHeight(const Page& root) const;
  Status StoreNode(PageId id, const Node& node) const;
  StatusOr<PageId> AllocNode();

  static BoxT NodeBox(const Node& node);

  /// Replace below `page_id`: sets `*found` and, when found, `*box_out`
  /// to the node's refitted box.
  Status ReplaceRec(PageId page_id, const BoxT& old_box, uint64_t a,
                    uint64_t b, const BoxT& new_box, bool* found,
                    BoxT* box_out);

  Status SearchRec(PageId page_id, const BoxT& query, const Visitor& visit,
                   bool* keep_going) const;

  Status CheckRec(PageId page_id, const BoxT& parent_box, bool is_root,
                  uint32_t expected_level, uint64_t* leaf_entries,
                  uint64_t* nodes) const;

  BufferPool* pool_;
  RStarMeta meta_;
  uint32_t max_entries_;
  uint32_t min_entries_;

  // Process-wide observability counter (obs/metrics.h), shared by every
  // tree: search-time node visits explain filtering I/O.
  Counter* m_node_visits_;
};

// Instantiated in rstar_tree.cc for the dimensions the library uses.
extern template class RStarTree<1>;
extern template class RStarTree<2>;

}  // namespace fielddb

#endif  // FIELDDB_RTREE_RSTAR_TREE_H_
