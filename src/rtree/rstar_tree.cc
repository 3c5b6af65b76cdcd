#include "rtree/rstar_tree.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "obs/trace.h"

namespace fielddb {

namespace {

// Node page layout: [level u32][count u32][reserved 8B][entries...].
constexpr uint32_t kNodeHeaderSize = 16;

// Every node but the root holds at least this fraction of max_entries_
// (Beckmann et al.'s 40%): BulkLoad's last node of a level borrows to
// keep it, and CheckInvariants checks it.
constexpr double kMinFillFraction = 0.4;

}  // namespace

template <int Dim>
RStarTree<Dim>::RStarTree(BufferPool* pool) : pool_(pool) {
  max_entries_ = MaxEntriesFor(pool->file()->page_size());
  min_entries_ = std::max<uint32_t>(
      2, static_cast<uint32_t>(kMinFillFraction * max_entries_));
  if (min_entries_ > max_entries_ / 2) min_entries_ = max_entries_ / 2;
  m_node_visits_ =
      MetricsRegistry::Default().GetCounter("rtree.node_visits");
}

template <int Dim>
uint32_t RStarTree<Dim>::MaxEntriesFor(uint32_t page_size) {
  static_assert(std::is_trivially_copyable_v<Entry>);
  const uint32_t cap = (page_size - kNodeHeaderSize) / sizeof(Entry);
  assert(cap >= 4 && "page too small for an R*-tree node");
  return cap;
}

template <int Dim>
StatusOr<RStarTree<Dim>> RStarTree<Dim>::Attach(BufferPool* pool,
                                                const RStarMeta& meta) {
  RStarTree tree(pool);
  tree.meta_ = meta;
  Page root(pool->file()->page_size());
  if (pool->TryGetResident(meta.root, &root) ||
      pool->file()->Read(meta.root, &root).ok()) {
    FIELDDB_RETURN_IF_ERROR(tree.CheckHeight(root));
  }
  return tree;
}

template <int Dim>
Status RStarTree<Dim>::LoadNode(PageId id, Node* node) const {
  PinnedPage pin;
  FIELDDB_RETURN_IF_ERROR(pool_->Fetch(id, &pin));
  const Page& page = pin.page();
  node->level = page.template ReadAt<uint32_t>(0);
  const uint32_t count = page.template ReadAt<uint32_t>(4);
  if (count > max_entries_) {
    return Status::Corruption("node entry count out of bounds");
  }
  node->entries.resize(count);
  if (count > 0) {
    page.Read(kNodeHeaderSize, node->entries.data(),
              count * static_cast<uint32_t>(sizeof(Entry)));
  }
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::CheckHeight() const {
  PinnedPage pin;
  FIELDDB_RETURN_IF_ERROR(pool_->Fetch(meta_.root, &pin));
  return CheckHeight(pin.page());
}

template <int Dim>
Status RStarTree<Dim>::CheckHeight(const Page& root) const {
  const uint32_t root_level = root.template ReadAt<uint32_t>(0);
  if (uint64_t{root_level} + 1 != meta_.height) {
    return Status::Corruption("height does not match root level");
  }
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::StoreNode(PageId id, const Node& node) const {
  PinnedPage pin;
  FIELDDB_RETURN_IF_ERROR(pool_->Fetch(id, &pin));
  Page& page = pin.MutablePage();
  page.template WriteAt<uint32_t>(0, node.level);
  page.template WriteAt<uint32_t>(
      4, static_cast<uint32_t>(node.entries.size()));
  if (!node.entries.empty()) {
    page.Write(kNodeHeaderSize, node.entries.data(),
               static_cast<uint32_t>(node.entries.size() * sizeof(Entry)));
  }
  return Status::OK();
}

template <int Dim>
StatusOr<PageId> RStarTree<Dim>::AllocNode() {
  ++meta_.num_nodes;
  PinnedPage pin;
  return pool_->Allocate(&pin);
}

template <int Dim>
Box<Dim> RStarTree<Dim>::NodeBox(const Node& node) {
  BoxT box = BoxT::Empty();
  for (const Entry& e : node.entries) box.Extend(e.box);
  return box;
}

template <int Dim>
Status RStarTree<Dim>::ReplaceRec(PageId page_id, const BoxT& old_box,
                                  uint64_t a, uint64_t b,
                                  const BoxT& new_box, bool* found,
                                  BoxT* box_out) {
  Node node;
  FIELDDB_RETURN_IF_ERROR(LoadNode(page_id, &node));
  for (Entry& e : node.entries) {
    if (node.level == 0) {
      if (e.box == old_box && e.a == a && e.b == b) {
        e.box = new_box;
        *found = true;
      }
    } else if (e.box.Contains(old_box)) {
      BoxT child_box;
      FIELDDB_RETURN_IF_ERROR(
          ReplaceRec(e.a, old_box, a, b, new_box, found, &child_box));
      if (*found) e.box = child_box;
    }
    if (*found) {
      FIELDDB_RETURN_IF_ERROR(StoreNode(page_id, node));
      *box_out = NodeBox(node);
      return Status::OK();
    }
  }
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::Replace(const BoxT& old_box, uint64_t a, uint64_t b,
                               const BoxT& new_box) {
  if (new_box.IsEmpty()) {
    return Status::InvalidArgument("cannot store an empty box");
  }
  FIELDDB_RETURN_IF_ERROR(CheckHeight());
  bool found = false;
  BoxT root_box;
  FIELDDB_RETURN_IF_ERROR(
      ReplaceRec(meta_.root, old_box, a, b, new_box, &found, &root_box));
  if (!found) return Status::NotFound("no matching entry");
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::SearchRec(PageId page_id, const BoxT& query,
                                 const Visitor& visit,
                                 bool* keep_going) const {
  m_node_visits_->Increment();
  Node node;
  FIELDDB_RETURN_IF_ERROR(LoadNode(page_id, &node));
  for (const Entry& e : node.entries) {
    if (!*keep_going) return Status::OK();
    if (!e.box.Intersects(query)) continue;
    if (node.level == 0) {
      if (!visit(e)) {
        *keep_going = false;
        return Status::OK();
      }
    } else {
      FIELDDB_RETURN_IF_ERROR(SearchRec(e.a, query, visit, keep_going));
    }
  }
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::Search(const BoxT& query, const Visitor& visit) const {
  bool keep_going = true;
  return SearchRec(meta_.root, query, visit, &keep_going);
}

template <int Dim>
Status RStarTree<Dim>::Search(const BoxT& query,
                              std::vector<Entry>* out) const {
  return Search(query, [out](const Entry& e) {
    out->push_back(e);
    return true;
  });
}

template <int Dim>
Status RStarTree<Dim>::NearestNeighbors(
    const std::array<double, Dim>& point, size_t k,
    std::vector<Neighbor>* out) const {
  if (k == 0 || meta_.size == 0) return Status::OK();

  // Best-first search over a single priority queue holding both nodes
  // and leaf entries, keyed by MINDIST. When a leaf entry reaches the
  // front of the queue, nothing closer can remain.
  struct QueueItem {
    double distance2;
    bool is_leaf_entry;
    PageId page;   // when !is_leaf_entry
    Entry entry;   // when is_leaf_entry
  };
  const auto cmp = [](const QueueItem& x, const QueueItem& y) {
    return x.distance2 > y.distance2;  // min-heap
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, decltype(cmp)>
      queue(cmp);
  queue.push(QueueItem{0.0, false, meta_.root, Entry{}});

  Node node;
  while (!queue.empty() && out->size() < k) {
    const QueueItem item = queue.top();
    queue.pop();
    if (item.is_leaf_entry) {
      out->push_back(Neighbor{item.entry, item.distance2});
      continue;
    }
    m_node_visits_->Increment();
    FIELDDB_RETURN_IF_ERROR(LoadNode(item.page, &node));
    for (const Entry& e : node.entries) {
      const double d2 = e.box.MinDist2(point);
      if (node.level == 0) {
        queue.push(QueueItem{d2, true, kInvalidPageId, e});
      } else {
        queue.push(QueueItem{d2, false, e.a, Entry{}});
      }
    }
  }
  return Status::OK();
}

template <int Dim>
StatusOr<RStarTree<Dim>> RStarTree<Dim>::BulkLoad(
    BufferPool* pool, const std::vector<Entry>& sorted) {
  ScopedSpan span("build.tree", "build");
  span.set_items(sorted.size());
  RStarTree tree(pool);
  // Pack the current level into full nodes; the last node may run short
  // but never below min_entries_ (borrow from its predecessor). No
  // entries still make one (empty) leaf.
  std::vector<Entry> level_entries = sorted;
  uint32_t level = 0;
  while (true) {
    std::vector<Entry> parents;
    size_t i = 0;
    const size_t n = level_entries.size();
    do {
      size_t take = std::min<size_t>(tree.max_entries_, n - i);
      const size_t remaining_after = n - i - take;
      if (remaining_after > 0 && remaining_after < tree.min_entries_) {
        take -= (tree.min_entries_ - remaining_after);
      }
      Node node;
      node.level = level;
      node.entries.assign(level_entries.begin() + i,
                          level_entries.begin() + i + take);
      i += take;
      StatusOr<PageId> page = tree.AllocNode();
      if (!page.ok()) return page.status();
      FIELDDB_RETURN_IF_ERROR(tree.StoreNode(*page, node));
      Entry parent;
      parent.box = NodeBox(node);
      parent.a = *page;
      parents.push_back(parent);
    } while (i < n);
    if (parents.size() == 1) {
      tree.meta_.root = parents[0].a;
      tree.meta_.height = level + 1;
      break;
    }
    level_entries = std::move(parents);
    ++level;
  }
  tree.meta_.size = sorted.size();
  return tree;
}

template <int Dim>
Status RStarTree<Dim>::CheckRec(PageId page_id, const BoxT& parent_box,
                                bool is_root, uint32_t expected_level,
                                uint64_t* leaf_entries,
                                uint64_t* nodes) const {
  Node node;
  FIELDDB_RETURN_IF_ERROR(LoadNode(page_id, &node));
  ++*nodes;
  if (node.level != expected_level) {
    return Status::Corruption("level mismatch: leaves not at uniform depth");
  }
  if (node.entries.size() > max_entries_) {
    return Status::Corruption("node overflow");
  }
  if (!is_root && node.entries.size() < min_entries_) {
    return Status::Corruption("node underflow");
  }
  if (is_root && meta_.size > 0 && node.entries.empty()) {
    return Status::Corruption("root empty but tree non-empty");
  }
  // BulkLoad and Replace both set a parent entry's box to its child's
  // node box, so it is the exact MBR, not just a cover.
  if (!is_root && !(parent_box == NodeBox(node))) {
    return Status::Corruption("parent MBR is not the child's MBR");
  }
  if (node.level == 0) {
    *leaf_entries += node.entries.size();
  } else {
    for (const Entry& e : node.entries) {
      FIELDDB_RETURN_IF_ERROR(CheckRec(e.a, e.box, false, node.level - 1,
                                       leaf_entries, nodes));
    }
  }
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::CheckInvariants() const {
  uint64_t leaf_entries = 0;
  uint64_t nodes = 0;
  FIELDDB_RETURN_IF_ERROR(CheckHeight());
  FIELDDB_RETURN_IF_ERROR(CheckRec(meta_.root, BoxT::Empty(), true,
                                   meta_.height - 1, &leaf_entries, &nodes));
  if (leaf_entries != meta_.size) {
    return Status::Corruption("leaf entry count mismatch: have " +
                              std::to_string(leaf_entries) + ", expected " +
                              std::to_string(meta_.size));
  }
  if (nodes != meta_.num_nodes) {
    return Status::Corruption("node count mismatch");
  }
  return Status::OK();
}

template class RStarTree<1>;
template class RStarTree<2>;

}  // namespace fielddb
