#include "rtree/rstar_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

namespace fielddb {

namespace {

// Node page layout: [level u32][count u32][reserved 8B][entries...].
constexpr uint32_t kNodeHeaderSize = 16;

}  // namespace

template <int Dim>
RStarTree<Dim>::RStarTree(BufferPool* pool, const RStarOptions& options)
    : pool_(pool), options_(options) {
  max_entries_ = MaxEntriesFor(pool->file()->page_size());
  min_entries_ = std::max<uint32_t>(
      2, static_cast<uint32_t>(options.min_fill_fraction * max_entries_));
  if (min_entries_ > max_entries_ / 2) min_entries_ = max_entries_ / 2;
  reinsert_count_ = std::max<uint32_t>(
      1, static_cast<uint32_t>(options.reinsert_fraction * max_entries_));
  if (reinsert_count_ >= max_entries_) reinsert_count_ = max_entries_ - 1;
  MetricsRegistry& reg = MetricsRegistry::Default();
  m_node_visits_ = reg.GetCounter("rtree.node_visits");
  m_reinserts_ = reg.GetCounter("rtree.reinserts");
  m_splits_ = reg.GetCounter("rtree.splits");
}

template <int Dim>
uint32_t RStarTree<Dim>::MaxEntriesFor(uint32_t page_size) {
  static_assert(std::is_trivially_copyable_v<Entry>);
  const uint32_t cap = (page_size - kNodeHeaderSize) / sizeof(Entry);
  assert(cap >= 4 && "page too small for an R*-tree node");
  return cap;
}

template <int Dim>
StatusOr<RStarTree<Dim>> RStarTree<Dim>::Create(BufferPool* pool,
                                                const RStarOptions& options) {
  RStarTree tree(pool, options);
  StatusOr<PageId> root = tree.AllocNode();
  if (!root.ok()) return root.status();
  Node empty_leaf;
  FIELDDB_RETURN_IF_ERROR(tree.StoreNode(*root, empty_leaf));
  tree.meta_.root = *root;
  tree.meta_.height = 1;
  tree.meta_.size = 0;
  return tree;
}

template <int Dim>
RStarTree<Dim> RStarTree<Dim>::Attach(BufferPool* pool, const RStarMeta& meta,
                                      const RStarOptions& options) {
  RStarTree tree(pool, options);
  tree.meta_ = meta;
  return tree;
}

template <int Dim>
Status RStarTree<Dim>::LoadNode(PageId id, Node* node) const {
  PinnedPage pin;
  FIELDDB_RETURN_IF_ERROR(pool_->Fetch(id, &pin));
  const Page& page = pin.page();
  node->level = page.template ReadAt<uint32_t>(0);
  const uint32_t count = page.template ReadAt<uint32_t>(4);
  if (count > max_entries_ + 1) {
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
  const uint32_t root_level = pin.page().template ReadAt<uint32_t>(0);
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
  if (!free_pages_.empty()) {
    const PageId id = free_pages_.back();
    free_pages_.pop_back();
    return id;
  }
  PinnedPage pin;
  return pool_->Allocate(&pin);
}

template <int Dim>
void RStarTree<Dim>::FreeNode(PageId id) {
  --meta_.num_nodes;
  free_pages_.push_back(id);
}

template <int Dim>
Box<Dim> RStarTree<Dim>::NodeBox(const Node& node) {
  BoxT box = BoxT::Empty();
  for (const Entry& e : node.entries) box.Extend(e.box);
  return box;
}

template <int Dim>
size_t RStarTree<Dim>::ChooseSubtree(const Node& node,
                                     const BoxT& box) const {
  assert(!node.entries.empty());
  size_t best = 0;
  if (node.level == 1) {
    // Children are leaves: minimize overlap enlargement
    // (ties: area enlargement, then area) per Beckmann et al.
    double best_overlap_delta = std::numeric_limits<double>::infinity();
    double best_area_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      BoxT enlarged = node.entries[i].box;
      enlarged.Extend(box);
      double overlap_before = 0.0, overlap_after = 0.0;
      for (size_t j = 0; j < node.entries.size(); ++j) {
        if (j == i) continue;
        overlap_before += node.entries[i].box.OverlapArea(node.entries[j].box);
        overlap_after += enlarged.OverlapArea(node.entries[j].box);
      }
      const double overlap_delta = overlap_after - overlap_before;
      const double area = node.entries[i].box.Area();
      const double area_delta = enlarged.Area() - area;
      if (overlap_delta < best_overlap_delta ||
          (overlap_delta == best_overlap_delta &&
           (area_delta < best_area_delta ||
            (area_delta == best_area_delta && area < best_area)))) {
        best = i;
        best_overlap_delta = overlap_delta;
        best_area_delta = area_delta;
        best_area = area;
      }
    }
  } else {
    // Children are internal: minimize area enlargement (ties: area).
    double best_area_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      BoxT enlarged = node.entries[i].box;
      enlarged.Extend(box);
      const double area = node.entries[i].box.Area();
      const double area_delta = enlarged.Area() - area;
      if (area_delta < best_area_delta ||
          (area_delta == best_area_delta && area < best_area)) {
        best = i;
        best_area_delta = area_delta;
        best_area = area;
      }
    }
  }
  return best;
}

template <int Dim>
StatusOr<RTreeEntry<Dim>> RStarTree<Dim>::SplitNode(Node* node) {
  m_splits_->Increment();
  std::vector<Entry>& entries = node->entries;
  const size_t total = entries.size();
  const size_t m = min_entries_;
  assert(total >= 2 * m);

  // R* split, step 1: choose the axis with minimum margin sum over all
  // candidate distributions of both sorts (by lower and by upper value).
  int best_axis = 0;
  bool best_axis_by_upper = false;
  double best_margin = std::numeric_limits<double>::infinity();
  std::vector<Entry> scratch = entries;

  const auto eval_axis = [&](int axis, bool by_upper) -> double {
    std::sort(scratch.begin(), scratch.end(),
              [&](const Entry& x, const Entry& y) {
                return by_upper ? x.box.hi[axis] < y.box.hi[axis]
                                : x.box.lo[axis] < y.box.lo[axis];
              });
    // Prefix/suffix boxes make each distribution O(1).
    std::vector<BoxT> prefix(total), suffix(total);
    BoxT acc = BoxT::Empty();
    for (size_t i = 0; i < total; ++i) {
      acc.Extend(scratch[i].box);
      prefix[i] = acc;
    }
    acc = BoxT::Empty();
    for (size_t i = total; i-- > 0;) {
      acc.Extend(scratch[i].box);
      suffix[i] = acc;
    }
    double margin_sum = 0.0;
    for (size_t k = m; k + m <= total; ++k) {
      margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    return margin_sum;
  };

  for (int axis = 0; axis < Dim; ++axis) {
    for (const bool by_upper : {false, true}) {
      const double margin = eval_axis(axis, by_upper);
      if (margin < best_margin) {
        best_margin = margin;
        best_axis = axis;
        best_axis_by_upper = by_upper;
      }
    }
  }

  // Step 2: on the chosen axis/sort, pick the distribution with minimum
  // overlap (ties: minimum combined area).
  std::sort(entries.begin(), entries.end(),
            [&](const Entry& x, const Entry& y) {
              return best_axis_by_upper
                         ? x.box.hi[best_axis] < y.box.hi[best_axis]
                         : x.box.lo[best_axis] < y.box.lo[best_axis];
            });
  std::vector<BoxT> prefix(total), suffix(total);
  BoxT acc = BoxT::Empty();
  for (size_t i = 0; i < total; ++i) {
    acc.Extend(entries[i].box);
    prefix[i] = acc;
  }
  acc = BoxT::Empty();
  for (size_t i = total; i-- > 0;) {
    acc.Extend(entries[i].box);
    suffix[i] = acc;
  }
  size_t best_k = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t k = m; k + m <= total; ++k) {
    const double overlap = prefix[k - 1].OverlapArea(suffix[k]);
    const double area = prefix[k - 1].Area() + suffix[k].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  Node sibling;
  sibling.level = node->level;
  sibling.entries.assign(entries.begin() + best_k, entries.end());
  entries.resize(best_k);

  StatusOr<PageId> sibling_page = AllocNode();
  if (!sibling_page.ok()) return sibling_page.status();
  FIELDDB_RETURN_IF_ERROR(StoreNode(*sibling_page, sibling));

  Entry sibling_entry;
  sibling_entry.box = NodeBox(sibling);
  sibling_entry.a = *sibling_page;
  sibling_entry.b = 0;
  return sibling_entry;
}

template <int Dim>
Status RStarTree<Dim>::InsertRec(PageId page_id, const PendingInsert& ins,
                                 std::vector<bool>* reinserted_at_level,
                                 std::vector<PendingInsert>* pending,
                                 std::optional<Entry>* split_out,
                                 BoxT* box_out) {
  Node node;
  FIELDDB_RETURN_IF_ERROR(LoadNode(page_id, &node));

  if (node.level == ins.level) {
    node.entries.push_back(ins.entry);
  } else {
    assert(node.level > ins.level);
    const size_t child_idx = ChooseSubtree(node, ins.entry.box);
    const PageId child = node.entries[child_idx].a;
    std::optional<Entry> child_split;
    BoxT child_box;
    FIELDDB_RETURN_IF_ERROR(InsertRec(child, ins, reinserted_at_level,
                                      pending, &child_split, &child_box));
    node.entries[child_idx].box = child_box;
    if (child_split.has_value()) {
      node.entries.push_back(*child_split);
    }
  }

  split_out->reset();
  if (node.entries.size() > max_entries_) {
    const bool is_root = (page_id == meta_.root);
    const bool may_reinsert =
        !is_root && node.level < reinserted_at_level->size() &&
        !(*reinserted_at_level)[node.level];
    if (may_reinsert) {
      // Forced reinsert: remove the reinsert_count_ entries whose centers
      // are farthest from the node's center, re-add them from the top.
      m_reinserts_->Increment();
      (*reinserted_at_level)[node.level] = true;
      const BoxT node_box = NodeBox(node);
      std::vector<std::pair<double, size_t>> by_dist;
      by_dist.reserve(node.entries.size());
      for (size_t i = 0; i < node.entries.size(); ++i) {
        by_dist.emplace_back(node.entries[i].box.CenterDistance2(node_box),
                             i);
      }
      std::sort(by_dist.begin(), by_dist.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      std::vector<bool> removed(node.entries.size(), false);
      for (uint32_t i = 0; i < reinsert_count_; ++i) {
        const size_t idx = by_dist[i].second;
        removed[idx] = true;
        pending->push_back(PendingInsert{node.entries[idx], node.level});
      }
      std::vector<Entry> kept;
      kept.reserve(node.entries.size() - reinsert_count_);
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (!removed[i]) kept.push_back(node.entries[i]);
      }
      node.entries = std::move(kept);
    } else {
      StatusOr<Entry> sibling = SplitNode(&node);
      if (!sibling.ok()) return sibling.status();
      *split_out = *sibling;
    }
  }

  FIELDDB_RETURN_IF_ERROR(StoreNode(page_id, node));
  *box_out = NodeBox(node);
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::DrainPending(std::vector<PendingInsert>* pending,
                                    std::vector<bool>* reinserted_at_level) {
  while (!pending->empty()) {
    const PendingInsert ins = pending->back();
    pending->pop_back();
    std::optional<Entry> split;
    BoxT root_box;
    FIELDDB_RETURN_IF_ERROR(InsertRec(meta_.root, ins, reinserted_at_level,
                                      pending, &split, &root_box));
    if (split.has_value()) {
      // Root split: grow the tree by one level.
      Node old_root;
      FIELDDB_RETURN_IF_ERROR(LoadNode(meta_.root, &old_root));
      Node new_root;
      new_root.level = old_root.level + 1;
      Entry left;
      left.box = NodeBox(old_root);
      left.a = meta_.root;
      new_root.entries = {left, *split};
      StatusOr<PageId> new_root_page = AllocNode();
      if (!new_root_page.ok()) return new_root_page.status();
      FIELDDB_RETURN_IF_ERROR(StoreNode(*new_root_page, new_root));
      meta_.root = *new_root_page;
      ++meta_.height;
      if (reinserted_at_level->size() < meta_.height) {
        reinserted_at_level->resize(meta_.height, false);
      }
    }
  }
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::Insert(const BoxT& box, uint64_t a, uint64_t b) {
  if (box.IsEmpty()) {
    return Status::InvalidArgument("cannot insert an empty box");
  }
  FIELDDB_RETURN_IF_ERROR(CheckHeight());
  Entry entry;
  entry.box = box;
  entry.a = a;
  entry.b = b;
  std::vector<PendingInsert> pending{PendingInsert{entry, 0}};
  std::vector<bool> reinserted(meta_.height, false);
  FIELDDB_RETURN_IF_ERROR(DrainPending(&pending, &reinserted));
  ++meta_.size;
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::DeleteRec(PageId page_id, const BoxT& box, uint64_t a,
                                 uint64_t b,
                                 std::vector<PendingInsert>* orphans,
                                 bool* found, bool* underflow,
                                 BoxT* box_out) {
  Node node;
  FIELDDB_RETURN_IF_ERROR(LoadNode(page_id, &node));
  *found = false;
  *underflow = false;

  if (node.level == 0) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Entry& e = node.entries[i];
      if (e.box == box && e.a == a && e.b == b) {
        node.entries.erase(node.entries.begin() + i);
        *found = true;
        break;
      }
    }
  } else {
    for (size_t i = 0; i < node.entries.size() && !*found; ++i) {
      if (!node.entries[i].box.Contains(box)) continue;
      bool child_found = false, child_underflow = false;
      BoxT child_box;
      FIELDDB_RETURN_IF_ERROR(DeleteRec(node.entries[i].a, box, a, b,
                                        orphans, &child_found,
                                        &child_underflow, &child_box));
      if (!child_found) continue;
      *found = true;
      if (child_underflow) {
        // Dissolve the child: stash its remaining entries for reinsertion
        // at their level, drop it from this node.
        Node child;
        FIELDDB_RETURN_IF_ERROR(LoadNode(node.entries[i].a, &child));
        for (const Entry& e : child.entries) {
          orphans->push_back(PendingInsert{e, child.level});
        }
        FreeNode(node.entries[i].a);
        node.entries.erase(node.entries.begin() + i);
      } else {
        node.entries[i].box = child_box;
      }
    }
  }

  if (*found) {
    const bool is_root = (page_id == meta_.root);
    if (!is_root && node.entries.size() < min_entries_) {
      // Report underflow; parent dissolves this node (it reloads the
      // surviving entries itself).
      *underflow = true;
    }
    FIELDDB_RETURN_IF_ERROR(StoreNode(page_id, node));
  }
  *box_out = NodeBox(node);
  return Status::OK();
}

template <int Dim>
Status RStarTree<Dim>::Delete(const BoxT& box, uint64_t a, uint64_t b) {
  FIELDDB_RETURN_IF_ERROR(CheckHeight());
  std::vector<PendingInsert> orphans;
  bool found = false, underflow = false;
  BoxT root_box;
  FIELDDB_RETURN_IF_ERROR(
      DeleteRec(meta_.root, box, a, b, &orphans, &found, &underflow,
                &root_box));
  if (!found) return Status::NotFound("no matching entry");
  --meta_.size;

  std::vector<bool> reinserted(meta_.height, true);  // no forced reinsert
  FIELDDB_RETURN_IF_ERROR(DrainPending(&orphans, &reinserted));

  // Shrink the root while it is internal with a single child.
  for (;;) {
    Node root;
    FIELDDB_RETURN_IF_ERROR(LoadNode(meta_.root, &root));
    if (root.level == 0 || root.entries.size() != 1) break;
    const PageId child = root.entries[0].a;
    FreeNode(meta_.root);
    meta_.root = child;
    --meta_.height;
  }
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
    BufferPool* pool, const std::vector<Entry>& sorted,
    const RStarOptions& options) {
  StatusOr<RStarTree> tree_or = Create(pool, options);
  if (!tree_or.ok()) return tree_or.status();
  RStarTree tree = std::move(tree_or).value();
  if (sorted.empty()) return tree;

  const uint32_t cap = std::max<uint32_t>(
      tree.min_entries_,
      static_cast<uint32_t>(options.bulk_fill_fraction * tree.max_entries_));

  // Pack the current level into nodes of `cap` entries; the last node may
  // run short but never below min_entries_ (borrow from its predecessor).
  std::vector<Entry> level_entries = sorted;
  uint32_t level = 0;
  // The empty root made by Create() is recycled as scratch; free it.
  tree.FreeNode(tree.meta_.root);

  while (true) {
    std::vector<Entry> parents;
    size_t i = 0;
    const size_t n = level_entries.size();
    while (i < n) {
      size_t take = std::min<size_t>(cap, n - i);
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
    }
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
  if (!is_root) {
    BoxT box = NodeBox(node);
    if (!parent_box.Contains(box)) {
      return Status::Corruption("parent MBR does not contain child MBR");
    }
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
template class RStarTree<3>;

}  // namespace fielddb
