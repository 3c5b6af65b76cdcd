#include "rtree/rstar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

template <int Dim>
Box<Dim> RandomBox(Rng& rng, double max_extent) {
  Box<Dim> b;
  for (int d = 0; d < Dim; ++d) {
    const double lo = rng.NextDouble();
    b.lo[d] = lo;
    b.hi[d] = lo + rng.NextDouble() * max_extent;
  }
  return b;
}

template <int Dim>
std::vector<uint64_t> BruteForceSearch(
    const std::vector<RTreeEntry<Dim>>& entries, const Box<Dim>& query) {
  std::vector<uint64_t> hits;
  for (const auto& e : entries) {
    if (e.box.Intersects(query)) hits.push_back(e.a);
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

template <int Dim>
std::vector<uint64_t> TreeSearch(const RStarTree<Dim>& tree,
                                 const Box<Dim>& query) {
  std::vector<uint64_t> hits;
  EXPECT_TRUE(tree.Search(query, [&](const RTreeEntry<Dim>& e) {
                    hits.push_back(e.a);
                    return true;
                  }).ok());
  std::sort(hits.begin(), hits.end());
  return hits;
}

TEST(RStarTreeTest, EmptyTreeSearchFindsNothing) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto tree = RStarTree<2>::BulkLoad(&pool, {});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  Box<2> q;
  q.lo = {0, 0};
  q.hi = {1, 1};
  EXPECT_TRUE(TreeSearch(*tree, q).empty());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(RStarTreeTest, SingleEntryHitAndMiss) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  std::vector<RTreeEntry<2>> one(1);
  one[0].box.lo = {0.2, 0.2};
  one[0].box.hi = {0.4, 0.4};
  one[0].a = 42;
  auto tree = RStarTree<2>::BulkLoad(&pool, one);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 1u);

  Box<2> hit_q;
  hit_q.lo = {0.3, 0.3};
  hit_q.hi = {0.3, 0.3};
  EXPECT_EQ(TreeSearch(*tree, hit_q), std::vector<uint64_t>{42});

  Box<2> miss_q;
  miss_q.lo = {0.5, 0.5};
  miss_q.hi = {0.9, 0.9};
  EXPECT_TRUE(TreeSearch(*tree, miss_q).empty());
}

TEST(RStarTreeTest, RejectsEmptyBox) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  std::vector<RTreeEntry<1>> one(1);
  one[0].box.lo = {0.1};
  one[0].box.hi = {0.2};
  auto tree = RStarTree<1>::BulkLoad(&pool, one);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Replace(one[0].box, 0, 0, Box<1>::Empty()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TreeSearch(*tree, one[0].box), std::vector<uint64_t>{0});
}

TEST(RStarTreeTest, PayloadWordsRoundTrip) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  std::vector<RTreeEntry<1>> one(1);
  one[0].box.lo = {1};
  one[0].box.hi = {2};
  one[0].a = 7;
  one[0].b = 13;
  auto tree = RStarTree<1>::BulkLoad(&pool, one);
  ASSERT_TRUE(tree.ok());
  bool seen = false;
  ASSERT_TRUE(tree->Search(one[0].box, [&](const RTreeEntry<1>& e) {
                    EXPECT_EQ(e.a, 7u);
                    EXPECT_EQ(e.b, 13u);
                    seen = true;
                    return true;
                  }).ok());
  EXPECT_TRUE(seen);
}

// Cross-checks tree search against brute force over many random queries,
// for 1-D and 2-D, packing the entries in generation order or (1-D
// `sorted`) sorted by lower bound.
struct RandomizedCase {
  int num_entries;
  bool sorted;
  uint64_t seed;
};

std::string RandomizedCaseName(
    const ::testing::TestParamInfo<RandomizedCase>& info) {
  return std::string(info.param.sorted ? "sorted" : "unsorted") +
         std::to_string(info.param.num_entries) + "_seed" +
         std::to_string(info.param.seed);
}

class RandomizedRTree1DTest
    : public ::testing::TestWithParam<RandomizedCase> {};

TEST_P(RandomizedRTree1DTest, MatchesBruteForce) {
  const auto [n, sorted, seed] = GetParam();
  Rng rng(seed);
  MemPageFile file;
  BufferPool pool(&file, 256);

  std::vector<RTreeEntry<1>> entries(n);
  for (int i = 0; i < n; ++i) {
    entries[i].box = RandomBox<1>(rng, 0.05);
    entries[i].a = i;
  }
  std::vector<RTreeEntry<1>> packed = entries;
  if (sorted) {
    std::sort(packed.begin(), packed.end(), [](const auto& x, const auto& y) {
      return x.box.lo[0] < y.box.lo[0];
    });
  }
  auto tree = RStarTree<1>::BulkLoad(&pool, packed);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), static_cast<uint64_t>(n));
  ASSERT_TRUE(tree->CheckInvariants().ok());

  for (int qi = 0; qi < 50; ++qi) {
    const Box<1> q = RandomBox<1>(rng, 0.2);
    EXPECT_EQ(TreeSearch(*tree, q), BruteForceSearch(entries, q))
        << "query " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizedRTree1DTest,
    ::testing::Values(RandomizedCase{10, false, 1},
                      RandomizedCase{300, false, 2},
                      RandomizedCase{2000, false, 3},
                      RandomizedCase{300, true, 4},
                      RandomizedCase{5000, true, 5}),
    RandomizedCaseName);

class RandomizedRTree2DTest
    : public ::testing::TestWithParam<RandomizedCase> {};

TEST_P(RandomizedRTree2DTest, MatchesBruteForce) {
  const int n = GetParam().num_entries;
  Rng rng(GetParam().seed);
  MemPageFile file;
  BufferPool pool(&file, 256);

  std::vector<RTreeEntry<2>> entries(n);
  for (int i = 0; i < n; ++i) {
    entries[i].box = RandomBox<2>(rng, 0.1);
    entries[i].a = i;
  }
  auto tree = RStarTree<2>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());

  for (int qi = 0; qi < 50; ++qi) {
    const Box<2> q = RandomBox<2>(rng, 0.3);
    EXPECT_EQ(TreeSearch(*tree, q), BruteForceSearch(entries, q))
        << "query " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizedRTree2DTest,
    ::testing::Values(RandomizedCase{10, false, 11},
                      RandomizedCase{500, false, 12},
                      RandomizedCase{3000, false, 13},
                      RandomizedCase{3000, false, 14}),
    RandomizedCaseName);

TEST(RStarTreeTest, GrowsBeyondOneLevel) {
  MemPageFile file(512);  // small pages force low fan-out
  BufferPool pool(&file, 256);
  Rng rng(9);
  std::vector<RTreeEntry<2>> entries(500);
  for (int i = 0; i < 500; ++i) {
    entries[i].box = RandomBox<2>(rng, 0.02);
    entries[i].a = i;
  }
  auto tree = RStarTree<2>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(tree->height(), 2u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(RStarTreeTest, ReplaceChangesExactlyOneEntry) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  Box<1> b;
  b.lo = {0.5};
  b.hi = {0.6};
  Box<1> moved;
  moved.lo = {0.7};
  moved.hi = {0.9};
  // The same box with two payloads.
  std::vector<RTreeEntry<1>> entries = {{b, 1, 10}, {b, 2, 10}};
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->Replace(b, 1, 10, moved).ok());
  EXPECT_EQ(tree->size(), 2u);
  EXPECT_EQ(TreeSearch(*tree, b), std::vector<uint64_t>{2});
  EXPECT_EQ(TreeSearch(*tree, moved), std::vector<uint64_t>{1});
  EXPECT_TRUE(tree->CheckInvariants().ok());

  // Only an exact (box, a, b) match is replaced.
  EXPECT_EQ(tree->Replace(b, 99, 10, moved).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Replace(b, 2, 11, moved).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Replace(moved, 2, 10, b).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Replace(b, 1, 10, moved).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree->Replace(b, 2, 10, Box<1>::Empty()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TreeSearch(*tree, b), std::vector<uint64_t>{2});
  EXPECT_EQ(TreeSearch(*tree, moved), std::vector<uint64_t>{1});
}

TEST(RStarTreeTest, ReplaceFuzzKeepsShape) {
  // Random boxes grow and shrink in place, cross-checked against a
  // brute-force shadow set; the shape BulkLoad made never changes.
  MemPageFile file(512);  // fan-out 10: four levels
  BufferPool pool(&file, 256);
  Rng rng(101);
  std::vector<RTreeEntry<2>> shadow(600);
  for (size_t i = 0; i < shadow.size(); ++i) {
    shadow[i].box = RandomBox<2>(rng, 0.05);
    shadow[i].a = i;
    shadow[i].b = i * 7;
  }
  auto tree = RStarTree<2>::BulkLoad(&pool, shadow);
  ASSERT_TRUE(tree.ok());
  const RStarMeta built = tree->meta();
  ASSERT_GE(built.height, 3u);

  for (int step = 0; step < 1500; ++step) {
    RTreeEntry<2>& victim = shadow[rng.NextBounded(shadow.size())];
    const double extent = step % 3 == 0 ? 0.4 : (step % 3 == 1 ? 0.01 : 0.05);
    const Box<2> box = RandomBox<2>(rng, extent);
    ASSERT_TRUE(tree->Replace(victim.box, victim.a, victim.b, box).ok())
        << "step " << step;
    victim.box = box;
    if (step % 250 == 249) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "step " << step;
      EXPECT_EQ(tree->meta().root, built.root);
      EXPECT_EQ(tree->height(), built.height);
      EXPECT_EQ(tree->size(), built.size);
      EXPECT_EQ(tree->num_nodes(), built.num_nodes);
      for (int qi = 0; qi < 5; ++qi) {
        const Box<2> q = RandomBox<2>(rng, 0.4);
        ASSERT_EQ(TreeSearch(*tree, q), BruteForceSearch(shadow, q))
            << "step " << step;
      }
    }
  }
}

TEST(RStarTreeTest, NodeCountPastFanOutIsCorruption) {
  // A node page whose entry count exceeds the fan-out would be read
  // past the page end; the load refuses it instead.
  MemPageFile file;
  BufferPool pool(&file, 64);
  std::vector<RTreeEntry<1>> one(1);
  one[0].box.lo = {0.1};
  one[0].box.hi = {0.2};
  auto tree = RStarTree<1>::BulkLoad(&pool, one);
  ASSERT_TRUE(tree.ok());
  {
    PinnedPage pin;
    ASSERT_TRUE(pool.Fetch(tree->meta().root, &pin).ok());
    pin.MutablePage().WriteAt<uint32_t>(4, tree->max_entries() + 1);
  }
  EXPECT_EQ(tree->Search(one[0].box, [](const RTreeEntry<1>&) {
                  return true;
                }).code(),
            StatusCode::kCorruption);
}

TEST(RStarTreeTest, SearchEarlyTermination) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  Box<1> b;
  b.lo = {0};
  b.hi = {1};
  std::vector<RTreeEntry<1>> entries(100);
  for (int i = 0; i < 100; ++i) entries[i] = {b, static_cast<uint64_t>(i)};
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  int visited = 0;
  ASSERT_TRUE(tree->Search(b, [&](const RTreeEntry<1>&) {
                    return ++visited < 5;
                  }).ok());
  EXPECT_EQ(visited, 5);
}

TEST(RStarTreeTest, AttachReopensTree) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  RStarMeta meta;
  Rng rng(55);
  std::vector<RTreeEntry<1>> entries(200);
  for (int i = 0; i < 200; ++i) {
    entries[i].box = RandomBox<1>(rng, 0.05);
    entries[i].a = i;
  }
  {
    auto tree = RStarTree<1>::BulkLoad(&pool, entries);
    ASSERT_TRUE(tree.ok());
    meta = tree->meta();
  }
  // A fresh pool over the same file, attached via persisted meta.
  ASSERT_TRUE(pool.Flush().ok());
  BufferPool pool2(&file, 256);
  auto reopened = RStarTree<1>::Attach(&pool2, meta);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->CheckInvariants().ok());
  for (int qi = 0; qi < 20; ++qi) {
    const Box<1> q = RandomBox<1>(rng, 0.2);
    EXPECT_EQ(TreeSearch(*reopened, q), BruteForceSearch(entries, q));
  }
  // A height that contradicts the root page is refused at Attach, and
  // reading the root there moved no frame into the pool.
  const size_t resident = pool2.num_frames();
  const uint64_t logical = pool2.stats().logical_reads;
  for (const uint32_t height : {0u, meta.height - 1, meta.height + 1,
                                4000000000u}) {
    RStarMeta edited = meta;
    edited.height = height;
    EXPECT_EQ(RStarTree<1>::Attach(&pool2, edited).status().code(),
              StatusCode::kCorruption)
        << height;
  }
  EXPECT_EQ(pool2.num_frames(), resident);
  EXPECT_EQ(pool2.stats().logical_reads, logical);
}

TEST(RStarTreeTest, ReplaceChecksTheHeightAttachCouldNot) {
  // A root that does not read cleanly at Attach is attached unchecked;
  // once it reads, Replace refuses a height that contradicts it before
  // writing anything.
  MemPageFile base;
  FaultInjectingPageFile file(&base);
  BufferPool pool(&file, 64);
  std::vector<RTreeEntry<1>> one(1);
  one[0].box.lo = {0.1};
  one[0].box.hi = {0.2};
  RStarMeta meta;
  {
    auto tree = RStarTree<1>::BulkLoad(&pool, one);
    ASSERT_TRUE(tree.ok());
    meta = tree->meta();
  }
  ASSERT_TRUE(pool.Flush().ok());
  BufferPool reopened(&file, 64);
  meta.height = 3;
  file.FailNextReads(meta.root, 1);
  auto tree = RStarTree<1>::Attach(&reopened, meta);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Replace(one[0].box, 0, 0, Box<1>{{0.3}, {0.4}}).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(TreeSearch(*tree, one[0].box), std::vector<uint64_t>{0});
}

TEST(RStarTreeTest, BulkLoadEmptyAndTiny) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto empty = RStarTree<1>::BulkLoad(&pool, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_TRUE(empty->CheckInvariants().ok());

  std::vector<RTreeEntry<1>> one(1);
  one[0].box.lo = {0.1};
  one[0].box.hi = {0.2};
  one[0].a = 5;
  auto tiny = RStarTree<1>::BulkLoad(&pool, one);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->size(), 1u);
  EXPECT_EQ(tiny->height(), 1u);
  EXPECT_TRUE(tiny->CheckInvariants().ok());
}

TEST(RStarTreeTest, FanOutMatchesPageSize) {
  MemPageFile file(4096);
  BufferPool pool(&file, 16);
  auto tree1 = RStarTree<1>::BulkLoad(&pool, {});
  ASSERT_TRUE(tree1.ok());
  // Entry<1> = 2 doubles + 2 u64 = 32 bytes; (4096-16)/32 = 127.
  EXPECT_EQ(tree1->max_entries(), 127u);
  auto tree2 = RStarTree<2>::BulkLoad(&pool, {});
  ASSERT_TRUE(tree2.ok());
  // Entry<2> = 4 doubles + 2 u64 = 48 bytes; (4096-16)/48 = 85.
  EXPECT_EQ(tree2->max_entries(), 85u);
}

TEST(RStarTreeTest, HeightGrowsLogarithmically) {
  MemPageFile file;  // 4 KB pages: 1-D fan-out 127
  BufferPool pool(&file, 1 << 14);
  Rng rng(55);
  std::vector<RTreeEntry<1>> entries(20000);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].box = RandomBox<1>(rng, 0.001);
    entries[i].a = i;
  }
  std::sort(entries.begin(), entries.end(), [](const auto& x, const auto& y) {
    return x.box.lo[0] < y.box.lo[0];
  });
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  // 20000 entries / 127 per leaf = 158 leaves; height must be 3.
  EXPECT_EQ(tree->height(), 3u);
}

TEST(RStarTreeTest, DuplicateBoxesAllRetrievable) {
  MemPageFile file(512);
  BufferPool pool(&file, 64);
  Box<1> b;
  b.lo = {0.5};
  b.hi = {0.5};
  std::vector<RTreeEntry<1>> entries(200);
  for (int i = 0; i < 200; ++i) entries[i] = {b, static_cast<uint64_t>(i)};
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  const auto hits = TreeSearch(*tree, b);
  EXPECT_EQ(hits.size(), 200u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

}  // namespace
}  // namespace fielddb
