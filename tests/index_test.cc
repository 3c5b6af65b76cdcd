#include "index/value_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "core/shard.h"
#include "gen/fractal.h"
#include "gen/noise_tin.h"
#include "gen/workload.h"
#include "index/i_all.h"
#include "index/i_hilbert.h"
#include "index/interval_quadtree.h"
#include "index/linear_scan.h"
#include "index/row_ip_index.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

struct IndexFixture {
  std::unique_ptr<MemPageFile> file;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<ValueIndex> index;
};

IndexFixture BuildIndex(IndexMethod method, const Field& field) {
  IndexFixture fx;
  fx.file = std::make_unique<MemPageFile>();
  fx.pool = std::make_unique<BufferPool>(fx.file.get(), 4096);
  switch (method) {
    case IndexMethod::kLinearScan: {
      auto idx = LinearScanIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIAll: {
      auto idx = IAllIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIHilbert: {
      auto idx = IHilbertIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kIntervalQuadtree: {
      auto idx = IntervalQuadtreeIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
    case IndexMethod::kRowIp: {
      auto idx = RowIpIndex::Build(fx.pool.get(), field);
      EXPECT_TRUE(idx.ok());
      fx.index = std::move(idx).value();
      break;
    }
  }
  return fx;
}

// Field cell ids whose own interval intersects the query — the ground
// truth every filtering step must cover.
std::set<CellId> GroundTruth(const Field& field, const ValueInterval& q) {
  std::set<CellId> hits;
  for (CellId id = 0; id < field.NumCells(); ++id) {
    if (field.GetCell(id).Interval().Intersects(q)) hits.insert(id);
  }
  return hits;
}

// Candidate runs expanded to individual positions.
std::vector<uint64_t> FilterPositions(const ValueIndex& index,
                                      const ValueInterval& q) {
  std::vector<PosRange> ranges;
  EXPECT_TRUE(index.FilterCandidateRanges(q, &ranges).ok());
  std::vector<uint64_t> positions;
  for (const PosRange& r : ranges) {
    for (uint64_t pos = r.begin; pos < r.end; ++pos) {
      positions.push_back(pos);
    }
  }
  return positions;
}

// Candidate positions translated back to field cell ids.
std::set<CellId> CandidateCellIds(const ValueIndex& index,
                                  const ValueInterval& q) {
  const std::vector<uint64_t> positions = FilterPositions(index, q);
  std::set<CellId> ids;
  CellRecord rec;
  for (const uint64_t pos : positions) {
    EXPECT_TRUE(index.cell_store().records().Get(pos, &rec).ok());
    ids.insert(rec.id);
  }
  EXPECT_EQ(ids.size(), positions.size()) << "duplicate candidates";
  return ids;
}

class IndexEquivalenceTest
    : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(IndexEquivalenceTest, NoFalseNegativesOnFractalGrid) {
  FractalOptions fo;
  fo.size_exp = 5;  // 1024 cells
  fo.roughness_h = 0.5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);

  const auto queries = GenerateValueQueries(
      field->ValueRange(), WorkloadOptions{0.05, 40, 3});
  for (const ValueInterval& q : queries) {
    const std::set<CellId> truth = GroundTruth(*field, q);
    const std::set<CellId> candidates = CandidateCellIds(*fx.index, q);
    for (const CellId id : truth) {
      ASSERT_TRUE(candidates.count(id))
          << IndexMethodName(GetParam()) << " missed cell " << id
          << " for query " << q.ToString();
    }
  }
}

TEST_P(IndexEquivalenceTest, NoFalseNegativesOnTin) {
  NoiseTinOptions no;
  no.num_sites = 400;
  auto field = MakeUrbanNoiseTin(no);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);

  const auto queries = GenerateValueQueries(
      field->ValueRange(), WorkloadOptions{0.02, 25, 5});
  for (const ValueInterval& q : queries) {
    const std::set<CellId> truth = GroundTruth(*field, q);
    const std::set<CellId> candidates = CandidateCellIds(*fx.index, q);
    for (const CellId id : truth) {
      ASSERT_TRUE(candidates.count(id));
    }
  }
}

TEST_P(IndexEquivalenceTest, CandidatesAscendingPositions) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);
  const std::vector<uint64_t> positions = FilterPositions(
      *fx.index,
      ValueInterval{field->ValueRange().min, field->ValueRange().max});
  EXPECT_EQ(positions.size(), field->NumCells());  // full-range query
  for (size_t i = 1; i < positions.size(); ++i) {
    EXPECT_LT(positions[i - 1], positions[i]);
  }
}

TEST_P(IndexEquivalenceTest, DisjointQueryYieldsNothingExact) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(GetParam(), *field);
  const ValueInterval range = field->ValueRange();
  const ValueInterval far_above{range.max + 10, range.max + 11};
  EXPECT_TRUE(FilterPositions(*fx.index, far_above).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, IndexEquivalenceTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(LinearScanTest, ExactCandidatesOnly) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(IndexMethod::kLinearScan, *field);
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.03, 20, 9});
  for (const ValueInterval& q : queries) {
    EXPECT_EQ(CandidateCellIds(*fx.index, q), GroundTruth(*field, q));
  }
}

TEST(IAllTest, ExactCandidatesOnly) {
  // I-All indexes individual intervals, so it has no false positives
  // either.
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(IndexMethod::kIAll, *field);
  const auto queries = GenerateValueQueries(field->ValueRange(),
                                            WorkloadOptions{0.03, 20, 9});
  for (const ValueInterval& q : queries) {
    EXPECT_EQ(CandidateCellIds(*fx.index, q), GroundTruth(*field, q));
  }
}

TEST(IHilbertTest, SubfieldsPartitionStore) {
  FractalOptions fo;
  fo.size_exp = 6;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(IndexMethod::kIHilbert, *field);
  const auto* ih = static_cast<const IHilbertIndex*>(fx.index.get());

  const auto& sfs = ih->subfields();
  ASSERT_FALSE(sfs.empty());
  EXPECT_EQ(sfs.front().start, 0u);
  EXPECT_EQ(sfs.back().end, field->NumCells());
  for (size_t i = 0; i + 1 < sfs.size(); ++i) {
    EXPECT_EQ(sfs[i].end, sfs[i + 1].start);
  }
  EXPECT_EQ(ih->build_info().num_subfields, sfs.size());
  // The whole point: far fewer index entries than cells.
  EXPECT_LT(sfs.size(), field->NumCells() / 4);
}

TEST(IHilbertTest, SubfieldIntervalCoversMembers) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(IndexMethod::kIHilbert, *field);
  const auto* ih = static_cast<const IHilbertIndex*>(fx.index.get());
  CellRecord rec;
  for (const Subfield& sf : ih->subfields()) {
    for (uint64_t pos = sf.start; pos < sf.end; ++pos) {
      ASSERT_TRUE(ih->cell_store().records().Get(pos, &rec).ok());
      const ValueInterval iv = rec.Interval();
      EXPECT_GE(iv.min, sf.interval.min);
      EXPECT_LE(iv.max, sf.interval.max);
    }
  }
}

TEST(IHilbertTest, StoreIsHilbertOrdered) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  // The router's partition keys are I-Hilbert's order.
  const std::vector<std::pair<uint64_t, CellId>> order =
      HilbertPartitionKeys(*field);
  IndexFixture fx = BuildIndex(IndexMethod::kIHilbert, *field);
  CellRecord rec;
  for (uint64_t pos = 0; pos < order.size(); ++pos) {
    ASSERT_TRUE(fx.index->cell_store().records().Get(pos, &rec).ok());
    EXPECT_EQ(rec.id, order[pos].second);
  }
}

TEST(IHilbertTest, FilterSubfieldsFindsIntersecting) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  IndexFixture fx = BuildIndex(IndexMethod::kIHilbert, *field);
  const auto* ih = static_cast<const IHilbertIndex*>(fx.index.get());
  const ValueInterval range = field->ValueRange();
  const ValueInterval q{range.min + 0.3 * range.Length(),
                        range.min + 0.4 * range.Length()};
  std::vector<uint32_t> ids;
  ASSERT_TRUE(ih->FilterSubfields(q, &ids).ok());
  std::set<uint32_t> expected;
  for (uint32_t i = 0; i < ih->subfields().size(); ++i) {
    if (ih->subfields()[i].interval.Intersects(q)) expected.insert(i);
  }
  EXPECT_EQ(std::set<uint32_t>(ids.begin(), ids.end()), expected);
}

TEST(IHilbertTest, CurveChoiceAffectsSubfieldCount) {
  // Hilbert linearization should need no more subfields than row-major
  // (better clustering => longer similar-value runs). This pins the
  // paper's motivation for Hilbert ordering.
  FractalOptions fo;
  fo.size_exp = 7;  // 16384 cells
  fo.roughness_h = 0.7;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  const auto count_subfields = [&](CurveType curve) {
    MemPageFile file;
    BufferPool pool(&file, 4096);
    IHilbertOptions options;
    options.curve = curve;
    auto idx = IHilbertIndex::Build(&pool, *field, options);
    EXPECT_TRUE(idx.ok());
    return (*idx)->subfields().size();
  };
  EXPECT_LT(count_subfields(CurveType::kHilbert),
            count_subfields(CurveType::kRowMajor));
}

TEST(IntervalQuadtreeTest, ThresholdControlsPartition) {
  FractalOptions fo;
  fo.size_exp = 6;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());

  const auto count_subfields = [&](double threshold) {
    MemPageFile file;
    BufferPool pool(&file, 4096);
    IntervalQuadtreeOptions options;
    options.threshold_fraction = threshold;
    auto idx = IntervalQuadtreeIndex::Build(&pool, *field, options);
    EXPECT_TRUE(idx.ok());
    return (*idx)->subfields().size();
  };
  // Tighter thresholds force deeper division -> more subfields.
  EXPECT_GT(count_subfields(0.02), count_subfields(0.5));
}

TEST(IntervalQuadtreeTest, SubfieldsRespectThreshold) {
  FractalOptions fo;
  fo.size_exp = 5;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  MemPageFile file;
  BufferPool pool(&file, 4096);
  IntervalQuadtreeOptions options;
  options.threshold_fraction = 0.25;
  auto idx = IntervalQuadtreeIndex::Build(&pool, *field, options);
  ASSERT_TRUE(idx.ok());
  const double threshold = 0.25 * field->ValueRange().Length();
  for (const Subfield& sf : (*idx)->subfields()) {
    // Single-cell quadrants may exceed the threshold (indivisible), as
    // may max-depth cutoffs; multi-cell quadrants must respect it.
    if (sf.NumCells() > 1) {
      EXPECT_LE(sf.interval.Length(), threshold + 1e-9);
    }
  }
}

TEST(IntervalQuadtreeTest, RejectsBadThreshold) {
  FractalOptions fo;
  fo.size_exp = 4;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  MemPageFile file;
  BufferPool pool(&file, 1024);
  IntervalQuadtreeOptions options;
  options.threshold_fraction = 0.0;
  EXPECT_FALSE(IntervalQuadtreeIndex::Build(&pool, *field, options).ok());
}

TEST(BuildInfoTest, ReportsSensibleNumbers) {
  FractalOptions fo;
  fo.size_exp = 6;
  auto field = MakeFractalField(fo);
  ASSERT_TRUE(field.ok());
  for (const IndexMethod method :
       {IndexMethod::kLinearScan, IndexMethod::kIAll,
        IndexMethod::kIHilbert, IndexMethod::kIntervalQuadtree}) {
    IndexFixture fx = BuildIndex(method, *field);
    const IndexBuildInfo& info = fx.index->build_info();
    EXPECT_EQ(info.num_cells, field->NumCells());
    EXPECT_GT(info.store_pages, 0u);
    if (method != IndexMethod::kLinearScan) {
      EXPECT_GT(info.num_index_entries, 0u);
      EXPECT_GT(info.tree_height, 0u);
    }
    if (method == IndexMethod::kIHilbert) {
      EXPECT_LT(info.num_index_entries, info.num_cells);
    }
    if (method == IndexMethod::kIAll) {
      EXPECT_EQ(info.num_index_entries, info.num_cells);
    }
  }
}

}  // namespace
}  // namespace fielddb
