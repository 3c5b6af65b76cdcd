// Property test of the one subfield refresh every field type shares
// (RefreshSubfieldAfterUpdate): after 200 seeded sample edits that grow,
// shrink or keep cells' keys, every stored subfield key is still the
// tight hull of its members' keys and its SI their size sum, every tree
// keeps its invariants and the root, height, size and node count Build
// gave it (updates rewrite entries in place), and a 16-query sweep
// through the index answers exactly like a fresh Build of the updated
// field. Grid I-All, whose tree holds one entry per cell, runs the same
// edits.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/field_database.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "index/i_all.h"
#include "index/i_hilbert.h"
#include "index/interval_quadtree.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"
#include "query_util.h"

namespace fielddb {
namespace {

constexpr int kUpdates = 200;
constexpr uint32_t kQueries = 16;

// Edits a sample lattice one vertex at a time: grow lifts a vertex above
// every sample so far, shrink restores a grown vertex (its cells' keys
// shrink back), keep re-sends a vertex's current value (keys unchanged).
class VertexEdits {
 public:
  VertexEdits(std::vector<double>* samples, uint64_t seed)
      : samples_(samples), original_(*samples), rng_(seed) {
    top_ = *std::max_element(samples->begin(), samples->end());
  }

  // Edits one vertex and returns its index.
  size_t Next() {
    const uint64_t kind = rng_.NextU64() % 3;
    if (kind == 1 && !grown_.empty()) {
      const size_t pick = rng_.NextU64() % grown_.size();
      const size_t v = grown_[pick];
      grown_[pick] = grown_.back();
      grown_.pop_back();
      (*samples_)[v] = original_[v];
      return v;
    }
    const size_t v = rng_.NextU64() % samples_->size();
    if (kind == 2) return v;
    top_ += 1.0 + rng_.NextDouble();
    (*samples_)[v] = top_;
    grown_.push_back(v);
    return v;
  }

 private:
  std::vector<double>* samples_;
  std::vector<double> original_;
  std::vector<size_t> grown_;
  double top_;
  Rng rng_;
};

// The (n+1)^2 samples of a fractal grid, i fastest.
std::vector<double> FractalSamples(int size_exp, uint64_t seed) {
  FractalOptions fo;
  fo.size_exp = size_exp;
  fo.seed = seed;
  return DiamondSquare(fo);
}

// The four corner samples of grid cell (ci, cj) in CellRecord::Quad
// order, from a lattice with `n` cells per side.
std::vector<double> QuadCorners(const double* s, uint32_t n, uint32_t ci,
                                uint32_t cj) {
  const auto at = [&](uint32_t i, uint32_t j) { return s[j * (n + 1) + i]; };
  return {at(ci, cj), at(ci + 1, cj), at(ci + 1, cj + 1), at(ci, cj + 1)};
}

// The grid cells (ci, cj) around lattice vertex (vi, vj).
std::vector<std::pair<uint32_t, uint32_t>> CellsAround(uint32_t vi,
                                                       uint32_t vj,
                                                       uint32_t n) {
  std::vector<std::pair<uint32_t, uint32_t>> cells;
  for (uint32_t cj = vj > 0 ? vj - 1 : 0; cj <= std::min(vj, n - 1); ++cj) {
    for (uint32_t ci = vi > 0 ? vi - 1 : 0; ci <= std::min(vi, n - 1);
         ++ci) {
      cells.emplace_back(ci, cj);
    }
  }
  return cells;
}

// Region pieces as a sorted multiset of flattened vertex lists.
std::vector<std::vector<double>> Pieces(const Region& region) {
  std::vector<std::vector<double>> pieces;
  for (const ConvexPolygon& poly : region.pieces) {
    std::vector<double> flat;
    for (const Point2& v : poly.vertices) {
      flat.push_back(v.x);
      flat.push_back(v.y);
    }
    pieces.push_back(std::move(flat));
  }
  std::sort(pieces.begin(), pieces.end());
  return pieces;
}

// Half the bands over the original values, half over the updated ones
// (the grown outliers).
std::vector<ValueInterval> Bands(const ValueInterval& original,
                                 const ValueInterval& updated,
                                 double fraction) {
  std::vector<ValueInterval> bands = GenerateValueQueries(
      original, WorkloadOptions{fraction, kQueries / 2, 23});
  const std::vector<ValueInterval> high = GenerateValueQueries(
      updated, WorkloadOptions{fraction, kQueries / 2, 29});
  bands.insert(bands.end(), high.begin(), high.end());
  return bands;
}

// Checks each scalar subfield against its members' keys, `key_at(pos)`.
template <typename KeyAt>
void ExpectExactSubfields(const std::vector<Subfield>& subfields,
                          const KeyAt& key_at) {
  for (const Subfield& sf : subfields) {
    ValueInterval hull = ValueInterval::Empty();
    double si = 0.0;
    for (uint64_t pos = sf.start; pos < sf.end; ++pos) {
      const ValueInterval key = key_at(pos);
      hull.Extend(key);
      si += key.PaperSize();
    }
    EXPECT_EQ(sf.interval, hull) << "subfield at " << sf.start;
    EXPECT_EQ(sf.sum_interval_sizes, si) << "subfield at " << sf.start;
  }
}

// Checks that `tree` still has the shape Build gave it, `built`.
template <int Dim>
void ExpectBuiltShape(const RStarTree<Dim>& tree, const RStarMeta& built) {
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.meta().root, built.root);
  EXPECT_EQ(tree.height(), built.height);
  EXPECT_EQ(tree.size(), built.size);
  EXPECT_EQ(tree.num_nodes(), built.num_nodes);
}

// The value tree of a grid index.
const RStarTree<1>& ValueTree(const ValueIndex& index) {
  switch (index.method()) {
    case IndexMethod::kIAll:
      return static_cast<const IAllIndex&>(index).tree();
    case IndexMethod::kIHilbert:
      return static_cast<const IHilbertIndex&>(index).tree();
    default:
      return static_cast<const IntervalQuadtreeIndex&>(index).tree();
  }
}

class GridRefreshTest : public ::testing::TestWithParam<IndexMethod> {};

TEST_P(GridRefreshTest, SubfieldKeysStayExact) {
  const int size_exp = 5;
  const uint32_t n = 1u << size_exp;
  const Rect2 domain{{0, 0}, {1, 1}};
  std::vector<double> samples = FractalSamples(size_exp, 19);
  auto field = GridField::Create(n, n, domain, samples);
  ASSERT_TRUE(field.ok());
  FieldDatabaseOptions options;
  options.method = GetParam();
  auto db = FieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const RStarMeta built = ValueTree((*db)->index()).meta();

  VertexEdits edits(&samples, 7);
  for (int u = 0; u < kUpdates; ++u) {
    const size_t v = edits.Next();
    for (const auto& [ci, cj] : CellsAround(v % (n + 1), v / (n + 1), n)) {
      ASSERT_TRUE((*db)->UpdateCellValues(
                          cj * n + ci, QuadCorners(samples.data(), n, ci, cj))
                      .ok());
    }
  }

  const ValueIndex& index = (*db)->index();
  if (GetParam() != IndexMethod::kIAll) {
    ExpectExactSubfields(*(*db)->subfields(), [&](uint64_t pos) {
      CellRecord cell;
      EXPECT_TRUE(index.cell_store().records().Get(pos, &cell).ok());
      return cell.Interval();
    });
  }
  ExpectBuiltShape(ValueTree(index), built);

  auto updated = GridField::Create(n, n, domain, samples);
  ASSERT_TRUE(updated.ok());
  auto fresh = FieldDatabase::Build(*updated, options);
  ASSERT_TRUE(fresh.ok());
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  (*fresh)->set_planner_mode(PlannerMode::kForceIndex);
  for (const ValueInterval& band :
       Bands(field->ValueRange(), updated->ValueRange(), 0.1)) {
    ValueQueryResult got, want;
    ASSERT_TRUE(QueryOne(**db, band, &got).ok());
    ASSERT_TRUE(QueryOne(**fresh, band, &want).ok());
    EXPECT_EQ(got.stats.answer_cells, want.stats.answer_cells);
    EXPECT_EQ(Pieces(got.region), Pieces(want.region));
  }
}

INSTANTIATE_TEST_SUITE_P(
    TreeMethods, GridRefreshTest,
    ::testing::Values(IndexMethod::kIAll, IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(VectorRefreshTest, SubfieldBoxesStayExact) {
  const int size_exp = 4;
  const uint32_t n = 1u << size_exp;
  const size_t per = (n + 1) * (n + 1);
  const Rect2 domain{{0, 0}, {1, 1}};
  // u samples, then v samples: one lattice for the edits.
  std::vector<double> uv = FractalSamples(size_exp, 31);
  const std::vector<double> v0 = FractalSamples(size_exp, 37);
  uv.insert(uv.end(), v0.begin(), v0.end());
  const auto make_field = [&] {
    return VectorGridField::Create(
        n, n, domain, std::vector<double>(uv.begin(), uv.begin() + per),
        std::vector<double>(uv.begin() + per, uv.end()));
  };
  auto field = make_field();
  ASSERT_TRUE(field.ok());
  VectorFieldDatabase::Options options;
  auto db = VectorFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const RStarMeta built = (*db)->tree()->meta();

  VertexEdits edits(&uv, 8);
  for (int u = 0; u < kUpdates; ++u) {
    const size_t v = edits.Next() % per;
    for (const auto& [ci, cj] : CellsAround(v % (n + 1), v / (n + 1), n)) {
      ASSERT_TRUE((*db)->UpdateCellValues(
                          cj * n + ci, QuadCorners(uv.data(), n, ci, cj),
                          QuadCorners(uv.data() + per, n, ci, cj))
                      .ok());
    }
  }

  for (const VectorSubfield& sf : (*db)->subfields()) {
    Box<2> hull = Box<2>::Empty();
    double si = 0.0;
    for (uint64_t pos = sf.start; pos < sf.end; ++pos) {
      const Box<2> box = (*db)->zone_map().At(pos);
      hull.Extend(box);
      si += (box.hi[0] - box.lo[0] + 1.0) * (box.hi[1] - box.lo[1] + 1.0);
    }
    EXPECT_EQ(sf.box, hull) << "subfield at " << sf.start;
    EXPECT_EQ(sf.sum_box_sizes, si) << "subfield at " << sf.start;
  }
  ExpectBuiltShape(*(*db)->tree(), built);

  auto updated = make_field();
  ASSERT_TRUE(updated.ok());
  auto fresh = VectorFieldDatabase::Build(*updated, options);
  ASSERT_TRUE(fresh.ok());
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  (*fresh)->set_planner_mode(PlannerMode::kForceIndex);
  const Box<2> before = field->ValueRangeBox();
  const Box<2> after = updated->ValueRangeBox();
  const std::vector<ValueInterval> us =
      Bands({before.lo[0], before.hi[0]}, {after.lo[0], after.hi[0]}, 0.5);
  const std::vector<ValueInterval> vs =
      Bands({before.lo[1], before.hi[1]}, {after.lo[1], after.hi[1]}, 0.5);
  for (uint32_t q = 0; q < kQueries; ++q) {
    // The bands over the updated values constrain one component only,
    // so the cells grown in it answer.
    VectorBandQuery query;
    query.u = us[q];
    query.v = vs[q];
    if (q >= kQueries / 2) {
      if (q % 2 == 0) {
        query.u = ValueInterval{after.lo[0], after.hi[0]};
      } else {
        query.v = ValueInterval{after.lo[1], after.hi[1]};
      }
    }
    VectorQueryResult got, want;
    ASSERT_TRUE((*db)->BandQuery(query, &got).ok());
    ASSERT_TRUE((*fresh)->BandQuery(query, &want).ok());
    EXPECT_EQ(got.stats.answer_cells, want.stats.answer_cells);
    EXPECT_EQ(Pieces(got.region), Pieces(want.region));
  }
}

TEST(VolumeRefreshTest, SubfieldKeysStayExact) {
  const uint32_t nv = 8;  // voxels per side
  VolumeFractalOptions vo;
  vo.nx = vo.ny = vo.nz = nv;
  auto original = MakeFractalVolume(vo);
  ASSERT_TRUE(original.ok());
  const uint32_t s = nv + 1;  // samples per side, x fastest
  std::vector<double> samples;
  for (uint32_t k = 0; k < s; ++k) {
    for (uint32_t j = 0; j < s; ++j) {
      for (uint32_t i = 0; i < s; ++i) {
        samples.push_back(original->SampleAt(i, j, k));
      }
    }
  }
  VolumeFieldDatabase::Options options;
  auto db = VolumeFieldDatabase::Build(*original, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const RStarMeta built = (*db)->tree()->meta();

  VertexEdits edits(&samples, 9);
  for (int u = 0; u < kUpdates; ++u) {
    const size_t v = edits.Next();
    const uint32_t vi = v % s, vj = (v / s) % s, vk = v / (s * s);
    for (uint32_t ck = vk > 0 ? vk - 1 : 0; ck <= std::min(vk, nv - 1);
         ++ck) {
      for (uint32_t cj = vj > 0 ? vj - 1 : 0; cj <= std::min(vj, nv - 1);
           ++cj) {
        for (uint32_t ci = vi > 0 ? vi - 1 : 0; ci <= std::min(vi, nv - 1);
             ++ci) {
          std::vector<double> w(8);
          for (uint32_t corner = 0; corner < 8; ++corner) {
            w[corner] = samples[((ck + (corner >> 2)) * s +
                                 cj + ((corner >> 1) & 1)) *
                                    s +
                                ci + (corner & 1)];
          }
          ASSERT_TRUE((*db)->UpdateVoxelValues(ci + nv * (cj + nv * ck), w)
                          .ok());
        }
      }
    }
  }

  ExpectExactSubfields((*db)->subfields(),
                       [&](uint64_t pos) { return (*db)->zone_map().At(pos); });
  ExpectBuiltShape(*(*db)->tree(), built);

  auto updated = VolumeGridField::Create(nv, nv, nv, samples);
  ASSERT_TRUE(updated.ok());
  auto fresh = VolumeFieldDatabase::Build(*updated, options);
  ASSERT_TRUE(fresh.ok());
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  (*fresh)->set_planner_mode(PlannerMode::kForceIndex);
  for (const ValueInterval& band :
       Bands(original->ValueRange(), updated->ValueRange(), 0.1)) {
    VolumeQueryResult got, want;
    ASSERT_TRUE((*db)->BandQuery(band, &got).ok());
    ASSERT_TRUE((*fresh)->BandQuery(band, &want).ok());
    EXPECT_EQ(got.stats.answer_cells, want.stats.answer_cells);
    EXPECT_DOUBLE_EQ(got.volume, want.volume);
  }
}

TEST(TemporalRefreshTest, SlabSubfieldKeysStayExact) {
  const int size_exp = 4;
  const uint32_t n = 1u << size_exp;
  const uint32_t num_snapshots = 4;
  const size_t per = (n + 1) * (n + 1);
  const Rect2 domain{{0, 0}, {1, 1}};
  // Snapshot 0's samples, then snapshot 1's, ...: one lattice for the
  // edits.
  std::vector<double> all;
  for (uint32_t k = 0; k < num_snapshots; ++k) {
    const std::vector<double> snap = FractalSamples(size_exp, 41 + k);
    all.insert(all.end(), snap.begin(), snap.end());
  }
  const auto make_field = [&] {
    std::vector<std::vector<double>> snapshots;
    for (uint32_t k = 0; k < num_snapshots; ++k) {
      snapshots.emplace_back(all.begin() + k * per,
                             all.begin() + (k + 1) * per);
    }
    return TemporalGridField::Create(n, n, domain, std::move(snapshots));
  };
  auto field = make_field();
  ASSERT_TRUE(field.ok());
  TemporalFieldDatabase::Options options;
  auto db = TemporalFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const RStarMeta built = (*db)->tree().meta();

  VertexEdits edits(&all, 10);
  for (int u = 0; u < kUpdates; ++u) {
    const size_t v = edits.Next();
    const uint32_t snapshot = static_cast<uint32_t>(v / per);
    const size_t vertex = v % per;
    for (const auto& [ci, cj] :
         CellsAround(vertex % (n + 1), vertex / (n + 1), n)) {
      ASSERT_TRUE((*db)->UpdateSnapshotCellValues(
                          snapshot, cj * n + ci,
                          QuadCorners(all.data() + snapshot * per, n, ci, cj))
                      .ok());
    }
  }

  for (uint32_t k = 0; k < (*db)->num_slabs(); ++k) {
    SCOPED_TRACE(k);
    ExpectExactSubfields((*db)->slab_subfields(k), [&](uint64_t pos) {
      return (*db)->slab_zone_map(k).At(pos);
    });
  }
  ExpectBuiltShape((*db)->tree(), built);

  auto updated = make_field();
  ASSERT_TRUE(updated.ok());
  auto fresh = TemporalFieldDatabase::Build(*updated, options);
  ASSERT_TRUE(fresh.ok());
  (*db)->set_planner_mode(PlannerMode::kForceIndex);
  (*fresh)->set_planner_mode(PlannerMode::kForceIndex);
  const std::vector<ValueInterval> bands =
      Bands(field->ValueRange(), updated->ValueRange(), 0.1);
  for (uint32_t q = 0; q < kQueries; ++q) {
    // Times sweep [0, T-1], slab boundaries included.
    const double t = (num_snapshots - 1) * static_cast<double>(q) /
                     (kQueries - 1);
    ValueQueryResult got, want;
    ASSERT_TRUE((*db)->SnapshotValueQuery(t, bands[q], &got).ok());
    ASSERT_TRUE((*fresh)->SnapshotValueQuery(t, bands[q], &want).ok());
    EXPECT_EQ(got.stats.answer_cells, want.stats.answer_cells);
    EXPECT_EQ(Pieces(got.region), Pieces(want.region));
  }
}

}  // namespace
}  // namespace fielddb
