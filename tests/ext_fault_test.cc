// Fault-injection coverage for the extension engines (vector, volume,
// temporal): their query and update paths run over a wrapped page file
// that injects transient read errors, detected corruption, and
// kill-points. Faults must surface as status errors (never wrong
// answers or crashes), the engines must recover once the fault clears,
// and the new update entry points must maintain their index invariants.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "gen/fractal.h"
#include "storage/fault_injection.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"

namespace fielddb {
namespace {

// Samples every update must refuse.
std::vector<double> NonFinite() {
  return {std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()};
}

// Factory installing a FaultInjectingPageFile around the default memory
// file; `*injector_out` receives the wrapper to schedule faults on.
std::function<std::unique_ptr<PageFile>(uint32_t)> InjectingFactory(
    FaultInjectingPageFile** injector_out) {
  return [injector_out](uint32_t page_size) -> std::unique_ptr<PageFile> {
    auto wrapped = std::make_unique<FaultInjectingPageFile>(
        std::make_unique<MemPageFile>(page_size));
    *injector_out = wrapped.get();
    return wrapped;
  };
}

// --- Vector fields ---------------------------------------------------

// u = x + y, v = x - y over the unit square (affine, analytic answers).
VectorGridField MakeAffineVectorField(uint32_t n) {
  std::vector<double> su, sv;
  for (uint32_t j = 0; j <= n; ++j) {
    for (uint32_t i = 0; i <= n; ++i) {
      const double x = static_cast<double>(i) / n;
      const double y = static_cast<double>(j) / n;
      su.push_back(x + y);
      sv.push_back(x - y);
    }
  }
  auto field = VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv);
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

class VectorFaultTest : public ::testing::TestWithParam<VectorIndexMethod> {
 protected:
  void Build(uint32_t n = 8) {
    field_ = std::make_unique<VectorGridField>(MakeAffineVectorField(n));
    VectorFieldDatabase::Options options;
    options.method = GetParam();
    options.page_file_factory = InjectingFactory(&injector_);
    auto db = VectorFieldDatabase::Build(*field_, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_NE(injector_, nullptr);
  }

  // A band covering the whole value space: touches every store page.
  VectorBandQuery EverythingQuery() const {
    VectorBandQuery q;
    q.u = ValueInterval{-1000, 1000};
    q.v = ValueInterval{-1000, 1000};
    return q;
  }

  std::unique_ptr<VectorGridField> field_;
  std::unique_ptr<VectorFieldDatabase> db_;
  FaultInjectingPageFile* injector_ = nullptr;
};

TEST_P(VectorFaultTest, ReadFaultSurfacesAndClears) {
  Build();
  VectorQueryResult reference;
  ASSERT_TRUE(db_->BandQuery(EverythingQuery(), &reference).ok());

  ASSERT_TRUE(db_->pool().Clear().ok());  // force physical reads
  injector_->FailAllReads(0);
  VectorQueryResult result;
  EXPECT_FALSE(db_->BandQuery(EverythingQuery(), &result).ok());
  EXPECT_GT(injector_->counters().read_errors, 0u);

  injector_->ClearFaults();
  ASSERT_TRUE(db_->BandQuery(EverythingQuery(), &result).ok());
  EXPECT_EQ(result.stats.answer_cells, reference.stats.answer_cells);
}

TEST_P(VectorFaultTest, DetectedCorruptionSurfaces) {
  Build();
  ASSERT_TRUE(db_->pool().Clear().ok());
  injector_->CorruptPage(0);
  VectorQueryResult result;
  const Status s = db_->BandQuery(EverythingQuery(), &result);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_P(VectorFaultTest, KillPointSweepNeverCorruptsState) {
  Build();
  VectorQueryResult reference;
  ASSERT_TRUE(db_->BandQuery(EverythingQuery(), &reference).ok());
  for (int ops = 0; ops < 8; ++ops) {
    SCOPED_TRACE(ops);
    ASSERT_TRUE(db_->pool().Clear().ok());
    injector_->KillAfterOps(ops);
    VectorQueryResult result;
    const Status s = db_->BandQuery(EverythingQuery(), &result);
    injector_->ClearFaults();
    if (s.ok()) {
      EXPECT_EQ(result.stats.answer_cells, reference.stats.answer_cells);
    }
    // Dead device or not, the engine recovers once the fault clears.
    ASSERT_TRUE(db_->pool().Clear().ok());
    VectorQueryResult after;
    ASSERT_TRUE(db_->BandQuery(EverythingQuery(), &after).ok());
    EXPECT_EQ(after.stats.answer_cells, reference.stats.answer_cells);
  }
}

TEST_P(VectorFaultTest, UpdateMovesCellAcrossBands) {
  Build();
  ASSERT_TRUE(
      db_->UpdateCellValues(5, std::vector<double>(4, 300.0),
                            std::vector<double>(4, -300.0))
          .ok());
  VectorBandQuery marker;
  marker.u = ValueInterval{299, 301};
  marker.v = ValueInterval{-301, -299};
  VectorQueryResult result;
  ASSERT_TRUE(db_->BandQuery(marker, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 1u);  // tree refresh: no false neg
  // The whole-space query still sees every cell exactly once.
  ASSERT_TRUE(db_->BandQuery(EverythingQuery(), &result).ok());
  EXPECT_EQ(result.stats.answer_cells, field_->NumCells());
}

TEST_P(VectorFaultTest, UpdateValidatesArguments) {
  Build();
  EXPECT_EQ(db_->UpdateCellValues(9999, {1, 1, 1, 1}, {1, 1, 1, 1}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(db_->UpdateCellValues(0, {1, 1}, {1, 1, 1, 1}).code(),
            StatusCode::kInvalidArgument);
  for (const double bad : NonFinite()) {
    EXPECT_EQ(db_->UpdateCellValues(0, {1, bad, 1, 1}, {1, 1, 1, 1}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(db_->UpdateCellValues(0, {1, 1, 1, 1}, {1, 1, bad, 1}).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_P(VectorFaultTest, FaultedUpdateLeavesStateUnchanged) {
  Build();
  VectorQueryResult reference;
  ASSERT_TRUE(db_->BandQuery(EverythingQuery(), &reference).ok());

  ASSERT_TRUE(db_->pool().Clear().ok());
  for (PageId p = 0; p < injector_->NumPages(); ++p) {
    injector_->FailAllReads(p);
  }
  EXPECT_FALSE(db_->UpdateCellValues(5, std::vector<double>(4, 300.0),
                                     std::vector<double>(4, -300.0))
                   .ok());
  injector_->ClearFaults();

  // No marker values leaked in.
  VectorBandQuery marker;
  marker.u = ValueInterval{299, 301};
  marker.v = ValueInterval{-301, -299};
  VectorQueryResult result;
  ASSERT_TRUE(db_->BandQuery(marker, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 0u);
  ASSERT_TRUE(db_->BandQuery(EverythingQuery(), &result).ok());
  EXPECT_EQ(result.stats.answer_cells, reference.stats.answer_cells);

  // And the update path works once the device is healthy again.
  ASSERT_TRUE(db_->UpdateCellValues(5, std::vector<double>(4, 300.0),
                                    std::vector<double>(4, -300.0))
                  .ok());
  ASSERT_TRUE(db_->BandQuery(marker, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, VectorFaultTest,
                         ::testing::Values(VectorIndexMethod::kLinearScan,
                                           VectorIndexMethod::kIHilbert),
                         [](const auto& info) {
                           return info.param ==
                                          VectorIndexMethod::kLinearScan
                                      ? "LinearScan"
                                      : "IHilbert";
                         });

// --- Volume fields ---------------------------------------------------

class VolumeFaultTest : public ::testing::TestWithParam<VolumeIndexMethod> {
 protected:
  void Build() {
    VolumeFractalOptions fo;
    fo.nx = fo.ny = fo.nz = 4;  // 64 voxels
    auto field = MakeFractalVolume(fo);
    ASSERT_TRUE(field.ok());
    voxel_volume_ = field->VoxelVolume();
    num_voxels_ = field->NumCells();
    VolumeFieldDatabase::Options options;
    options.method = GetParam();
    options.page_file_factory = InjectingFactory(&injector_);
    auto db = VolumeFieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_NE(injector_, nullptr);
  }

  std::unique_ptr<VolumeFieldDatabase> db_;
  FaultInjectingPageFile* injector_ = nullptr;
  double voxel_volume_ = 0.0;
  uint64_t num_voxels_ = 0;
};

TEST_P(VolumeFaultTest, ReadFaultSurfacesAndClears) {
  Build();
  const ValueInterval everything{-1e6, 1e6};
  VolumeQueryResult reference;
  ASSERT_TRUE(db_->BandQuery(everything, &reference).ok());

  ASSERT_TRUE(db_->pool().Clear().ok());
  injector_->FailAllReads(0);
  VolumeQueryResult result;
  EXPECT_FALSE(db_->BandQuery(everything, &result).ok());

  injector_->ClearFaults();
  ASSERT_TRUE(db_->BandQuery(everything, &result).ok());
  EXPECT_DOUBLE_EQ(result.volume, reference.volume);
}

TEST_P(VolumeFaultTest, UpdateMovesVoxelAcrossBands) {
  Build();
  ASSERT_TRUE(
      db_->UpdateVoxelValues(7, std::vector<double>(8, 700.0)).ok());
  VolumeQueryResult result;
  ASSERT_TRUE(db_->BandQuery(ValueInterval{699, 701}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 1u);
  EXPECT_NEAR(result.volume, voxel_volume_, 1e-12);  // the whole voxel
  // Whole-space query still covers every voxel.
  ASSERT_TRUE(db_->BandQuery(ValueInterval{-1e6, 1e6}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, num_voxels_);
}

TEST_P(VolumeFaultTest, UpdateValidatesArguments) {
  Build();
  EXPECT_EQ(
      db_->UpdateVoxelValues(999999, std::vector<double>(8, 0.0)).code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(db_->UpdateVoxelValues(0, {1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);
  for (const double bad : NonFinite()) {
    std::vector<double> w(8, 1.0);
    w[3] = bad;
    EXPECT_EQ(db_->UpdateVoxelValues(0, w).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_P(VolumeFaultTest, FaultedUpdateLeavesStateUnchanged) {
  Build();
  ASSERT_TRUE(db_->pool().Clear().ok());
  for (PageId p = 0; p < injector_->NumPages(); ++p) {
    injector_->FailAllReads(p);
  }
  EXPECT_FALSE(
      db_->UpdateVoxelValues(7, std::vector<double>(8, 700.0)).ok());
  injector_->ClearFaults();
  VolumeQueryResult result;
  ASSERT_TRUE(db_->BandQuery(ValueInterval{699, 701}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothMethods, VolumeFaultTest,
                         ::testing::Values(VolumeIndexMethod::kLinearScan,
                                           VolumeIndexMethod::kIHilbert),
                         [](const auto& info) {
                           return info.param ==
                                          VolumeIndexMethod::kLinearScan
                                      ? "LinearScan"
                                      : "IHilbert";
                         });

// --- Temporal fields -------------------------------------------------

// T snapshots of a drifting fractal terrain (same generator as
// temporal_test).
TemporalGridField MakeDriftingField(int size_exp, uint32_t num_snapshots,
                                    uint64_t seed) {
  FractalOptions fo;
  fo.size_exp = size_exp;
  fo.roughness_h = 0.7;
  fo.seed = seed;
  const std::vector<double> base = DiamondSquare(fo);
  fo.seed = seed + 1;
  std::vector<double> trend = DiamondSquare(fo);
  for (double& w : trend) w *= 0.3;
  std::vector<std::vector<double>> snapshots(num_snapshots);
  for (uint32_t k = 0; k < num_snapshots; ++k) {
    snapshots[k].resize(base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      snapshots[k][i] = base[i] + k * trend[i];
    }
  }
  const uint32_t n = uint32_t{1} << size_exp;
  auto field = TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                         std::move(snapshots));
  EXPECT_TRUE(field.ok());
  return std::move(field).value();
}

class TemporalFaultTest : public ::testing::Test {
 protected:
  void Build() {
    TemporalFieldDatabase::Options options;
    options.page_file_factory = InjectingFactory(&injector_);
    const TemporalGridField field = MakeDriftingField(3, 4, 11);
    auto db = TemporalFieldDatabase::Build(field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    ASSERT_NE(injector_, nullptr);
  }

  std::unique_ptr<TemporalFieldDatabase> db_;
  FaultInjectingPageFile* injector_ = nullptr;
};

TEST_F(TemporalFaultTest, ReadFaultSurfacesAndClears) {
  Build();
  const ValueInterval everything{-1e6, 1e6};
  ValueQueryResult reference;
  ASSERT_TRUE(db_->SnapshotValueQuery(0.5, everything, &reference).ok());

  ASSERT_TRUE(db_->pool().Clear().ok());
  injector_->FailAllReads(0);
  ValueQueryResult result;
  EXPECT_FALSE(db_->SnapshotValueQuery(0.5, everything, &result).ok());

  injector_->ClearFaults();
  ASSERT_TRUE(db_->SnapshotValueQuery(0.5, everything, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, reference.stats.answer_cells);
}

TEST_F(TemporalFaultTest, TimeRangeCandidatesSurfacesFaults) {
  Build();
  ASSERT_TRUE(db_->pool().Clear().ok());
  injector_->FailAllReads(0);
  std::vector<CellId> cells;
  EXPECT_FALSE(
      db_->TimeRangeCandidates(ValueInterval{-1e6, 1e6}, 0, 3, &cells)
          .ok());
  injector_->ClearFaults();
  cells.clear();
  ASSERT_TRUE(
      db_->TimeRangeCandidates(ValueInterval{-1e6, 1e6}, 0, 3, &cells)
          .ok());
  EXPECT_EQ(cells.size(), 64u);  // every cell of the 8x8 grid
}

TEST_F(TemporalFaultTest, SnapshotUpdateVisibleInBothSlabs) {
  Build();
  // Rewrite cell 5's samples at snapshot 1 to a marker far outside the
  // native range. Snapshot 1 borders slabs [0,1] and [1,2]: queries at
  // t=1 must see the marker; t=0 and t=2 see the blended values only at
  // the updated endpoint, so the marker band is empty there.
  ASSERT_TRUE(
      db_->UpdateSnapshotCellValues(1, 5, std::vector<double>(4, 500.0))
          .ok());
  const ValueInterval marker{499, 501};
  ValueQueryResult at1;
  ASSERT_TRUE(db_->SnapshotValueQuery(1.0, marker, &at1).ok());
  EXPECT_EQ(at1.stats.answer_cells, 1u);
  ValueQueryResult at0, at2;
  ASSERT_TRUE(db_->SnapshotValueQuery(0.0, marker, &at0).ok());
  EXPECT_EQ(at0.stats.answer_cells, 0u);
  ASSERT_TRUE(db_->SnapshotValueQuery(2.0, marker, &at2).ok());
  EXPECT_EQ(at2.stats.answer_cells, 0u);
  // Mid-slab times interpolate toward the marker: at t=0.5 the cell
  // reaches ~250, far above the native range.
  ValueQueryResult mid;
  ASSERT_TRUE(
      db_->SnapshotValueQuery(0.5, ValueInterval{100, 400}, &mid).ok());
  EXPECT_EQ(mid.stats.answer_cells, 1u);
  // Time-range filtering finds the cell through the refreshed tree.
  std::vector<CellId> cells;
  ASSERT_TRUE(db_->TimeRangeCandidates(marker, 0, 3, &cells).ok());
  EXPECT_NE(std::find(cells.begin(), cells.end(), CellId{5}), cells.end());
}

TEST_F(TemporalFaultTest, BoundarySnapshotsTouchOneSlab) {
  Build();
  // Snapshot 0 only borders slab [0,1]; snapshot T-1 only [T-2, T-1].
  ASSERT_TRUE(
      db_->UpdateSnapshotCellValues(0, 3, std::vector<double>(4, 600.0))
          .ok());
  ASSERT_TRUE(
      db_->UpdateSnapshotCellValues(3, 9, std::vector<double>(4, 700.0))
          .ok());
  ValueQueryResult result;
  ASSERT_TRUE(
      db_->SnapshotValueQuery(0.0, ValueInterval{599, 601}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 1u);
  ASSERT_TRUE(
      db_->SnapshotValueQuery(3.0, ValueInterval{699, 701}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 1u);
}

TEST_F(TemporalFaultTest, UpdateValidatesArguments) {
  Build();
  EXPECT_EQ(db_->UpdateSnapshotCellValues(9, 0, {1, 1, 1, 1}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(db_->UpdateSnapshotCellValues(1, 9999, {1, 1, 1, 1}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(db_->UpdateSnapshotCellValues(1, 0, {1, 1}).code(),
            StatusCode::kInvalidArgument);
  for (const double bad : NonFinite()) {
    for (const uint32_t snapshot : {0u, 1u, 3u}) {
      EXPECT_EQ(
          db_->UpdateSnapshotCellValues(snapshot, 0, {1, bad, 1, 1}).code(),
          StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(TemporalFaultTest, FaultedUpdateLeavesStateUnchanged) {
  Build();
  ASSERT_TRUE(db_->pool().Clear().ok());
  for (PageId p = 0; p < injector_->NumPages(); ++p) {
    injector_->FailAllReads(p);
  }
  EXPECT_FALSE(
      db_->UpdateSnapshotCellValues(1, 5, std::vector<double>(4, 500.0))
          .ok());
  injector_->ClearFaults();
  ValueQueryResult result;
  ASSERT_TRUE(
      db_->SnapshotValueQuery(1.0, ValueInterval{499, 501}, &result).ok());
  EXPECT_EQ(result.stats.answer_cells, 0u);
}

}  // namespace
}  // namespace fielddb
