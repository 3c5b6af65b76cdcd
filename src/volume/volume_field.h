#ifndef FIELDDB_VOLUME_VOLUME_FIELD_H_
#define FIELDDB_VOLUME_VOLUME_FIELD_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "common/status.h"

namespace fielddb {

/// Index of a voxel cell in a volume field.
using VoxelId = uint32_t;

/// Self-contained record of one hexahedral cell: its id plus the eight
/// corner samples (order: bit 0 = +x, bit 1 = +y, bit 2 = +z). Geometry
/// is derived from the id and the grid dimensions, which the database
/// retains. The unit stored in the volume cell store.
struct VoxelRecord {
  static constexpr uint32_t num_vertices = 8;

  VoxelId id = 0;
  uint32_t reserved = 0;
  double w[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  ValueInterval Interval() const {
    ValueInterval iv = ValueInterval::Empty();
    for (const double v : w) iv.Extend(v);
    return iv;
  }
};

static_assert(sizeof(VoxelRecord) == 72,
              "VoxelRecord layout is part of the store page format");

/// A 3-D scalar field on a regular hexahedral grid over the unit cube —
/// the paper's "3-D volume field" of hexahedra (Section 2.1): nx*ny*nz
/// cells with samples at the (nx+1)(ny+1)(nz+1) grid vertices and
/// trilinear interpolation inside each cell (extrema at corners, so a
/// cell's value interval is its corner hull). Models e.g. geological
/// structures or ocean temperature at depth.
class VolumeGridField {
 public:
  /// `samples` holds (nx+1)(ny+1)(nz+1) values, x-fastest then y then z.
  static StatusOr<VolumeGridField> Create(uint32_t nx, uint32_t ny,
                                          uint32_t nz,
                                          std::vector<double> samples);

  VoxelId NumCells() const { return nx_ * ny_ * nz_; }
  uint32_t nx() const { return nx_; }
  uint32_t ny() const { return ny_; }
  uint32_t nz() const { return nz_; }

  double SampleAt(uint32_t i, uint32_t j, uint32_t k) const {
    return samples_[(static_cast<size_t>(k) * (ny_ + 1) + j) * (nx_ + 1) +
                    i];
  }

  /// Voxel (ci, cj, ck) of cell id (x-fastest layout).
  std::array<uint32_t, 3> VoxelCoords(VoxelId id) const {
    return {static_cast<uint32_t>(id % nx_),
            static_cast<uint32_t>((id / nx_) % ny_),
            static_cast<uint32_t>(id / (static_cast<uint64_t>(nx_) * ny_))};
  }

  VoxelRecord GetCell(VoxelId id) const;

  ValueInterval ValueRange() const { return value_range_; }

  /// Trilinear value at (x, y, z) in the unit cube.
  StatusOr<double> ValueAt(double x, double y, double z) const;

  /// Volume of one voxel (the unit cube holds nx*ny*nz of them).
  double VoxelVolume() const {
    return 1.0 / (static_cast<double>(nx_) * ny_ * nz_);
  }

 private:
  VolumeGridField(uint32_t nx, uint32_t ny, uint32_t nz,
                  std::vector<double> samples);

  uint32_t nx_, ny_, nz_;
  std::vector<double> samples_;
  ValueInterval value_range_;
};

/// Generates a 3-D fractal volume by spectral-free midpoint-style value
/// noise: a few octaves of trilinearly-interpolated random lattices with
/// per-octave amplitude 2^-H — the 3-D analogue of the paper's
/// diamond-square terrain. Deterministic in the seed.
struct VolumeFractalOptions {
  uint32_t nx = 32, ny = 32, nz = 32;
  double roughness_h = 0.5;
  int octaves = 5;
  uint64_t seed = 77;
};

StatusOr<VolumeGridField> MakeFractalVolume(
    const VolumeFractalOptions& options);

}  // namespace fielddb

#endif  // FIELDDB_VOLUME_VOLUME_FIELD_H_
