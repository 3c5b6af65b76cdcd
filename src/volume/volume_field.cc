#include "volume/volume_field.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace fielddb {

VolumeGridField::VolumeGridField(uint32_t nx, uint32_t ny, uint32_t nz,
                                 std::vector<double> samples)
    : nx_(nx), ny_(ny), nz_(nz), samples_(std::move(samples)) {
  value_range_ = ValueInterval::Empty();
  for (const double w : samples_) value_range_.Extend(w);
}

StatusOr<VolumeGridField> VolumeGridField::Create(
    uint32_t nx, uint32_t ny, uint32_t nz, std::vector<double> samples) {
  if (nx == 0 || ny == 0 || nz == 0) {
    return Status::InvalidArgument("volume must have at least one voxel");
  }
  const size_t expected = static_cast<size_t>(nx + 1) * (ny + 1) * (nz + 1);
  if (samples.size() != expected) {
    return Status::InvalidArgument(
        "expected " + std::to_string(expected) + " samples, got " +
        std::to_string(samples.size()));
  }
  if (!AllFinite(samples)) {
    return Status::InvalidArgument("samples must be finite");
  }
  return VolumeGridField(nx, ny, nz, std::move(samples));
}

VoxelRecord VolumeGridField::GetCell(VoxelId id) const {
  const std::array<uint32_t, 3> c = VoxelCoords(id);
  VoxelRecord r;
  r.id = id;
  for (int corner = 0; corner < 8; ++corner) {
    r.w[corner] = SampleAt(c[0] + (corner & 1), c[1] + ((corner >> 1) & 1),
                           c[2] + ((corner >> 2) & 1));
  }
  return r;
}

StatusOr<double> VolumeGridField::ValueAt(double x, double y,
                                          double z) const {
  if (x < 0 || x > 1 || y < 0 || y > 1 || z < 0 || z > 1) {
    return Status::OutOfRange("point outside the unit cube");
  }
  const auto locate = [](double u, uint32_t n, uint32_t* cell,
                         double* frac) {
    const double scaled = u * n;
    *cell = static_cast<uint32_t>(
        std::clamp(std::floor(scaled), 0.0, static_cast<double>(n - 1)));
    *frac = scaled - *cell;
  };
  uint32_t ci, cj, ck;
  double fx, fy, fz;
  locate(x, nx_, &ci, &fx);
  locate(y, ny_, &cj, &fy);
  locate(z, nz_, &ck, &fz);

  double acc = 0.0;
  for (int corner = 0; corner < 8; ++corner) {
    const double wx = (corner & 1) ? fx : 1 - fx;
    const double wy = ((corner >> 1) & 1) ? fy : 1 - fy;
    const double wz = ((corner >> 2) & 1) ? fz : 1 - fz;
    acc += wx * wy * wz *
           SampleAt(ci + (corner & 1), cj + ((corner >> 1) & 1),
                    ck + ((corner >> 2) & 1));
  }
  return acc;
}

StatusOr<VolumeGridField> MakeFractalVolume(
    const VolumeFractalOptions& options) {
  if (options.roughness_h < 0 || options.roughness_h > 1 ||
      options.octaves < 1) {
    return Status::InvalidArgument("bad fractal options");
  }
  const uint32_t nx = options.nx, ny = options.ny, nz = options.nz;
  const size_t total =
      static_cast<size_t>(nx + 1) * (ny + 1) * (nz + 1);
  std::vector<double> samples(total, 0.0);
  Rng rng(options.seed);

  double amplitude = 1.0;
  const double decay = std::pow(2.0, -options.roughness_h);
  for (int octave = 0; octave < options.octaves; ++octave) {
    // Random lattice of period 2^octave cells, trilinearly interpolated
    // onto the sample grid.
    const uint32_t freq = uint32_t{1} << octave;
    const uint32_t lx = std::min(freq, nx) + 1;
    const uint32_t ly = std::min(freq, ny) + 1;
    const uint32_t lz = std::min(freq, nz) + 1;
    std::vector<double> lattice(static_cast<size_t>(lx) * ly * lz);
    for (double& v : lattice) v = rng.NextDouble(-amplitude, amplitude);
    const auto lat = [&](uint32_t i, uint32_t j, uint32_t k) {
      return lattice[(static_cast<size_t>(k) * ly + j) * lx + i];
    };
    size_t s = 0;
    for (uint32_t k = 0; k <= nz; ++k) {
      for (uint32_t j = 0; j <= ny; ++j) {
        for (uint32_t i = 0; i <= nx; ++i, ++s) {
          const double u = static_cast<double>(i) / nx * (lx - 1);
          const double v = static_cast<double>(j) / ny * (ly - 1);
          const double w = static_cast<double>(k) / nz * (lz - 1);
          const uint32_t i0 = std::min(static_cast<uint32_t>(u), lx - 2);
          const uint32_t j0 = std::min(static_cast<uint32_t>(v), ly - 2);
          const uint32_t k0 = std::min(static_cast<uint32_t>(w), lz - 2);
          const double fu = u - i0, fv = v - j0, fw = w - k0;
          double acc = 0.0;
          for (int c = 0; c < 8; ++c) {
            const double wu = (c & 1) ? fu : 1 - fu;
            const double wv = ((c >> 1) & 1) ? fv : 1 - fv;
            const double ww = ((c >> 2) & 1) ? fw : 1 - fw;
            acc += wu * wv * ww *
                   lat(i0 + (c & 1), j0 + ((c >> 1) & 1),
                       k0 + ((c >> 2) & 1));
          }
          samples[s] += acc;
        }
      }
    }
    amplitude *= decay;
  }
  return VolumeGridField::Create(nx, ny, nz, std::move(samples));
}

}  // namespace fielddb
