#include "temporal/temporal_field.h"

#include <cmath>

namespace fielddb {

TemporalGridField::TemporalGridField(
    uint32_t cols, uint32_t rows, const Rect2& domain,
    std::vector<std::vector<double>> snapshots)
    : cols_(cols), rows_(rows), domain_(domain),
      snapshots_(std::move(snapshots)) {
  value_range_ = ValueInterval::Empty();
  for (const auto& snapshot : snapshots_) {
    for (const double w : snapshot) value_range_.Extend(w);
  }
}

StatusOr<TemporalGridField> TemporalGridField::Create(
    uint32_t cols, uint32_t rows, const Rect2& domain,
    std::vector<std::vector<double>> snapshots) {
  if (cols == 0 || rows == 0) {
    return Status::InvalidArgument("grid must have at least one cell");
  }
  if (snapshots.size() < 2) {
    return Status::InvalidArgument("need at least two snapshots");
  }
  const size_t expected =
      static_cast<size_t>(cols + 1) * static_cast<size_t>(rows + 1);
  for (const auto& snapshot : snapshots) {
    if (snapshot.size() != expected) {
      return Status::InvalidArgument("snapshot sample count mismatch");
    }
    if (!AllFinite(snapshot)) {
      return Status::InvalidArgument("samples must be finite");
    }
  }
  return TemporalGridField(cols, rows, domain, std::move(snapshots));
}

StatusOr<GridField> TemporalGridField::Snapshot(uint32_t k) const {
  if (k >= snapshots_.size()) {
    return Status::OutOfRange("no such snapshot");
  }
  return GridField::Create(cols_, rows_, domain_, snapshots_[k]);
}

StatusOr<GridField> TemporalGridField::SnapshotAt(double t) const {
  const double t_max = static_cast<double>(NumSnapshots() - 1);
  if (t < 0.0 || t > t_max) {
    return Status::OutOfRange("time outside [0, T-1]");
  }
  const uint32_t k = static_cast<uint32_t>(
      std::min(std::floor(t), t_max - 1.0));
  const double tau = t - k;
  std::vector<double> samples(snapshots_[k].size());
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] =
        (1.0 - tau) * snapshots_[k][i] + tau * snapshots_[k + 1][i];
  }
  return GridField::Create(cols_, rows_, domain_, std::move(samples));
}

StatusOr<double> TemporalGridField::ValueAt(Point2 p, double t) const {
  StatusOr<GridField> snapshot = SnapshotAt(t);
  if (!snapshot.ok()) return snapshot.status();
  return snapshot->ValueAt(p);
}

}  // namespace fielddb
