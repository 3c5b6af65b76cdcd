#include "core/shard.h"

#include <algorithm>
#include <cmath>

#include "common/geometry.h"
#include "core/ext_sort.h"
#include "curve/curves.h"
#include "obs/metrics.h"

namespace fielddb {

Shard::Shard(ShardDescriptor descriptor, std::unique_ptr<FieldDatabase> db)
    : descriptor_(std::move(descriptor)), db_(std::move(db)) {
  QueryExecutor::Options lo;
  lo.threads = 1;
  lo.queue_capacity = 256;
  lane_ = std::make_unique<QueryExecutor>(db_.get(), lo);
  const std::string prefix = "shard.s" + std::to_string(descriptor_.id);
  MetricsRegistry& reg = MetricsRegistry::Default();
  queries_ = reg.GetCounter(prefix + ".queries");
  skips_ = reg.GetCounter(prefix + ".skipped");
  wall_ms_ = reg.GetHistogram(prefix + ".wall_ms");
}

bool Shard::MayContain(const ValueInterval& query) const {
  if (db_->value_range().Intersects(query)) return true;
  skips_->Increment();
  return false;
}

void Shard::RecordQuery(double wall_ms) const {
  queries_->Increment();
  wall_ms_->Record(wall_ms);
}

Status Shard::Close() {
  lane_->Drain();
  return db_->Close();
}

StatusOr<std::vector<std::pair<uint64_t, CellId>>> CurvePartitionKeys(
    const Field& field, CurveType type) {
  // I-Hilbert's order under `type`, with the keys kept: the router
  // records each shard's key range in its catalog.
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(type, kCurveOrder);
  if (curve == nullptr) return Status::InvalidArgument("unknown curve type");
  const CellId n = field.NumCells();
  const Rect2 domain = field.Domain();
  std::vector<std::pair<uint64_t, CellId>> keyed(n);
  for (CellId id = 0; id < n; ++id) {
    keyed[id] = {CellCurveKey(*curve, domain, field.GetCell(id).Centroid()),
                 id};
  }
  // Ids go in ascending, and the sort keeps that order within a key.
  std::vector<std::pair<uint64_t, CellId>> scratch(n);
  RadixSortByKey(std::span(keyed), std::span(scratch),
                 [](const std::pair<uint64_t, CellId>& k) { return k.first; });
  return keyed;
}

}  // namespace fielddb
