#include "core/shard.h"

#include <algorithm>
#include <cmath>

#include "common/geometry.h"
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
  if (!db_->value_range().Intersects(query)) {
    skips_->Increment();
    return false;
  }
  // The planner's zero-I/O selectivity probe (subfield table or
  // in-memory zone map). Only an exact probe may prune: the strided
  // sample can miss matching cells, and an unprobed plan (LinearScan,
  // forced scan) predicts 0 for "unknown".
  const PhysicalPlan plan = db_->PlanValueQuery(query);
  if (plan.probed && !plan.probe_sampled && plan.predicted_candidates == 0) {
    skips_->Increment();
    return false;
  }
  return true;
}

void Shard::RecordQuery(double wall_ms) const {
  queries_->Increment();
  wall_ms_->Record(wall_ms);
}

Status Shard::Close() {
  lane_->Drain();
  return db_->Close();
}

std::vector<std::pair<uint64_t, CellId>> HilbertPartitionKeys(
    const Field& field) {
  // I-Hilbert's order under the default IHilbertOptions curve
  // (Hilbert, order 16), with the keys kept: the router records each
  // shard's key range in its catalog.
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(CurveType::kHilbert, 16);
  const CellId n = field.NumCells();
  const Rect2 domain = field.Domain();
  std::vector<std::pair<uint64_t, CellId>> keyed(n);
  for (CellId id = 0; id < n; ++id) {
    keyed[id] = {CellCurveKey(*curve, domain, field.GetCell(id).Centroid()),
                 id};
  }
  std::sort(keyed.begin(), keyed.end());
  return keyed;
}

}  // namespace fielddb
