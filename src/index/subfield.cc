#include "index/subfield.h"

#include <cassert>

#include "obs/metrics.h"

namespace fielddb {

SubfieldCostModel::SubfieldCostModel(const ValueInterval& value_range,
                                     const SubfieldCostConfig& config)
    : config_(config) {
  range_size_ = value_range.IsEmpty() ? 1.0 : value_range.PaperSize();
  if (range_size_ <= 0.0) range_size_ = 1.0;
}

double SubfieldCostModel::Cost(const ValueInterval& interval,
                               double sum_interval_sizes) const {
  assert(sum_interval_sizes > 0.0);
  // With normalization, C = (L/R + q̄) / (SI/R) = (L + q̄·R) / SI: the
  // q̄·R term is the fixed access probability every subfield pays, which
  // is what rewards grouping cells (it gets amortized over a larger SI).
  const double fixed =
      config_.normalize ? config_.avg_query_fraction * range_size_ : 0.0;
  return (interval.PaperSize() + fixed) / sum_interval_sizes;
}

bool SubfieldCostModel::ShouldAppend(const Subfield& current,
                                     const ValueInterval& cell) const {
  const double cost_before =
      Cost(current.interval, current.sum_interval_sizes);
  const ValueInterval merged = ValueInterval::Hull(current.interval, cell);
  const double cost_after =
      Cost(merged, current.sum_interval_sizes + cell.PaperSize());
  // Paper Section 3.1: "This insertion can be executed only if Ca > Cb";
  // on Ca <= Cb a new subfield starts.
  return cost_before > cost_after;
}

VectorSubfieldCostModel::VectorSubfieldCostModel(
    const Box<2>& value_range, const VectorCostConfig& config)
    : config_(config) {
  range_u_ = value_range.IsEmpty()
                 ? 1.0
                 : value_range.hi[0] - value_range.lo[0] + 1.0;
  range_v_ = value_range.IsEmpty()
                 ? 1.0
                 : value_range.hi[1] - value_range.lo[1] + 1.0;
  if (range_u_ <= 0) range_u_ = 1.0;
  if (range_v_ <= 0) range_v_ = 1.0;
}

double VectorSubfieldCostModel::Cost(const Box<2>& box,
                                     double sum_box_sizes) const {
  // (Lu + q̄·Ru)(Lv + q̄·Rv) / SI — the scale-free form of
  // (Lu' + q̄)(Lv' + q̄) / SI' with normalized extents.
  const double q = config_.avg_query_fraction;
  const double pu = (box.hi[0] - box.lo[0] + 1.0) + q * range_u_;
  const double pv = (box.hi[1] - box.lo[1] + 1.0) + q * range_v_;
  return pu * pv / sum_box_sizes;
}

bool VectorSubfieldCostModel::ShouldAppend(const VectorSubfield& current,
                                           const Box<2>& cell_box) const {
  const double before = Cost(current.box, current.sum_box_sizes);
  Box<2> merged = current.box;
  merged.Extend(cell_box);
  const double after =
      Cost(merged, current.sum_box_sizes +
                       SubfieldTraits<Box<2>>::Size(cell_box));
  return before > after;
}

template <typename Key>
SubfieldStreamBuilder<Key>::SubfieldStreamBuilder(
    const Key& value_range, const SubfieldCostConfigOf<Key>& config)
    : model_(value_range, config) {}

template <typename Key>
void SubfieldStreamBuilder<Key>::Add(const Key& cell) {
  const double size = Traits::Size(cell);
  const uint64_t pos = num_cells_++;
  if (pos > 0 && model_.ShouldAppend(current_, cell)) {
    current_.end = pos + 1;
    Traits::KeyOf(current_).Extend(cell);
    Traits::SumOf(current_) += size;
    return;
  }
  if (pos > 0) subfields_.push_back(current_);
  current_.start = pos;
  current_.end = pos + 1;
  Traits::KeyOf(current_) = cell;
  Traits::SumOf(current_) = size;
}

template <typename Key>
std::vector<typename SubfieldStreamBuilder<Key>::Row>
SubfieldStreamBuilder<Key>::Finish() {
  if (num_cells_ == 0) return std::move(subfields_);
  subfields_.push_back(current_);

  // Partition-shape telemetry: the subfield count and size distribution
  // are what the paper's cost model trades off (few large subfields =>
  // cheap tree, many false positives), so expose them per build.
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("subfield.builds")->Increment();
  reg.GetCounter("subfield.subfields_built")->Increment(subfields_.size());
  reg.GetGauge("subfield.last_partition_size")
      ->Set(static_cast<double>(subfields_.size()));
  Histogram* sizes = reg.GetHistogram("subfield.cells_per_subfield");
  for (const Row& sf : subfields_) {
    sizes->Record(static_cast<double>(sf.NumCells()));
  }
  return std::move(subfields_);
}

template class SubfieldStreamBuilder<ValueInterval>;
template class SubfieldStreamBuilder<Box<2>>;

}  // namespace fielddb
