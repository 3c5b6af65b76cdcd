#ifndef FIELDDB_INDEX_SUBFIELD_H_
#define FIELDDB_INDEX_SUBFIELD_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "rtree/box.h"

namespace fielddb {

/// A subfield: a run [start, end) of consecutive positions in the
/// linearized (curve-ordered) cell store, together with the 1-D MBR of all
/// values inside those cells. This is what I-Hilbert indexes instead of
/// individual cells (paper Section 3).
struct Subfield {
  uint64_t start = 0;          // first slot (inclusive)
  uint64_t end = 0;            // one past the last slot
  ValueInterval interval;      // hull of the member cells' intervals
  double sum_interval_sizes = 0.0;  // SI: sum of member interval sizes

  uint64_t NumCells() const { return end - start; }
};

/// A subfield of a vector field: a Hilbert-contiguous run of cells with
/// the 2-D MBR of their (u, v) values. Generalizes the scalar Subfield.
struct VectorSubfield {
  uint64_t start = 0;
  uint64_t end = 0;
  Box<2> box = Box<2>::Empty();
  double sum_box_sizes = 0.0;  // Σ per-cell PaperSize(u) * PaperSize(v)

  uint64_t NumCells() const { return end - start; }
};

/// Parameters of the cost function C = P / SI with P = L + q̄ (paper
/// Section 3.1, after Kamel & Faloutsos [14]).
struct SubfieldCostConfig {
  /// q̄: the assumed average query-interval length as a fraction of the
  /// normalized value space. The paper fixes 0.5.
  double avg_query_fraction = 0.5;
  /// When true, interval lengths are normalized by the field's value
  /// range, matching the paper's `P = L + 0.5` on a [0,1] value space.
  /// When false, raw interval sizes are used with no q̄ term — the
  /// arithmetic of the paper's own worked example (Fig. 5: cost
  /// 21/(11+10+11+13) ≈ 0.466 before inserting c5, 31/58 ≈ 0.534 after).
  bool normalize = true;
};

/// Incrementally grows one subfield while streaming cells in linearized
/// order, applying the paper's insertion rule: append a cell only when the
/// subfield's cost does not increase (C_after < C_before); otherwise the
/// caller seals the subfield and starts a new one.
class SubfieldCostModel {
 public:
  /// `value_range` is the hull of all cell intervals in the field; used
  /// for normalization (ignored when `config.normalize` is false).
  SubfieldCostModel(const ValueInterval& value_range,
                    const SubfieldCostConfig& config);

  /// Cost C = P / SI of a (hypothetical) subfield.
  double Cost(const ValueInterval& interval,
              double sum_interval_sizes) const;

  /// The paper's insertion test: true when appending a cell with interval
  /// `cell` to `current` strictly decreases the subfield's cost.
  bool ShouldAppend(const Subfield& current,
                    const ValueInterval& cell) const;

 private:
  SubfieldCostConfig config_;
  double range_size_;  // PaperSize of the value range (>= 1)
};

/// Cost model generalizing Section 3.1 to 2-D value boxes, after the 2-D
/// case of Kamel & Faloutsos [14]: a box with normalized extents
/// (Lu, Lv) is touched by the average box query with probability
/// P = (Lu + q̄)(Lv + q̄); the subfield cost is C = P / SI with SI the
/// sum of member cells' value-box sizes.
struct VectorCostConfig {
  double avg_query_fraction = 0.5;
};

class VectorSubfieldCostModel {
 public:
  VectorSubfieldCostModel(const Box<2>& value_range,
                          const VectorCostConfig& config);

  double Cost(const Box<2>& box, double sum_box_sizes) const;
  bool ShouldAppend(const VectorSubfield& current,
                    const Box<2>& cell_box) const;

 private:
  VectorCostConfig config_;
  double range_u_;
  double range_v_;
};

/// What the generic subfield code needs of a key type: the subfield row
/// it keys, the cost model that grows a row, the row's key and SI fields,
/// and a key's size term of SI.
template <typename Key>
struct SubfieldTraits;

template <>
struct SubfieldTraits<ValueInterval> {
  using Row = Subfield;
  using CostModel = SubfieldCostModel;
  using CostConfig = SubfieldCostConfig;
  static ValueInterval& KeyOf(Subfield& sf) { return sf.interval; }
  static double& SumOf(Subfield& sf) { return sf.sum_interval_sizes; }
  /// The paper's interval size I = max - min + 1.
  static double Size(const ValueInterval& iv) { return iv.PaperSize(); }
};

template <>
struct SubfieldTraits<Box<2>> {
  using Row = VectorSubfield;
  using CostModel = VectorSubfieldCostModel;
  using CostConfig = VectorCostConfig;
  static Box<2>& KeyOf(VectorSubfield& sf) { return sf.box; }
  static double& SumOf(VectorSubfield& sf) { return sf.sum_box_sizes; }
  /// PaperSize(u) * PaperSize(v).
  static double Size(const Box<2>& b) {
    return (b.hi[0] - b.lo[0] + 1.0) * (b.hi[1] - b.lo[1] + 1.0);
  }
};

template <typename Key>
using SubfieldOf = typename SubfieldTraits<Key>::Row;
template <typename Key>
using SubfieldCostConfigOf = typename SubfieldTraits<Key>::CostConfig;

/// The one subfield partitioner, for value intervals and (u, v) boxes:
/// cell keys arrive one at a time in linearized order and each grows the
/// open subfield or seals it per the paper's insertion rule; Finish()
/// seals the last subfield and records the partition-shape telemetry.
template <typename Key>
class SubfieldStreamBuilder {
 public:
  using Traits = SubfieldTraits<Key>;
  using Row = typename Traits::Row;

  SubfieldStreamBuilder(const Key& value_range,
                        const SubfieldCostConfigOf<Key>& config);

  /// Appends the next cell's key (slot = number of cells added so far).
  void Add(const Key& cell);

  /// Seals the open subfield, records telemetry, and returns the
  /// partition. The builder is consumed.
  std::vector<Row> Finish();

 private:
  typename Traits::CostModel model_;
  std::vector<Row> subfields_;
  Row current_;
  uint64_t num_cells_ = 0;
};

/// Builds the full subfield partition of a linearized key sequence:
/// `keys[pos]` is the key of the cell at slot `pos`. Every cell lands in
/// exactly one subfield and subfields are contiguous and ordered
/// (start_0 = 0, start_{i+1} = end_i, end_last = n).
template <typename Key>
std::vector<SubfieldOf<Key>> BuildSubfields(
    const std::vector<Key>& keys, const Key& value_range,
    const SubfieldCostConfigOf<Key>& config) {
  SubfieldStreamBuilder<Key> builder(value_range, config);
  for (const Key& key : keys) builder.Add(key);
  return builder.Finish();
}

}  // namespace fielddb

#endif  // FIELDDB_INDEX_SUBFIELD_H_
