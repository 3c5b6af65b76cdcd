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

/// Streaming subfield partitioner: cells arrive one at a time in
/// linearized order (the external-sort merge feeds it without ever
/// materializing all intervals) and Finish() seals the last subfield and
/// records the partition-shape telemetry. BuildSubfields is a thin
/// wrapper over this, so streamed and vector builds produce identical
/// partitions by construction.
class SubfieldStreamBuilder {
 public:
  SubfieldStreamBuilder(const ValueInterval& value_range,
                        const SubfieldCostConfig& config);

  /// Appends the next cell's value interval (slot = number of cells
  /// added so far), growing the open subfield or sealing it per the
  /// paper's insertion rule.
  void Add(const ValueInterval& cell);

  /// Seals the open subfield, records telemetry, and returns the
  /// partition. The builder is consumed.
  std::vector<Subfield> Finish();

 private:
  SubfieldCostModel model_;
  std::vector<Subfield> subfields_;
  Subfield current_;
  uint64_t num_cells_ = 0;
};

/// Builds the full subfield partition of a linearized cell sequence:
/// `cell_intervals[pos]` is the value interval of the cell at slot `pos`.
/// Every cell lands in exactly one subfield and subfields are contiguous
/// and ordered (start_0 = 0, start_{i+1} = end_i, end_last = n).
std::vector<Subfield> BuildSubfields(
    const std::vector<ValueInterval>& cell_intervals,
    const ValueInterval& value_range, const SubfieldCostConfig& config);

}  // namespace fielddb

#endif  // FIELDDB_INDEX_SUBFIELD_H_
