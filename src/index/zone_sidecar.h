#ifndef FIELDDB_INDEX_ZONE_SIDECAR_H_
#define FIELDDB_INDEX_ZONE_SIDECAR_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "common/simd/interval_filter.h"
#include "rtree/box.h"

namespace fielddb {

/// SoA zone-map sidecars: one entry per store position, always equal to
/// that position's record interval (or box), with the min/max planes
/// stored as separate contiguous arrays so the SIMD interval kernels
/// stream them directly. The filter step runs over these arrays and never
/// deserializes a record for a non-matching position.
///
/// The sidecars are derived, in-RAM state: built alongside the store,
/// rebuilt on Open by scanning it, and maintained on update — so a
/// planner probe over them is zero-I/O and nothing about the page format
/// changes.

/// The strided sample ScalarZoneMap::Probe returns.
struct ZoneProbe {
  uint64_t sampled = 0;     // positions tested
  uint64_t matched = 0;     // tested positions intersecting the query
  uint64_t run_starts = 0;  // matches whose previous sample missed — an
                            // estimate of the candidate run count
};

/// Scalar values: one closed interval per position. The zone map of
/// every store keyed by a value interval (grid cells, voxels, temporal
/// slab records).
class ScalarZoneMap {
 public:
  void Reserve(uint64_t n) {
    mins_.reserve(n);
    maxs_.reserve(n);
  }
  void Append(const ValueInterval& iv) {
    mins_.push_back(iv.min);
    maxs_.push_back(iv.max);
  }
  void Set(uint64_t pos, const ValueInterval& iv) {
    mins_[pos] = iv.min;
    maxs_[pos] = iv.max;
  }
  ValueInterval At(uint64_t pos) const {
    return ValueInterval{mins_[pos], maxs_[pos]};
  }
  uint64_t size() const { return mins_.size(); }

  /// The SoA planes, in storage order.
  const std::vector<double>& mins() const { return mins_; }
  const std::vector<double>& maxs() const { return maxs_; }

  /// Appends the maximal runs of positions intersecting `query` (SIMD
  /// kernel; bit-identical across instruction sets).
  void FilterRanges(const ValueInterval& query,
                    std::vector<PosRange>* out) const {
    FilterRange(PosRange{0, size()}, query, out);
  }

  /// FilterRanges restricted to the positions of `run`.
  void FilterRange(const PosRange& run, const ValueInterval& query,
                   std::vector<PosRange>* out) const {
    simd::FilterIntervalRanges(mins_.data() + run.begin,
                               maxs_.data() + run.begin, run.length(),
                               run.begin, query.min, query.max, out);
  }

  /// Strided sample, the planner's sublinear selectivity probe for
  /// stores too large for an exact FilterRanges sweep: tests every
  /// `stride`-th position (stride 0 behaves as 1) against `query`.
  ZoneProbe Probe(const ValueInterval& query, uint64_t stride) const;

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

/// 2-D boxes: one (u, v) interval pair per position (vector fields, where
/// a band query constrains both components). Filtering intersects the
/// per-component run lists, so each component still streams through the
/// scalar SIMD kernel.
class BoxZoneMap {
 public:
  void Reserve(uint64_t n) {
    u_min_.reserve(n);
    u_max_.reserve(n);
    v_min_.reserve(n);
    v_max_.reserve(n);
  }
  void Append(const Box<2>& box) {
    u_min_.push_back(box.lo[0]);
    u_max_.push_back(box.hi[0]);
    v_min_.push_back(box.lo[1]);
    v_max_.push_back(box.hi[1]);
  }
  void Set(uint64_t pos, const Box<2>& box) {
    u_min_[pos] = box.lo[0];
    u_max_[pos] = box.hi[0];
    v_min_[pos] = box.lo[1];
    v_max_[pos] = box.hi[1];
  }
  Box<2> At(uint64_t pos) const {
    Box<2> box;
    box.lo = {u_min_[pos], v_min_[pos]};
    box.hi = {u_max_[pos], v_max_[pos]};
    return box;
  }
  uint64_t size() const { return u_min_.size(); }

  /// Appends the maximal runs of positions whose box intersects `query`.
  void FilterRanges(const Box<2>& query, std::vector<PosRange>* out) const {
    FilterRange(PosRange{0, size()}, query, out);
  }

  /// FilterRanges restricted to the positions of `run`.
  void FilterRange(const PosRange& run, const Box<2>& query,
                   std::vector<PosRange>* out) const;

 private:
  std::vector<double> u_min_;
  std::vector<double> u_max_;
  std::vector<double> v_min_;
  std::vector<double> v_max_;
};

}  // namespace fielddb

#endif  // FIELDDB_INDEX_ZONE_SIDECAR_H_
