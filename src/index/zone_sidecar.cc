#include "index/zone_sidecar.h"

#include <algorithm>

namespace fielddb {

namespace {

// Intersects two sorted, disjoint run lists (the standard two-pointer
// merge).
void IntersectRanges(const std::vector<PosRange>& a,
                     const std::vector<PosRange>& b,
                     std::vector<PosRange>* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint64_t begin = std::max(a[i].begin, b[j].begin);
    const uint64_t end = std::min(a[i].end, b[j].end);
    if (begin < end) out->push_back(PosRange{begin, end});
    // Advance whichever run ends first; the other may still overlap the
    // next run on this side.
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace

ZoneProbe ScalarZoneMap::Probe(const ValueInterval& query,
                               uint64_t stride) const {
  ZoneProbe probe;
  if (stride == 0) stride = 1;
  bool prev_matched = false;
  for (uint64_t pos = 0; pos < size(); pos += stride) {
    ++probe.sampled;
    // Same predicate as the SIMD kernels: NaN zones never match.
    const bool match = mins_[pos] <= query.max && maxs_[pos] >= query.min;
    if (match) {
      ++probe.matched;
      if (!prev_matched) ++probe.run_starts;
    }
    prev_matched = match;
  }
  return probe;
}

void BoxZoneMap::FilterRanges(const Box<2>& query,
                              std::vector<PosRange>* out) const {
  std::vector<PosRange> u_runs;
  std::vector<PosRange> v_runs;
  simd::FilterIntervalRanges(u_min_.data(), u_max_.data(), size(),
                             /*base=*/0, query.lo[0], query.hi[0], &u_runs);
  simd::FilterIntervalRanges(v_min_.data(), v_max_.data(), size(),
                             /*base=*/0, query.lo[1], query.hi[1], &v_runs);
  IntersectRanges(u_runs, v_runs, out);
}

}  // namespace fielddb
