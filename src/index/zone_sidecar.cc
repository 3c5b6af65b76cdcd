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

void BoxZoneMap::FilterRange(const PosRange& run, const Box<2>& query,
                             std::vector<PosRange>* out) const {
  std::vector<PosRange> u_runs;
  std::vector<PosRange> v_runs;
  simd::FilterIntervalRanges(u_min_.data() + run.begin,
                             u_max_.data() + run.begin, run.length(),
                             run.begin, query.lo[0], query.hi[0], &u_runs);
  simd::FilterIntervalRanges(v_min_.data() + run.begin,
                             v_max_.data() + run.begin, run.length(),
                             run.begin, query.lo[1], query.hi[1], &v_runs);
  IntersectRanges(u_runs, v_runs, out);
}

}  // namespace fielddb
