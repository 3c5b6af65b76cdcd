#include "plan/cost_model.h"

namespace fielddb {

PagePattern PlanCostModel::ScanPattern(const StoreShape& shape) const {
  PagePattern p;
  p.pages = shape.store_pages;
  if (p.pages > 0) {
    p.random_reads = 1;
    p.sequential_reads = p.pages - 1;
  }
  return p;
}

PagePattern PlanCostModel::FetchPattern(
    const StoreShape& shape, const std::vector<PosRange>& runs) const {
  PagePattern p;
  constexpr uint64_t kNone = ~uint64_t{0};
  uint64_t prev_last = kNone;  // last page index the pattern has read
  for (const PosRange& r : runs) {
    if (r.end <= r.begin) continue;
    uint64_t first = r.begin / shape.cells_per_page;
    const uint64_t last = (r.end - 1) / shape.cells_per_page;
    if (prev_last != kNone && first <= prev_last) {
      // The run starts on (or before) a page the previous run already
      // read — the buffer pool serves it from the frame, no new I/O.
      first = prev_last + 1;
    }
    if (first > last) continue;  // run fully inside already-read pages
    const uint64_t pages = last - first + 1;
    p.pages += pages;
    if (prev_last != kNone && first == prev_last + 1) {
      // Abuts the previous run's pages: the head read is sequential too.
      p.sequential_reads += pages;
    } else {
      p.random_reads += 1;
      p.sequential_reads += pages - 1;
    }
    prev_last = last;
  }
  return p;
}

}  // namespace fielddb
