#ifndef FIELDDB_PLAN_COST_MODEL_H_
#define FIELDDB_PLAN_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/simd/interval_filter.h"

namespace fielddb {

/// Parameters of the simulated spinning disk used to translate page
/// counts into the I/O time a 2002 testbed would have paid (the paper's
/// experiments ran against real disks; our pages live in RAM). Defaults:
/// ~9 ms average seek + rotational delay for a random page, ~0.16 ms to
/// transfer a 4 KB page at ~25 MB/s.
///
/// Lives in the plan layer because the planner charges candidate access
/// paths with it *before* execution; EXPLAIN and the benches keep using
/// it after the fact (core/stats.h re-exports it for them).
struct DiskModel {
  double seek_ms = 9.0;
  double transfer_ms_per_page = 0.16;

  /// Estimated I/O milliseconds for a read pattern.
  double EstimateMs(uint64_t sequential_reads, uint64_t random_reads) const {
    return random_reads * (seek_ms + transfer_ms_per_page) +
           sequential_reads * transfer_ms_per_page;
  }
};

/// The predicted physical read pattern of one access path, in the same
/// currency IoStats reports observed I/O: `random_reads` pages pay a
/// seek (a discontiguous jump), `sequential_reads` pages follow their
/// predecessor. `pages == random_reads + sequential_reads`.
struct PagePattern {
  uint64_t pages = 0;
  uint64_t random_reads = 0;
  uint64_t sequential_reads = 0;

  /// `n` pages that each pay a seek: an index descent, whose tree nodes
  /// are scattered over the file.
  static PagePattern Random(uint64_t n) { return PagePattern{n, n, 0}; }

  PagePattern& operator+=(const PagePattern& o) {
    pages += o.pages;
    random_reads += o.random_reads;
    sequential_reads += o.sequential_reads;
    return *this;
  }
};

/// The static store geometry the cost functions need — derivable from
/// any CellStore, or synthesized by tests pinning predicted page counts.
struct StoreShape {
  uint64_t num_cells = 0;
  uint32_t cells_per_page = 1;
  uint64_t store_pages = 0;
};

/// The paper's disk cost function hoisted out of EXPLAIN and turned
/// predictive: given the store geometry and a filter's candidate runs,
/// compute the page pattern each physical plan would read, then price it
/// with the DiskModel. The pattern rules mirror the buffer pool's
/// accounting (a physical read is sequential iff its page id is exactly
/// one past the previous physical read), so predicted and observed costs
/// are directly comparable for a database built with
/// EngineBuildOptions::read_whole_runs. The default scan reads only the
/// pages that hold a zone match, a pattern this model does not price.
class PlanCostModel {
 public:
  explicit PlanCostModel(DiskModel disk = {}) : disk_(disk) {}

  /// The fused scan: every store page once, in order — one seek, then
  /// pure transfer.
  PagePattern ScanPattern(const StoreShape& shape) const;

  /// The indexed fetch: the distinct pages under the candidate runs
  /// (ascending, disjoint). Each discontiguous page run costs one seek;
  /// runs that share or abut pages coalesce, as the buffer pool would
  /// serve them.
  PagePattern FetchPattern(const StoreShape& shape,
                           const std::vector<PosRange>& runs) const;

  double CostMs(const PagePattern& pattern) const {
    return disk_.EstimateMs(pattern.sequential_reads, pattern.random_reads);
  }

  const DiskModel& disk() const { return disk_; }

 private:
  DiskModel disk_;
};

}  // namespace fielddb

#endif  // FIELDDB_PLAN_COST_MODEL_H_
