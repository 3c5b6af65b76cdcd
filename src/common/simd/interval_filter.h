#ifndef FIELDDB_COMMON_SIMD_INTERVAL_FILTER_H_
#define FIELDDB_COMMON_SIMD_INTERVAL_FILTER_H_

#include <cstdint>
#include <vector>

namespace fielddb {

/// A half-open run [begin, end) of cell-store slot positions. The
/// vectorized filter pipeline talks in runs instead of per-position
/// vectors: a 1%-selectivity query over a 10M-cell store needs a few
/// hundred runs, not 100k positions.
struct PosRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t length() const { return end - begin; }
  friend bool operator==(const PosRange&, const PosRange&) = default;
};

/// Sum of run lengths — the candidate count a range list stands for.
inline uint64_t TotalRangeLength(const std::vector<PosRange>& ranges) {
  uint64_t total = 0;
  for (const PosRange& r : ranges) total += r.length();
  return total;
}

/// Appends position `pos`, extending the last run when contiguous. Every
/// kernel emits through this rule, so equal inputs produce bit-identical
/// range lists regardless of the instruction set that ran.
inline void AppendPosition(std::vector<PosRange>* out, uint64_t pos) {
  if (!out->empty() && out->back().end == pos) {
    ++out->back().end;
  } else {
    out->push_back(PosRange{pos, pos + 1});
  }
}

/// Sorts `runs` by (begin, end) and appends them to `*out` merged: a run
/// that overlaps or abuts the last output run extends it, empty runs are
/// dropped. The one rule for turning the unordered runs a tree search
/// yields (subfields, slabs) into the ascending, disjoint runs a store
/// scan walks.
void MergeRuns(std::vector<PosRange>* runs, std::vector<PosRange>* out);

namespace simd {

/// Which interval-filter kernel the dispatcher resolved to at startup.
enum class KernelLevel { kScalar, kAvx2 };

const char* KernelLevelName(KernelLevel level);

/// The level FilterIntervalRanges executes: AVX2 when the kernel was
/// compiled in (FIELDDB_ENABLE_AVX2) *and* the CPU reports the feature,
/// scalar otherwise. Resolved once per process.
KernelLevel ActiveKernelLevel();

/// Interval-intersection filter over a SoA zone map: appends to `*out`
/// the maximal runs of slots i in [0, count) whose closed interval
/// [mins[i], maxs[i]] intersects [qmin, qmax], with slot i reported as
/// position base + i. The predicate is
///     mins[i] <= qmax && maxs[i] >= qmin
/// — NaN in any operand compares false (the slot never matches), and
/// ±inf behave as ordinary ordered values. Runs already in `*out` are
/// extended when contiguous (see AppendPosition), so a caller may feed
/// consecutive chunks through repeated calls.
///
/// All kernels are bit-identical: for equal inputs the scalar fallback,
/// the AVX2 kernel, and the dispatched entry point produce equal range
/// lists (tests/simd_filter_test.cc proves it differentially).
void FilterIntervalRanges(const double* mins, const double* maxs,
                          uint64_t count, uint64_t base, double qmin,
                          double qmax, std::vector<PosRange>* out);

/// The portable fallback, callable directly (benchmarks and differential
/// tests compare it against the dispatched kernel).
void FilterIntervalRangesScalar(const double* mins, const double* maxs,
                                uint64_t count, uint64_t base, double qmin,
                                double qmax, std::vector<PosRange>* out);

/// Function-pointer type of an interval-filter kernel.
using IntervalFilterFn = void (*)(const double* mins, const double* maxs,
                                  uint64_t count, uint64_t base, double qmin,
                                  double qmax, std::vector<PosRange>* out);

/// The AVX2 kernel when it is both compiled in and runnable on this CPU;
/// nullptr otherwise. Lets tests and benchmarks target it explicitly
/// without referencing a symbol that a scalar-only build does not link.
IntervalFilterFn Avx2KernelOrNull();

}  // namespace simd
}  // namespace fielddb

#endif  // FIELDDB_COMMON_SIMD_INTERVAL_FILTER_H_
