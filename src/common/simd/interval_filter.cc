#include "common/simd/interval_filter.h"

#include <algorithm>

namespace fielddb {

void MergeRuns(std::vector<PosRange>* runs, std::vector<PosRange>* out) {
  std::sort(runs->begin(), runs->end(),
            [](const PosRange& x, const PosRange& y) {
              return x.begin < y.begin || (x.begin == y.begin && x.end < y.end);
            });
  for (const PosRange& r : *runs) {
    if (r.end <= r.begin) continue;
    if (!out->empty() && r.begin <= out->back().end) {
      out->back().end = std::max(out->back().end, r.end);
    } else {
      out->push_back(r);
    }
  }
}

namespace simd {

#if FIELDDB_HAVE_AVX2
// Defined in interval_filter_avx2.cc, the only TU compiled with -mavx2;
// callable only after a runtime CPUID check (see ResolveKernel).
void FilterIntervalRangesAvx2(const double* mins, const double* maxs,
                              uint64_t count, uint64_t base, double qmin,
                              double qmax, std::vector<PosRange>* out);
#endif

void FilterIntervalRangesScalar(const double* mins, const double* maxs,
                                uint64_t count, uint64_t base, double qmin,
                                double qmax, std::vector<PosRange>* out) {
  for (uint64_t i = 0; i < count; ++i) {
    // NaN anywhere makes both comparisons false: the slot is skipped,
    // matching the AVX2 kernel's ordered (_CMP_*_OQ) predicates.
    if (mins[i] <= qmax && maxs[i] >= qmin) {
      AppendPosition(out, base + i);
    }
  }
}

namespace {

bool Avx2Runnable() {
#if FIELDDB_HAVE_AVX2 && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

IntervalFilterFn ResolveKernel() {
#if FIELDDB_HAVE_AVX2
  if (Avx2Runnable()) return &FilterIntervalRangesAvx2;
#endif
  return &FilterIntervalRangesScalar;
}

}  // namespace

KernelLevel ActiveKernelLevel() {
  static const KernelLevel level =
      Avx2Runnable() ? KernelLevel::kAvx2 : KernelLevel::kScalar;
  return level;
}

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IntervalFilterFn Avx2KernelOrNull() {
#if FIELDDB_HAVE_AVX2
  if (Avx2Runnable()) return &FilterIntervalRangesAvx2;
#endif
  return nullptr;
}

void FilterIntervalRanges(const double* mins, const double* maxs,
                          uint64_t count, uint64_t base, double qmin,
                          double qmax, std::vector<PosRange>* out) {
  static const IntervalFilterFn kernel = ResolveKernel();
  kernel(mins, maxs, count, base, qmin, qmax, out);
}

}  // namespace simd
}  // namespace fielddb
