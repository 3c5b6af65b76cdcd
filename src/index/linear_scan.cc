#include "index/linear_scan.h"

#include <chrono>


namespace fielddb {

const char* IndexMethodName(IndexMethod method) {
  switch (method) {
    case IndexMethod::kLinearScan:
      return "LinearScan";
    case IndexMethod::kIAll:
      return "I-All";
    case IndexMethod::kIHilbert:
      return "I-Hilbert";
    case IndexMethod::kIntervalQuadtree:
      return "I-Quadtree";
    case IndexMethod::kRowIp:
      return "Row-IP";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<LinearScanIndex>> LinearScanIndex::Build(
    BufferPool* pool, const Field& field) {
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<CellStore> store = CellStore::Build(pool, field, {});
  if (!store.ok()) return store.status();
  IndexBuildInfo info;
  info.num_cells = store->size();
  info.store_pages = store->num_pages();
  info.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return std::unique_ptr<LinearScanIndex>(
      new LinearScanIndex(std::move(store).value(), info));
}

Status LinearScanIndex::UpdateCellValues(CellId id,
                                         const std::vector<double>& values) {
  // No index structure to maintain: the scan sees the new values.
  CellStore::Change change;
  return store_.Update(id, SetSamples(values), &change);
}

Status LinearScanIndex::FilterCandidateRanges(
    const ValueInterval& query, std::vector<PosRange>* ranges) const {
  // The scan baseline's filter step is the zone-map sweep itself: one
  // SIMD pass over the SoA interval arrays, no page I/O, no record
  // deserialization. (Production LinearScan *queries* still read every
  // store page — FieldDatabase fuses filter+estimate into a single page
  // pass, as the paper's cost model requires; see FieldEngine::BandScan.)
  store_.zone_map().FilterRanges(query, ranges);
  return Status::OK();
}

}  // namespace fielddb
