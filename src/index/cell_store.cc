#include "index/cell_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

namespace fielddb {

Status CellSlots::Encode(const CellRecord& record, uint8_t* slot) const {
  if (!lattice_) {
    std::memcpy(slot, &record, sizeof(CellRecord));
    return Status::OK();
  }
  // A cell's lattice id is the lattice cell its centroid lies in; the
  // slot stores it only if decoding rebuilds the record exactly.
  StatusOr<uint32_t> lattice_id = lattice_->FindCell(record.Centroid());
  LatticeSlot s;
  s.id = record.id;
  s.lattice_id = lattice_id.ok() ? *lattice_id : 0;
  std::copy(record.w, record.w + 4, s.w);
  const CellRecord rebuilt = Rebuild(s);
  if (!lattice_id.ok() ||
      std::memcmp(&rebuilt, &record, sizeof(CellRecord)) != 0) {
    return Status::InvalidArgument("cell " + std::to_string(record.id) +
                                   " is not a cell of the store's lattice");
  }
  std::memcpy(slot, &s, sizeof(s));
  return Status::OK();
}

std::optional<SlotEntry<ValueInterval>> ReadStoredSlot(const CellSlots& slots,
                                                       const uint8_t* slot,
                                                       uint64_t num_records) {
  const std::optional<GridLattice>& lattice = slots.lattice();
  if (!lattice) {
    return ReadStoredSlot(RawSlots<CellRecord>{}, slot, num_records);
  }
  LatticeSlot s;
  std::memcpy(&s, slot, sizeof(s));
  if (s.id >= num_records || s.lattice_id >= lattice->NumCells()) {
    return std::nullopt;
  }
  // Extended in vertex order, as CellRecord::Interval() extends, so the
  // key is bit for bit the rebuilt cell's.
  ValueInterval key = ValueInterval::Empty();
  for (const double w : s.w) {
    if (!std::isfinite(w)) return std::nullopt;
    key.Extend(w);
  }
  return SlotEntry<ValueInterval>{s.id, key};
}

Status WriteSamples(const std::vector<double>& samples, uint32_t n,
                    double* dst) {
  if (samples.size() != n) {
    return Status::InvalidArgument("expected " + std::to_string(n) +
                                   " values, got " +
                                   std::to_string(samples.size()));
  }
  if (!AllFinite(samples)) {
    return Status::InvalidArgument("samples must be finite");
  }
  std::copy(samples.begin(), samples.end(), dst);
  return Status::OK();
}

}  // namespace fielddb
