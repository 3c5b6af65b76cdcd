#include "storage/fault_injection.h"

#include <cstring>
#include <string>

namespace fielddb {

bool FaultInjectingPageFile::ConsumeFault(
    std::unordered_map<PageId, int>* faults, PageId id) {
  auto it = faults->find(id);
  if (it == faults->end() || it->second == 0) return false;
  if (it->second == kPermanent) return true;
  --it->second;
  return true;
}

bool FaultInjectingPageFile::TickKillLocked() const {
  if (kill_countdown_ < 0) return false;
  if (kill_countdown_ == 0) {
    ++counters_.killed_ops;
    return true;
  }
  --kill_countdown_;
  return false;
}

Status FaultInjectingPageFile::Read(PageId id, Page* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadLocked(id, out);
}

Status FaultInjectingPageFile::ReadBatch(const PageId* ids, size_t count,
                                         Page* outs,
                                         Status* statuses) const {
  std::lock_guard<std::mutex> lock(mu_);
  Status first = Status::OK();
  for (size_t i = 0; i < count; ++i) {
    statuses[i] = ReadLocked(ids[i], &outs[i]);
    if (first.ok() && !statuses[i].ok()) first = statuses[i];
  }
  return first;
}

Status FaultInjectingPageFile::ReadLocked(PageId id, Page* out) const {
  if (TickKillLocked()) {
    return Status::IOError("injected kill point: device gone (read)");
  }
  if (ConsumeFault(&read_faults_, id)) {
    ++counters_.read_errors;
    return Status::IOError("injected read fault on page " +
                           std::to_string(id));
  }
  if (options_.read_error_prob > 0.0 &&
      rng_.NextDouble() < options_.read_error_prob) {
    ++counters_.read_errors;
    return Status::IOError("injected transient read fault on page " +
                           std::to_string(id));
  }
  if (const auto it = corrupt_.find(id); it != corrupt_.end()) {
    if (!it->second.silent) {
      ++counters_.corrupt_reads;
      return Status::Corruption("injected corruption on page " +
                                std::to_string(id));
    }
    FIELDDB_RETURN_IF_ERROR(base_->Read(id, out));
    for (uint32_t i = 0; i < out->size(); ++i) {
      out->data()[i] ^= it->second.xor_mask;
    }
    ++counters_.silent_flips;
    return Status::OK();
  }
  return base_->Read(id, out);
}

Status FaultInjectingPageFile::Write(PageId id, const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  if (TickKillLocked()) {
    return Status::IOError("injected kill point: device gone (write)");
  }
  if (ConsumeFault(&write_faults_, id)) {
    ++counters_.write_errors;
    return Status::IOError("injected write fault on page " +
                           std::to_string(id));
  }
  if (options_.write_error_prob > 0.0 &&
      rng_.NextDouble() < options_.write_error_prob) {
    ++counters_.write_errors;
    return Status::IOError("injected transient write fault on page " +
                           std::to_string(id));
  }
  if (const auto it = torn_writes_.find(id); it != torn_writes_.end()) {
    const uint32_t keep = it->second;
    torn_writes_.erase(it);
    Page mixed(page_size_);
    FIELDDB_RETURN_IF_ERROR(base_->Read(id, &mixed));
    std::memcpy(mixed.data(), page.data(), keep);
    FIELDDB_RETURN_IF_ERROR(base_->Write(id, mixed));
    // A checksum over the half-old, half-new slot no longer matches;
    // subsequent reads see the tear.
    corrupt_[id] = Corruption{false, 0xff};
    ++counters_.torn_writes;
    return Status::OK();
  }
  return base_->Write(id, page);
}

Status FaultInjectingPageFile::VerifyPage(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = corrupt_.find(id); it != corrupt_.end()) {
    return Status::Corruption("injected corruption on page " +
                              std::to_string(id));
  }
  return base_->VerifyPage(id);
}

StatusOr<PageId> FaultInjectingPageFile::Allocate(const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  if (TickKillLocked()) {
    return Status::IOError("injected kill point: device gone (allocate)");
  }
  return base_->Allocate(page);
}

StatusOr<PageId> FaultInjectingPageFile::AllocateZeroed() {
  std::lock_guard<std::mutex> lock(mu_);
  if (TickKillLocked()) {
    return Status::IOError("injected kill point: device gone (allocate)");
  }
  return base_->AllocateZeroed();
}

Status FaultInjectingPageFile::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (TickKillLocked()) {
    return Status::IOError("injected kill point: device gone (sync)");
  }
  return base_->Sync();
}

void FaultInjectingPageFile::TearNextWrite(PageId id, uint32_t keep_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  torn_writes_[id] = keep_bytes < page_size_ ? keep_bytes : page_size_;
}

void FaultInjectingPageFile::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  read_faults_.clear();
  write_faults_.clear();
  torn_writes_.clear();
  corrupt_.clear();
  kill_countdown_ = -1;
}

}  // namespace fielddb
