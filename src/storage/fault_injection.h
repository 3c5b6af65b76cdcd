#ifndef FIELDDB_STORAGE_FAULT_INJECTION_H_
#define FIELDDB_STORAGE_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/rng.h"
#include "common/status.h"
#include "storage/page_file.h"

namespace fielddb {

/// Probabilistic fault schedule for FaultInjectingPageFile. All sampling
/// is driven by a single seeded xoshiro stream, so a given (seed,
/// operation sequence) pair always injects the same faults — failure
/// tests are exactly reproducible.
struct FaultInjectionOptions {
  uint64_t seed = 0;
  /// Per-call probability that a Read fails with a transient IOError
  /// (independent draws, so retries eventually succeed).
  double read_error_prob = 0.0;
  /// Per-call probability that a Write fails with an IOError.
  double write_error_prob = 0.0;
};

/// Decorator wrapping any PageFile with a deterministic fault schedule:
/// transient and permanent read/write errors, torn (prefix-only) writes,
/// and bit-flip corruption. Detected corruption mirrors what a
/// checksummed DiskPageFile reports — Read returns kCorruption naming
/// the page — while silent corruption hands back flipped bits, modeling
/// storage without integrity framing.
///
/// The wrapper does not own the underlying file unless constructed with
/// the owning overload.
///
/// Thread safety: one mutex serializes the schedule lookups, the rng
/// draw and the wrapped call, so concurrent readers see a coherent
/// fault schedule (at the cost of serializing I/O through the wrapper —
/// fine for the failure tests this exists for).
class FaultInjectingPageFile final : public PageFile {
 public:
  explicit FaultInjectingPageFile(PageFile* base,
                                  const FaultInjectionOptions& options = {})
      : PageFile(base->page_size()), base_(base), options_(options),
        rng_(options.seed) {}

  FaultInjectingPageFile(std::unique_ptr<PageFile> base,
                         const FaultInjectionOptions& options = {})
      : FaultInjectingPageFile(base.get(), options) {
    owned_ = std::move(base);
  }

  uint64_t NumPages() const override { return base_->NumPages(); }
  StatusOr<PageId> Allocate(const Page& page) override;
  StatusOr<PageId> AllocateZeroed() override;
  Status Read(PageId id, Page* out) const override;
  /// Batched reads inject per submitted page, in submission order, with
  /// exactly the schedule semantics of `count` single Reads — an armed
  /// fault on any page of the batch fires on that page alone, and the
  /// deterministic countdowns (FailNextReads, KillAfterOps) tick once
  /// per page. The wrapped file's own batch path is deliberately NOT
  /// used: page-by-page delegation keeps the injection point exact.
  Status ReadBatch(const PageId* ids, size_t count, Page* outs,
                   Status* statuses) const override;
  Status Write(PageId id, const Page& page) override;
  Status VerifyPage(PageId id) const override;
  Status Sync() override;

  /// --- Deterministic schedules (override the probabilistic draws) ---

  /// The next `count` reads of `id` fail with a transient IOError.
  void FailNextReads(PageId id, int count) {
    std::lock_guard<std::mutex> lock(mu_);
    read_faults_[id] = count;
  }
  /// Every read of `id` fails with an IOError until ClearFaults().
  void FailAllReads(PageId id) {
    std::lock_guard<std::mutex> lock(mu_);
    read_faults_[id] = kPermanent;
  }
  /// The next `count` writes to `id` fail with a transient IOError.
  void FailNextWrites(PageId id, int count) {
    std::lock_guard<std::mutex> lock(mu_);
    write_faults_[id] = count;
  }
  /// Every write to `id` fails with an IOError until ClearFaults().
  void FailAllWrites(PageId id) {
    std::lock_guard<std::mutex> lock(mu_);
    write_faults_[id] = kPermanent;
  }

  /// The next write to `id` is torn: only the first `keep_bytes` bytes
  /// reach the underlying file, the tail keeps its previous contents,
  /// and the caller sees success (exactly what a power cut mid-sector
  /// looks like). The page is then marked detected-corrupt, as a
  /// checksum over the mixed contents would be.
  void TearNextWrite(PageId id, uint32_t keep_bytes);

  /// Marks `id` detected-corrupt: reads and verification report
  /// kCorruption, as checksummed storage would after bit rot.
  void CorruptPage(PageId id) {
    std::lock_guard<std::mutex> lock(mu_);
    corrupt_[id] = Corruption{false, 0xff};
  }

  /// Marks `id` silently corrupt: reads succeed but every byte of the
  /// returned payload is XORed with `xor_mask` (storage without
  /// checksums hands back garbage). VerifyPage still reports it.
  void SilentlyCorruptPage(PageId id, uint8_t xor_mask = 0x01) {
    std::lock_guard<std::mutex> lock(mu_);
    corrupt_[id] = Corruption{true, xor_mask};
  }

  /// Deterministic kill point: the next `ops` operations (Read, Write,
  /// Allocate, Sync) succeed, then every subsequent operation fails
  /// with an IOError — the device vanished mid-pipeline. Counting down
  /// operations lets a crash harness bisect a pipeline into every
  /// possible interruption point without knowing its internals.
  void KillAfterOps(int ops) {
    std::lock_guard<std::mutex> lock(mu_);
    kill_countdown_ = ops;
  }
  /// Remaining operations before the kill point fires (-1 = disarmed).
  int kill_countdown() const {
    std::lock_guard<std::mutex> lock(mu_);
    return kill_countdown_;
  }

  /// Drops every scheduled fault and corruption mark.
  void ClearFaults();

  /// Injection counters (what the schedule actually fired).
  struct Counters {
    uint64_t read_errors = 0;
    uint64_t write_errors = 0;
    uint64_t torn_writes = 0;
    uint64_t corrupt_reads = 0;  // reads answered with kCorruption
    uint64_t silent_flips = 0;   // reads answered with flipped bits
    uint64_t killed_ops = 0;     // operations refused past the kill point
  };
  Counters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

  PageFile* base() const { return base_; }

 private:
  static constexpr int kPermanent = -1;

  struct Corruption {
    bool silent = false;
    uint8_t xor_mask = 0xff;
  };

  /// Consumes one scheduled fault for `id` if armed.
  static bool ConsumeFault(std::unordered_map<PageId, int>* faults,
                           PageId id);

  /// One read through the full fault schedule; caller holds mu_.
  Status ReadLocked(PageId id, Page* out) const;

  /// Advances the kill-point countdown; returns true once it has
  /// expired (the operation must fail). Caller holds mu_.
  bool TickKillLocked() const;

  PageFile* base_;
  std::unique_ptr<PageFile> owned_;
  FaultInjectionOptions options_;
  mutable std::mutex mu_;
  mutable Rng rng_;
  mutable Counters counters_;
  // Remaining failure counts per page (kPermanent = never recovers).
  mutable std::unordered_map<PageId, int> read_faults_;
  std::unordered_map<PageId, int> write_faults_;
  std::unordered_map<PageId, uint32_t> torn_writes_;
  std::unordered_map<PageId, Corruption> corrupt_;
  mutable int kill_countdown_ = -1;  // -1 = disarmed; 0 = dead
};

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_FAULT_INJECTION_H_
