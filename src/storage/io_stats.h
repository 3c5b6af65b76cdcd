#ifndef FIELDDB_STORAGE_IO_STATS_H_
#define FIELDDB_STORAGE_IO_STATS_H_

#include <cstdint>

namespace fielddb {

/// I/O counters accumulated by a BufferPool. "Logical" reads count every
/// page access; "physical" reads count buffer-pool misses (what an actual
/// disk would have served). All figure benches report both alongside wall
/// time, since the paper's curves are driven by page accesses.
struct IoStats {
  uint64_t logical_reads = 0;
  uint64_t physical_reads = 0;
  /// Physical reads whose page id directly follows the previous physical
  /// read (what a spinning disk serves without a seek). The complement
  /// (physical_reads - sequential_reads) pays a seek; this split is what
  /// lets the harness model the paper's 2002 disk (see bench/harness.cc).
  uint64_t sequential_reads = 0;
  uint64_t writes = 0;
  uint64_t evictions = 0;
  /// Transient read faults absorbed by the pool's bounded retry loop
  /// (each retry that was needed counts once).
  uint64_t read_retries = 0;
  /// Reads that still failed after retries (I/O errors or corruption).
  uint64_t failed_reads = 0;
  /// Write-backs that failed (the dirty frame stays resident).
  uint64_t failed_writes = 0;

  uint64_t random_reads() const { return physical_reads - sequential_reads; }

  void Reset() { *this = IoStats{}; }

  bool operator==(const IoStats&) const = default;

  /// Field-wise accumulation. QueryStats::Accumulate and the trace/bench
  /// aggregators all go through this, so adding a counter here is the
  /// single place it must be added to stay in every rollup.
  IoStats& operator+=(const IoStats& o) {
    logical_reads += o.logical_reads;
    physical_reads += o.physical_reads;
    sequential_reads += o.sequential_reads;
    writes += o.writes;
    evictions += o.evictions;
    read_retries += o.read_retries;
    failed_reads += o.failed_reads;
    failed_writes += o.failed_writes;
    return *this;
  }

  IoStats operator-(const IoStats& o) const {
    return IoStats{logical_reads - o.logical_reads,
                   physical_reads - o.physical_reads,
                   sequential_reads - o.sequential_reads,
                   writes - o.writes,
                   evictions - o.evictions,
                   read_retries - o.read_retries,
                   failed_reads - o.failed_reads,
                   failed_writes - o.failed_writes};
  }
};

}  // namespace fielddb

#endif  // FIELDDB_STORAGE_IO_STATS_H_
