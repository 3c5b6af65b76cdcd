#ifndef FIELDDB_OBS_TRACE_BUFFER_H_
#define FIELDDB_OBS_TRACE_BUFFER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace fielddb {

/// Trace v2: an always-on, process-wide span store. Where QueryTrace
/// (obs/trace.h) builds a per-query span list that the caller asked for
/// explicitly, TraceBuffer passively collects *every* span ScopedSpan
/// (obs/trace.h) records in the process — query phases, WAL commits,
/// buffer-pool evictions and prefetches, executor queue waits, recovery
/// phases — into bounded per-thread ring buffers, and exports them as
/// Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev).
///
/// Design constraints, in order:
///  1. Recording must be cheap enough to leave on in production
///     (bench/bench_obs_overhead.cc pins the whole obs layer under 5%
///     on the Fig-8a workload). Disabled, a ScopedSpan without a
///     per-query trace is one relaxed atomic load and a branch.
///     Enabled, a record is two clock reads plus a handful of relaxed
///     atomic stores into a ring slot owned by the recording thread —
///     no locks, no allocation, no cross-thread cache-line contention
///     on the hot path.
///  2. Memory is bounded: each thread owns a fixed-capacity ring and
///     overwrites its own oldest events (drop-oldest). Drops are
///     counted exactly (total recorded minus ring capacity), never
///     silently.
///  3. Export may run concurrently with recorders and must be safe
///     (TSan-clean). Every slot field is an atomic and each slot
///     carries a seqlock-style generation stamp, so a reader that
///     races a wrap-around overwrite detects the torn slot and skips
///     it instead of reporting a frankenevent.
///
/// Span names and categories are `const char*` and must point at
/// static-storage strings (string literals): the ring stores the
/// pointer, not a copy.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint32_t tid = 0;      // stable per-thread id assigned at ring creation
  uint64_t ts_ns = 0;    // start, TraceBuffer::NowNs() (since process start)
  uint64_t dur_ns = 0;   // duration, nanoseconds
  uint64_t items = 0;    // span-specific cardinality (0 = unset)
};

class TraceBuffer {
 public:
  static constexpr size_t kDefaultRingCapacity = 8192;  // per thread

  /// The process-wide buffer every ScopedSpan records into.
  static TraceBuffer& Global();

  /// Globally enables/disables recording (export still works). The
  /// flag gates ScopedSpan's constructor, so a disabled process pays
  /// one relaxed load + branch per instrumented site.
  static void set_enabled(bool enabled);
  static bool enabled();

  /// Per-thread ring capacity, rounded up to a power of two. Affects
  /// rings created after the call (a thread's ring is created on its
  /// first Record); existing rings keep their size.
  void set_ring_capacity(size_t capacity);
  size_t ring_capacity() const;

  /// Appends one complete span to the calling thread's ring,
  /// overwriting the thread's oldest event once the ring is full.
  /// Wait-free for the recording thread.
  void Record(const char* name, const char* category, uint64_t ts_ns,
              uint64_t dur_ns, uint64_t items = 0);

  /// Steady-clock nanoseconds since process start: the one clock every
  /// span reads, at its start and at its end. The epoch is fixed during
  /// static initialization, not at the first use of the buffer, so a
  /// span that began before the buffer was enabled keeps its true start.
  static uint64_t NowNs();

  /// Copies out every retained event, oldest-first per thread. Safe
  /// concurrently with recorders; slots being overwritten mid-read are
  /// detected via their generation stamp and skipped (they count as
  /// dropped on the next Snapshot only if actually overwritten).
  std::vector<TraceEvent> Snapshot() const;

  /// Total events ever recorded / dropped (overwritten before export),
  /// summed across all thread rings.
  uint64_t total_recorded() const;
  uint64_t total_dropped() const;

  /// Drops all retained events and zeroes the recorded/dropped
  /// accounting. Rings stay registered (thread ids are stable).
  void Clear();

  /// Chrome trace-event JSON ("X" complete events, one pid, one tid
  /// per recording thread) — load the string or file directly in
  /// ui.perfetto.dev or chrome://tracing.
  std::string ExportChromeTrace() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  // One ring slot. `seq` is 2*gen+1 while the owner writes generation
  // `gen` into the slot and 2*gen+2 once it is stable; a reader that
  // observes anything else for the generation it wants skips the slot.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> category{nullptr};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> items{0};
  };

  struct Ring {
    explicit Ring(uint32_t tid_in, size_t capacity_in)
        : tid(tid_in),
          capacity(capacity_in),
          slots(std::make_unique<Slot[]>(capacity_in)) {}
    const uint32_t tid;
    const size_t capacity;  // power of two
    const std::unique_ptr<Slot[]> slots;
    // Next event number for this ring; events [max(0, head-capacity),
    // head) are retained, everything older was overwritten.
    std::atomic<uint64_t> head{0};
    // Event number Clear() rewound to; retained range starts no
    // earlier than this.
    std::atomic<uint64_t> floor{0};
  };

  TraceBuffer() = default;
  Ring* RingForThisThread();

  mutable std::mutex registry_mu_;  // guards rings_ growth only
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<size_t> ring_capacity_{kDefaultRingCapacity};
};

namespace trace_internal {
/// Storage for the global enable flag; use TraceBuffer::enabled().
extern std::atomic<bool> g_trace_enabled;
/// The trace clock's epoch; use TraceBuffer::NowNs().
extern const std::chrono::steady_clock::time_point g_epoch;
}  // namespace trace_internal

inline bool TraceBuffer::enabled() {
  return trace_internal::g_trace_enabled.load(std::memory_order_relaxed);
}

inline uint64_t TraceBuffer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_internal::g_epoch)
          .count());
}

}  // namespace fielddb

#endif  // FIELDDB_OBS_TRACE_BUFFER_H_
