#include "obs/trace_buffer.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "obs/json.h"

namespace fielddb {

namespace trace_internal {
std::atomic<bool> g_trace_enabled{false};
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
}  // namespace trace_internal

namespace {

// Next thread id handed to a freshly created ring. Ids are small dense
// integers (1, 2, 3, ...) so the Chrome trace reads naturally; they
// are never reused within a process.
std::atomic<uint32_t> g_next_tid{1};

}  // namespace

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

void TraceBuffer::set_enabled(bool enabled) {
  trace_internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void TraceBuffer::set_ring_capacity(size_t capacity) {
  if (capacity < 2) capacity = 2;
  ring_capacity_.store(std::bit_ceil(capacity), std::memory_order_relaxed);
}

size_t TraceBuffer::ring_capacity() const {
  return ring_capacity_.load(std::memory_order_relaxed);
}

TraceBuffer::Ring* TraceBuffer::RingForThisThread() {
  // One ring per (thread, buffer) for the buffer's whole lifetime. The
  // registry mutex is touched once per thread, at ring creation; the
  // ring itself outlives the thread (it stays exportable after the
  // thread exits, which is what a post-run trace dump wants).
  thread_local Ring* ring = nullptr;
  thread_local const TraceBuffer* ring_owner = nullptr;
  if (ring == nullptr || ring_owner != this) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings_.push_back(std::make_unique<Ring>(
        g_next_tid.fetch_add(1, std::memory_order_relaxed),
        ring_capacity_.load(std::memory_order_relaxed)));
    ring = rings_.back().get();
    ring_owner = this;
  }
  return ring;
}

void TraceBuffer::Record(const char* name, const char* category,
                         uint64_t ts_ns, uint64_t dur_ns, uint64_t items) {
  Ring* ring = RingForThisThread();
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  Slot& s = ring->slots[h & (ring->capacity - 1)];
  // Seqlock write protocol: mark the slot in-progress (odd), publish
  // the fields, then stamp it stable for generation h (even). All
  // accesses are atomics, so a racing reader sees no UB — at worst it
  // observes a non-matching stamp and skips the slot. The protocol is
  // deliberately fence-free (GCC's TSan cannot instrument standalone
  // fences): each field store is a release, so (a) the in-progress
  // stamp cannot sink below any field store, and (b) a reader whose
  // acquire field load observes a generation-h value synchronizes with
  // that store and is then guaranteed to see seq >= 2h+1 on re-check,
  // rejecting the torn copy. Release/acquire on the fields compiles to
  // plain loads/stores on x86, so the hot path is unchanged.
  s.seq.store(2 * h + 1, std::memory_order_relaxed);
  s.name.store(name, std::memory_order_release);
  s.category.store(category, std::memory_order_release);
  s.ts_ns.store(ts_ns, std::memory_order_release);
  s.dur_ns.store(dur_ns, std::memory_order_release);
  s.items.store(items, std::memory_order_release);
  s.seq.store(2 * h + 2, std::memory_order_release);
  ring->head.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t floor = ring->floor.load(std::memory_order_acquire);
    uint64_t begin = head > ring->capacity ? head - ring->capacity : 0;
    begin = std::max(begin, floor);
    for (uint64_t i = begin; i < head; ++i) {
      const Slot& s = ring->slots[i & (ring->capacity - 1)];
      if (s.seq.load(std::memory_order_acquire) != 2 * i + 2) continue;
      // Acquire field loads pair with the writer's release field stores:
      // if any load observes a newer generation's value, the writer's
      // in-progress stamp happens-before the re-check below, which then
      // sees a mismatched seq and rejects the torn copy. The acquire
      // loads also keep the re-check from being hoisted above the copy.
      TraceEvent e;
      e.name = s.name.load(std::memory_order_acquire);
      e.category = s.category.load(std::memory_order_acquire);
      e.tid = ring->tid;
      e.ts_ns = s.ts_ns.load(std::memory_order_acquire);
      e.dur_ns = s.dur_ns.load(std::memory_order_acquire);
      e.items = s.items.load(std::memory_order_acquire);
      // The slot may have been overwritten while we copied it; only
      // keep the copy if the generation stamp is unchanged.
      if (s.seq.load(std::memory_order_relaxed) != 2 * i + 2) continue;
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

uint64_t TraceBuffer::total_recorded() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_relaxed) -
             ring->floor.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t TraceBuffer::total_dropped() const {
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    const uint64_t floor = ring->floor.load(std::memory_order_relaxed);
    const uint64_t recorded = head - floor;
    if (recorded > ring->capacity) dropped += recorded - ring->capacity;
  }
  return dropped;
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& ring : rings_) {
    // Rewind the retained window to "now": events below the floor are
    // neither exported nor counted. Only the owner thread appends, so
    // a concurrent Record may land one event past the floor — that is
    // fine, it is simply retained.
    ring->floor.store(ring->head.load(std::memory_order_relaxed),
                      std::memory_order_release);
  }
}

std::string TraceBuffer::ExportChromeTrace() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  char buf[64];
  auto append_u64 = [&buf, &out](uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  // Process/thread metadata so Perfetto labels the tracks.
  out += "\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"fielddb\"}}";
  first = false;
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": ";
    JsonAppendString(&out, e.name == nullptr ? "" : e.name);
    out += ", \"cat\": ";
    JsonAppendString(&out, e.category == nullptr ? "" : e.category);
    // Chrome trace timestamps/durations are microseconds; fractional
    // values keep sub-microsecond spans visible.
    out += ", \"ph\": \"X\", \"ts\": ";
    JsonAppendDouble(&out, static_cast<double>(e.ts_ns) / 1000.0);
    out += ", \"dur\": ";
    JsonAppendDouble(&out, static_cast<double>(e.dur_ns) / 1000.0);
    out += ", \"pid\": 1, \"tid\": ";
    append_u64(e.tid);
    if (e.items != 0) {
      out += ", \"args\": {\"items\": ";
      append_u64(e.items);
      out += "}";
    }
    out += "}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
         "{\"schema\": \"fielddb-trace-v2\", \"dropped_events\": ";
  append_u64(total_dropped());
  out += "}}\n";
  return out;
}

Status TraceBuffer::WriteChromeTrace(const std::string& path) const {
  const std::string json = ExportChromeTrace();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("open " + path);
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool write_ok = n == json.size();
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !close_ok) return Status::IOError("write " + path);
  return Status::OK();
}

}  // namespace fielddb
