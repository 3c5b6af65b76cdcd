#ifndef FIELDDB_CORE_EXT_SORT_H_
#define FIELDDB_CORE_EXT_SORT_H_

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"

namespace fielddb {

/// Stable LSD radix sort of `items` by `key_of(item)` (a uint64_t), one
/// byte per pass, through `scratch` (at least items.size() elements).
/// One counting pass histograms all eight key bytes; a byte on which
/// every key agrees — the high bytes of keys that use fewer — costs no
/// pass. Items with equal keys keep their input order, so input already
/// in a tie-break order (insertion order, ascending id) comes out
/// sorted by (key, tie-break), as a comparison sort on that pair would.
template <typename T, typename KeyOf>
void RadixSortByKey(std::span<T> items, std::span<T> scratch, KeyOf key_of) {
  const size_t n = items.size();
  if (n < 2) return;
  size_t counts[8][256] = {};
  for (const T& item : items) {
    const uint64_t key = key_of(item);
    for (int b = 0; b < 8; ++b) ++counts[b][(key >> (8 * b)) & 0xff];
  }
  T* src = items.data();
  T* dst = scratch.data();
  for (int b = 0; b < 8; ++b) {
    size_t* const count = counts[b];
    if (count[(key_of(src[0]) >> (8 * b)) & 0xff] == n) continue;
    size_t offset = 0;
    for (size_t& c : std::span<size_t>(count, 256)) {
      offset += std::exchange(c, offset);
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(key_of(src[i]) >> (8 * b)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items.data()) std::copy(src, src + n, items.data());
}

/// Bounded-memory external merge sort of (hilbert_key, record) pairs —
/// the build-side engine that lets every field type bulk-load within a
/// fixed budget instead of materializing the whole keyed field in RAM
/// (DESIGN.md §16). Records are Added in arbitrary order with their
/// space-filling-curve key; Merge() emits them in ascending key order.
///
/// The buffer is sorted by RadixSortByKey, whose scratch copy of the
/// buffer counts against `memory_budget_bytes`: when the buffered
/// entries and that scratch would exceed the budget, the buffer is
/// sorted and appended as one run to the sorter's one anonymous spill
/// file. Merge() then k-way merges the runs with the final in-RAM
/// leftover through a binary heap, reading each run a block (about
/// 4 KB) at a time.
///
/// Determinism: ties on the key are broken by insertion order. A run
/// holds a contiguous stretch of insertions, sorted stably, and the
/// merge breaks a tie between runs by run order (the in-RAM leftover,
/// the latest insertions, last), so a budgeted build emits records in
/// exactly the order an unlimited sort over (key, insertion order)
/// would — external and in-RAM builds produce byte-identical stores
/// (proved by ext_sort_test and the build differentials in the
/// extension tests).
///
/// A budget of 0 means unlimited: everything stays in RAM and Merge is
/// one sort, the fast path for fields that fit.
template <typename Record>
class ExternalKeyRecordSorter {
 public:
  static_assert(std::is_trivially_copyable_v<Record>,
                "records are raw run-file bytes");

  struct Entry {
    uint64_t key;
    Record record;
  };

  explicit ExternalKeyRecordSorter(size_t memory_budget_bytes)
      : budget_(memory_budget_bytes) {}

  ExternalKeyRecordSorter(const ExternalKeyRecordSorter&) = delete;
  ExternalKeyRecordSorter& operator=(const ExternalKeyRecordSorter&) =
      delete;

  /// Sizes the buffer for `records` more Adds — at most what one run
  /// may hold under the budget — so it never regrows on the way.
  void Reserve(uint64_t records) {
    uint64_t capacity = buffer_.size() + records;
    if (budget_ > 0) capacity = std::min<uint64_t>(capacity, RunCapacity());
    buffer_.reserve(static_cast<size_t>(capacity));
  }

  /// Buffers one keyed record, spilling a sorted run first when the
  /// buffer and its sort scratch are at the budget.
  Status Add(uint64_t key, const Record& record) {
    if (budget_ > 0 && buffer_.size() >= RunCapacity()) {
      FIELDDB_RETURN_IF_ERROR(SpillRun());
    }
    buffer_.push_back(Entry{key, record});
    peak_buffered_bytes_ =
        std::max(peak_buffered_bytes_, buffer_.size() * sizeof(Entry));
    return Status::OK();
  }

  /// Emits every added record in ascending (key, insertion order). The
  /// sorter is consumed: records stream out of the spilled runs and the
  /// leftover buffer without ever being whole in RAM again. `emit`
  /// returns a Status so downstream appenders can fail the build.
  template <typename Emit>  // Status(uint64_t key, const Record&)
  Status Merge(Emit emit) {
    SortBuffer();
    if (runs_.empty()) {
      // Fast path: nothing ever spilled.
      for (const Entry& e : buffer_) {
        FIELDDB_RETURN_IF_ERROR(emit(e.key, e.record));
      }
      buffer_.clear();
      return Status::OK();
    }

    // One cursor per spilled run, reading it a block at a time, plus
    // one over the in-RAM leftover.
    std::vector<Cursor> cursors;
    cursors.reserve(runs_.size() + 1);
    for (const Run& run : runs_) {
      Cursor c;
      c.next = run.first;
      c.unloaded = run.num_entries;
      c.block = std::make_unique_for_overwrite<Entry[]>(kBlockEntries);
      FIELDDB_RETURN_IF_ERROR(Load(&c));
      cursors.push_back(std::move(c));
    }
    if (!buffer_.empty()) {
      Cursor c;
      c.head = buffer_.data();
      c.end = buffer_.data() + buffer_.size();
      cursors.push_back(std::move(c));
    }

    // A binary heap of the cursors by their heads' keys, least on top,
    // ties to the earlier run: each record costs O(log k) comparisons
    // over k runs.
    std::vector<size_t> heap(cursors.size());
    std::iota(heap.begin(), heap.end(), size_t{0});
    const auto after = [&cursors](size_t a, size_t b) {
      const Entry& x = *cursors[a].head;
      const Entry& y = *cursors[b].head;
      return x.key > y.key || (x.key == y.key && a > b);
    };
    std::make_heap(heap.begin(), heap.end(), after);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), after);
      Cursor& c = cursors[heap.back()];
      FIELDDB_RETURN_IF_ERROR(emit(c.head->key, c.head->record));
      if (++c.head == c.end) {
        if (c.unloaded == 0) {
          heap.pop_back();
          continue;
        }
        FIELDDB_RETURN_IF_ERROR(Load(&c));
      }
      std::push_heap(heap.begin(), heap.end(), after);
    }
    buffer_.clear();
    runs_.clear();
    spill_.reset();
    return Status::OK();
  }

  /// --- Build telemetry (bench_ext_build reports these) ---

  uint64_t spill_runs() const { return spill_runs_; }
  uint64_t spilled_records() const { return spilled_records_; }
  /// High-water mark of the in-RAM buffer and its sort scratch; never
  /// exceeds the budget (+1 entry of slack) when one is set.
  size_t peak_buffered_bytes() const { return peak_buffered_bytes_; }
  size_t memory_budget_bytes() const { return budget_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  /// A sorted run: entries [first, first + num_entries) of the spill
  /// file.
  struct Run {
    uint64_t first = 0;
    uint64_t num_entries = 0;
  };
  /// A merge cursor: `head` walks the loaded entries [head, end); a
  /// spilled run's cursor then loads its next block from the file.
  struct Cursor {
    const Entry* head = nullptr;
    const Entry* end = nullptr;
    uint64_t next = 0;      // spill-file index of the next entry to load
    uint64_t unloaded = 0;  // the run's entries still in the file
    std::unique_ptr<Entry[]> block;  // null for the in-RAM leftover
  };

  /// Entries a spilled run's cursor loads per read (about 4 KB).
  static constexpr size_t kBlockEntries =
      sizeof(Entry) >= 4096 ? 1 : 4096 / sizeof(Entry);

  /// Entries a run may hold under the budget: as many as fit beside
  /// their sort scratch, and at least one.
  size_t RunCapacity() const {
    return std::max<size_t>(budget_ / (2 * sizeof(Entry)), 1);
  }

  /// Bytes that sorting `n` buffered entries holds: the entries and, for
  /// two or more, the radix sort's scratch copy.
  static size_t SortBytes(size_t n) {
    return (n < 2 ? n : 2 * n) * sizeof(Entry);
  }

  void SortBuffer() {
    peak_buffered_bytes_ =
        std::max(peak_buffered_bytes_, SortBytes(buffer_.size()));
    if (buffer_.size() < 2) return;
    ScopedSpan span("build.sort", "build");
    span.set_items(buffer_.size());
    const size_t n = buffer_.size();
    const auto scratch = std::make_unique_for_overwrite<Entry[]>(n);
    RadixSortByKey(std::span<Entry>(buffer_),
                   std::span<Entry>(scratch.get(), n),
                   [](const Entry& e) { return e.key; });
  }

  /// Sorts the buffer and appends it to the spill file as one run. Every
  /// run shares the one file, created at the first spill.
  Status SpillRun() {
    SortBuffer();
    if (spill_ == nullptr) {
      spill_.reset(std::tmpfile());
      if (spill_ == nullptr) {
        return Status::IOError("cannot create external-sort spill file");
      }
    }
    const Run run{spilled_records_, buffer_.size()};
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(buffer_.data());
    const size_t len = buffer_.size() * sizeof(Entry);
    for (size_t done = 0; done < len;) {
      const ssize_t n =
          ::pwrite(::fileno(spill_.get()), bytes + done, len - done,
                   static_cast<off_t>(run.first * sizeof(Entry) + done));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::IOError("short write spilling external-sort run");
      }
      done += static_cast<size_t>(n);
    }
    ++spill_runs_;
    spilled_records_ += buffer_.size();
    runs_.push_back(run);
    buffer_.clear();
    return Status::OK();
  }

  /// Loads a spilled run's next block into its cursor. Precondition:
  /// unloaded > 0.
  Status Load(Cursor* c) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(c->unloaded, kBlockEntries));
    uint8_t* const bytes = reinterpret_cast<uint8_t*>(c->block.get());
    const size_t len = n * sizeof(Entry);
    for (size_t done = 0; done < len;) {
      const ssize_t got =
          ::pread(::fileno(spill_.get()), bytes + done, len - done,
                  static_cast<off_t>(c->next * sizeof(Entry) + done));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        return Status::IOError("short read from external-sort run");
      }
      done += static_cast<size_t>(got);
    }
    c->head = c->block.get();
    c->end = c->head + n;
    c->next += n;
    c->unloaded -= n;
    return Status::OK();
  }

  size_t budget_;
  std::vector<Entry> buffer_;
  /// The spill file (std::tmpfile: unlinked on creation, reclaimed by
  /// the OS even on a crash), read and written with positioned calls.
  std::unique_ptr<std::FILE, FileCloser> spill_;
  std::vector<Run> runs_;
  uint64_t spill_runs_ = 0;
  uint64_t spilled_records_ = 0;
  size_t peak_buffered_bytes_ = 0;
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_EXT_SORT_H_
