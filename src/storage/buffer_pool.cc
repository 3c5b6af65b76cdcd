#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

#include "obs/trace.h"
#include "storage/io_sink.h"

namespace fielddb {

PinnedPage& PinnedPage::operator=(PinnedPage&& other) noexcept {
  if (this != &other) {
    Release();
    frame_ = std::exchange(other.frame_, nullptr);
  }
  return *this;
}

const Page& PinnedPage::page() const {
  assert(valid());
  return frame_->page;
}

Page& PinnedPage::MutablePage() {
  assert(valid());
  frame_->dirty.store(true, std::memory_order_relaxed);
  return frame_->page;
}

void PinnedPage::Release() {
  if (frame_ != nullptr) {
    // No lock: every pin is taken under the shard lock, and a frame is
    // reused only after the sweep, under that lock, reads its count as 0
    // with an acquire load, which this release pairs with.
    frame_->pin_count.fetch_sub(1, std::memory_order_release);
    frame_ = nullptr;
  }
}

namespace {

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

BufferPool::BufferPool(PageFile* file, size_t capacity)
    : file_(file),
      capacity_(capacity == 0 ? 1 : capacity),
      // Small pools (the sizes eviction tests use) keep one hand over
      // every frame, so their eviction order is exactly the classic
      // one; pools big enough for real workloads split for concurrency.
      num_shards_(capacity_ >= 256 ? kDefaultShards : 1),
      shards_(std::make_unique<Shard[]>(num_shards_)) {
  static_assert(kDefaultShards <= 256, "every shard needs a frame");
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& sh = shards_[i];
    const size_t n =
        capacity_ / num_shards_ + (i < capacity_ % num_shards_ ? 1 : 0);
    sh.frames = std::vector<BufferFrame>(n);
    // Frame 0 is taken first, then on in the hand's direction.
    sh.free.resize(n);
    std::iota(sh.free.rbegin(), sh.free.rend(), 0u);
  }
  MetricsRegistry& reg = MetricsRegistry::Default();
  m_logical_reads_ = reg.GetCounter("storage.pool.logical_reads");
  m_physical_reads_ = reg.GetCounter("storage.pool.physical_reads");
  m_evictions_ = reg.GetCounter("storage.pool.evictions");
  m_read_retries_ = reg.GetCounter("storage.pool.read_retries");
  m_failed_reads_ = reg.GetCounter("storage.pool.failed_reads");
  m_failed_writes_ = reg.GetCounter("storage.pool.failed_writes");
  m_prefetch_issued_ = reg.GetCounter("storage.pool.prefetch_issued");
  m_prefetch_hit_ = reg.GetCounter("storage.pool.prefetch_hit");
  m_prefetch_failed_ = reg.GetCounter("storage.pool.prefetch_failed");
  m_batch_reads_ = reg.GetCounter("storage.pool.batch_reads");
  m_read_latency_us_ = reg.GetHistogram("storage.pool.read_latency_us");
  m_write_latency_us_ = reg.GetHistogram("storage.pool.write_latency_us");
}

BufferPool::~BufferPool() {
  if (closed_.load(std::memory_order_acquire)) return;
  // Under no-steal the dirty frames must NOT reach the file outside a
  // checkpoint; the WAL holds their mutations, so dropping them is the
  // crash-consistent default.
  if (no_steal_.load(std::memory_order_acquire)) return;
  const Status s = Flush();
  if (!s.ok()) {
    // A destructor cannot surface the error; callers that care must use
    // Close(). Dirty data may not have reached the file.
    std::fprintf(stderr,
                 "BufferPool: dropping dirty frames at destruction: %s\n",
                 s.ToString().c_str());
  }
}

IoStats BufferPool::stats() const {
  IoStats total;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].stats;
  }
  return total;
}

void BufferPool::ResetStats() {
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].stats.Reset();
  }
}

void BufferPool::CountLogicalRead(Shard& sh) {
  ++sh.stats.logical_reads;
  if (IoStats* sink = CurrentIoSink()) ++sink->logical_reads;
  m_logical_reads_->Increment();
}

bool BufferPool::CountPhysicalRead(Shard& sh, PageId id) {
  const uint64_t phys = ++sh.stats.physical_reads;
  const PageId prev = last_physical_read_.exchange(id, std::memory_order_relaxed);
  const bool sequential = (id == prev + 1);
  if (sequential) ++sh.stats.sequential_reads;
  if (IoStats* sink = CurrentIoSink()) {
    ++sink->physical_reads;
    if (sequential) ++sink->sequential_reads;
  }
  m_physical_reads_->Increment();
  return MetricsRegistry::enabled() && phys % kLatencySampleEvery == 0;
}

Status BufferPool::ReadWithRetry(Shard& sh, PageId id, Page* out) {
  Status s = file_->Read(id, out);
  for (int attempt = 0; !s.ok() && s.code() == StatusCode::kIOError &&
                        attempt < kMaxReadRetries;
       ++attempt) {
    ++sh.stats.read_retries;
    if (IoStats* sink = CurrentIoSink()) ++sink->read_retries;
    m_read_retries_->Increment();
    // Capped exponential backoff: 64us, 128us, 256us. Long enough to
    // ride out a transient stall, short enough not to dominate tests.
    std::this_thread::sleep_for(std::chrono::microseconds(64) * (1 << attempt));
    s = file_->Read(id, out);
  }
  if (!s.ok()) {
    ++sh.stats.failed_reads;
    if (IoStats* sink = CurrentIoSink()) ++sink->failed_reads;
    m_failed_reads_->Increment();
  }
  return s;
}

Status BufferPool::Fetch(PageId id, PinnedPage* out) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("buffer pool is closed");
  }
  Shard& sh = ShardOf(id);
  std::lock_guard<std::mutex> lock(sh.mu);
  CountLogicalRead(sh);
  if (const auto it = sh.index.find(id); it != sh.index.end()) {
    BufferFrame& f = sh.frames[it->second];
    f.referenced = true;
    PinLocked(f, out);
    return Status::OK();
  }
  StatusOr<uint32_t> k = TakeFrameLocked(sh);
  if (!k.ok()) return k.status();
  // The file read happens while the shard lock is held: concurrent
  // misses for pages in the same shard serialize, which also
  // guarantees the same page is never read (and counted) twice by
  // racing threads. The page enters unreferenced, so a page touched
  // once is evicted before one touched twice; the read sizes a new
  // frame's bytes.
  BufferFrame& f = sh.frames[*k];
  const bool time_read = CountPhysicalRead(sh, id);
  const auto t0 = time_read ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
  if (const Status s = ReadWithRetry(sh, id, &f.page); !s.ok()) {
    sh.free.push_back(*k);
    return s;
  }
  if (time_read) m_read_latency_us_->Record(MicrosSince(t0));
  f.id = id;
  sh.index.emplace(id, *k);
  PinLocked(f, out);
  return Status::OK();
}

Status BufferPool::PrefetchRange(PageId first, size_t count) {
  std::vector<PageId> ids(count);
  std::iota(ids.begin(), ids.end(), first);
  return Prefetch(ids);
}

Status BufferPool::Prefetch(std::span<const PageId> ids) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("buffer pool is closed");
  }
  ScopedSpan span("pool.prefetch", "pool");
  span.set_items(ids.size());

  // Pass 1 — classify under brief shard locks: which of the pages are
  // already resident (count a hit, done) and which must be read.
  std::vector<PageId> missing;
  missing.reserve(ids.size());
  for (const PageId id : ids) {
    Shard& sh = ShardOf(id);
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.index.contains(id)) {
      m_prefetch_hit_->Increment();
    } else {
      missing.push_back(id);
    }
  }
  if (missing.empty()) return Status::OK();

  // Pass 2 — one ReadBatch for every miss, with NO shard lock held: on
  // a disk file a run of consecutive misses is one preadv, so the
  // window costs one transfer instead of one per page. Frames come
  // later, so a concurrent Fetch of one of these pages may race us and
  // read it itself; pass 3 detects that and discards our copy.
  std::vector<Page> pages(missing.size(), Page(file_->page_size()));
  std::vector<Status> statuses(missing.size());
  const bool timing = MetricsRegistry::enabled();
  const auto t0 = timing ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point{};
  {
    ScopedSpan reap("pool.reap", "pool");
    reap.set_items(missing.size());
    file_->ReadBatch(missing.data(), missing.size(), pages.data(),
                     statuses.data());
  }
  m_batch_reads_->Increment();
  if (timing) {
    m_read_latency_us_->Record(MicrosSince(t0) /
                               static_cast<double>(missing.size()));
  }

  // Pass 3 — install the successful pages, in ascending order so the
  // sequential-read accounting sees the same id stream a Fetch loop
  // would. Readahead is speculative, so a failed page is counted only
  // by storage.pool.prefetch_failed — never as a physical or failed
  // read — and left absent for Fetch's normal counted, retried read,
  // keeping I/O totals identical to the no-readahead path. On success
  // the read counts as physical (+sequential when ids run
  // consecutively) exactly like the Fetch miss it replaces, and never
  // as logical. Making room passes the window's own pages by, so no
  // install evicts a page the caller is about to fetch.
  for (size_t k = 0; k < missing.size(); ++k) {
    const PageId id = missing[k];
    if (!statuses[k].ok()) {
      m_prefetch_failed_->Increment();
      continue;
    }
    Shard& sh = ShardOf(id);
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.index.contains(id)) {
      // A Fetch raced us and already read (and counted) this page;
      // our copy is redundant and counts nowhere.
      continue;
    }
    const StatusOr<uint32_t> slot = TakeFrameLocked(sh, ids);
    if (!slot.ok()) {
      // Shard is wedged (all frames pinned or in the window, or the
      // victim's write-back failed). Readahead is optional; leave the
      // page to Fetch.
      continue;
    }
    CountPhysicalRead(sh, id);
    m_prefetch_issued_->Increment();
    // Referenced, so other traffic's sweeps give it a turn before the
    // caller fetches it.
    BufferFrame& f = sh.frames[*slot];
    f.page = std::move(pages[k]);
    f.id = id;
    f.referenced = true;
    sh.index.emplace(id, *slot);
  }
  return Status::OK();
}

StatusOr<PageId> BufferPool::Allocate(PinnedPage* out) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("buffer pool is closed");
  }
  StatusOr<PageId> id = file_->AllocateZeroed();
  if (!id.ok()) return id.status();
  Shard& sh = ShardOf(*id);
  std::lock_guard<std::mutex> lock(sh.mu);
  StatusOr<uint32_t> k = TakeFrameLocked(sh);
  if (!k.ok()) return k.status();
  // The new page's one copy, zeroed once, in its frame.
  BufferFrame& f = sh.frames[*k];
  if (f.page.size() == 0) {
    f.page = Page(file_->page_size());
  } else {
    f.page.Zero();
  }
  f.id = *id;
  f.dirty.store(true, std::memory_order_relaxed);
  sh.index.emplace(*id, *k);
  PinLocked(f, out);
  return *id;
}

void BufferPool::PinLocked(BufferFrame& frame, PinnedPage* out) {
  frame.pin_count.fetch_add(1, std::memory_order_relaxed);
  // Releasing the pin *out held takes no lock, so this may run under
  // the shard's.
  *out = PinnedPage(&frame);
}

Status BufferPool::WriteBackLocked(Shard& sh, BufferFrame& frame) {
  if (frame.dirty.load(std::memory_order_relaxed)) {
    const bool time_write = MetricsRegistry::enabled();
    const auto t0 = time_write ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    const Status s = file_->Write(frame.id, frame.page);
    if (!s.ok()) {
      ++sh.stats.failed_writes;
      if (IoStats* sink = CurrentIoSink()) ++sink->failed_writes;
      m_failed_writes_->Increment();
      return s;
    }
    if (time_write) m_write_latency_us_->Record(MicrosSince(t0));
    frame.dirty.store(false, std::memory_order_relaxed);
    ++sh.stats.writes;
    if (IoStats* sink = CurrentIoSink()) ++sink->writes;
  }
  return Status::OK();
}

StatusOr<uint32_t> BufferPool::TakeFrameLocked(
    Shard& sh, std::span<const PageId> keep) {
  if (!sh.free.empty()) {
    const uint32_t k = sh.free.back();
    sh.free.pop_back();
    return k;
  }
  // Reached only when a frame must actually be evicted, so the span
  // traces eviction pressure (and its write-back cost), not every pin.
  ScopedSpan span("pool.evict", "pool");
  const bool no_steal = no_steal_.load(std::memory_order_acquire);
  const uint32_t n = static_cast<uint32_t>(sh.frames.size());
  bool all_pinned = true;
  // Two turns: the first may find only reference bits to clear.
  for (uint32_t step = 0; step < 2 * n; ++step) {
    const uint32_t k = sh.hand;
    sh.hand = k + 1 == n ? 0 : k + 1;
    BufferFrame& f = sh.frames[k];
    if (f.pin_count.load(std::memory_order_acquire) != 0 ||
        std::binary_search(keep.begin(), keep.end(), f.id)) {
      continue;
    }
    all_pinned = false;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    // Under no-steal a dirty frame stays in memory until the next
    // checkpoint.
    if (no_steal && f.dirty.load(std::memory_order_relaxed)) continue;
    // A failed write-back leaves the victim resident (its dirty data
    // would otherwise be lost); a later sweep meets it again.
    FIELDDB_RETURN_IF_ERROR(WriteBackLocked(sh, f));
    sh.index.erase(f.id);
    f.id = kInvalidPageId;
    ++sh.stats.evictions;
    if (IoStats* sink = CurrentIoSink()) ++sink->evictions;
    m_evictions_->Increment();
    return k;
  }
  return Status::FailedPrecondition(
      all_pinned ? "buffer pool exhausted: all frames pinned"
                 : "buffer pool full of dirty frames: checkpoint required");
}

void BufferPool::FreeLocked(Shard& sh, uint32_t k) {
  BufferFrame& f = sh.frames[k];
  sh.index.erase(f.id);
  f.id = kInvalidPageId;
  f.referenced = false;
  f.dirty.store(false, std::memory_order_relaxed);
  sh.free.push_back(k);
}

Status BufferPool::Flush() {
  if (no_steal_.load(std::memory_order_acquire)) {
    // No-steal forbids in-place write-back; the checkpoint captures
    // dirty frames via TryGetResident into a fresh snapshot instead.
    return Status::OK();
  }
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    // A free frame is clean, so it writes nothing.
    for (BufferFrame& f : sh.frames) {
      FIELDDB_RETURN_IF_ERROR(WriteBackLocked(sh, f));
    }
  }
  return Status::OK();
}

Status BufferPool::Close() {
  if (closed_.load(std::memory_order_acquire)) return Status::OK();
  FIELDDB_RETURN_IF_ERROR(Flush());
  FIELDDB_RETURN_IF_ERROR(file_->Sync());
  closed_.store(true, std::memory_order_release);
  return Status::OK();
}

Status BufferPool::Clear() {
  const bool no_steal = no_steal_.load(std::memory_order_acquire);
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    // Backwards, with the hand back at frame 0, so a cleared shard
    // takes its frames in the order a new one does.
    for (uint32_t k = static_cast<uint32_t>(sh.frames.size()); k-- > 0;) {
      BufferFrame& f = sh.frames[k];
      if (f.id == kInvalidPageId ||
          f.pin_count.load(std::memory_order_acquire) != 0 ||
          (no_steal && f.dirty.load(std::memory_order_relaxed))) {
        continue;
      }
      FIELDDB_RETURN_IF_ERROR(WriteBackLocked(sh, f));
      FreeLocked(sh, k);
    }
    sh.hand = 0;
  }
  return Status::OK();
}

Status BufferPool::Abandon() {
  if (closed_.load(std::memory_order_acquire)) return Status::OK();
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (const BufferFrame& f : sh.frames) {
      if (f.pin_count.load(std::memory_order_acquire) != 0) {
        return Status::FailedPrecondition(
            "cannot abandon buffer pool: a frame is still pinned");
      }
    }
  }
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (uint32_t k = 0; k < sh.frames.size(); ++k) {
      if (sh.frames[k].id != kInvalidPageId) FreeLocked(sh, k);
    }
  }
  closed_.store(true, std::memory_order_release);
  return Status::OK();
}

bool BufferPool::TryGetResident(PageId id, Page* out) {
  Shard& sh = ShardOf(id);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.index.find(id);
  if (it == sh.index.end()) return false;
  *out = sh.frames[it->second].page;
  return true;
}

size_t BufferPool::num_frames() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].index.size();
  }
  return total;
}

}  // namespace fielddb
