#include "storage/buffer_pool.h"

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
    pool_ = other.pool_;
    id_ = other.id_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.id_ = kInvalidPageId;
    other.frame_ = nullptr;
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
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
    pool_ = nullptr;
    id_ = kInvalidPageId;
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

BufferPool::BufferPool(PageFile* file, size_t capacity, size_t num_shards)
    : file_(file), capacity_(capacity == 0 ? 1 : capacity) {
  if (num_shards == 0) {
    // Small pools (the sizes eviction tests use) keep the single global
    // LRU so their eviction order is exactly the classic one; pools big
    // enough for real workloads split for concurrency.
    num_shards = capacity_ >= 256 ? kDefaultShards : 1;
  }
  if (num_shards > capacity_) num_shards = capacity_;
  num_shards_ = num_shards;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].capacity =
        capacity_ / num_shards_ + (i < capacity_ % num_shards_ ? 1 : 0);
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
  // The new pin is constructed under the shard lock but assigned into
  // *out only after it is released: assigning may Release a previous
  // pin *out holds, and that Unpin may need this same shard's mutex.
  PinnedPage pin;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    CountLogicalRead(sh);
    auto it = sh.frames.find(id);
    if (it != sh.frames.end()) {
      BufferFrame& f = it->second;
      if (f.in_lru) {
        sh.lru.erase(f.lru_pos);
        f.in_lru = false;
      }
      f.pin_count.fetch_add(1, std::memory_order_relaxed);
      pin = PinnedPage(this, id, &f);
    } else {
      FIELDDB_RETURN_IF_ERROR(EnsureCapacityLocked(sh));
      // The file read happens while the shard lock is held: concurrent
      // misses for pages in the same shard serialize, which also
      // guarantees the same page is never read (and counted) twice by
      // racing threads.
      const bool time_read = CountPhysicalRead(sh, id);
      Page page(file_->page_size());
      if (time_read) {
        const auto t0 = std::chrono::steady_clock::now();
        FIELDDB_RETURN_IF_ERROR(ReadWithRetry(sh, id, &page));
        m_read_latency_us_->Record(MicrosSince(t0));
      } else {
        FIELDDB_RETURN_IF_ERROR(ReadWithRetry(sh, id, &page));
      }
      auto [fit, inserted] = sh.frames.try_emplace(id, std::move(page));
      assert(inserted);
      (void)inserted;
      BufferFrame& f = fit->second;
      f.pin_count.store(1, std::memory_order_relaxed);
      pin = PinnedPage(this, id, &f);
    }
  }
  *out = std::move(pin);
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
  // already resident (count a hit, done) and which must be read. A
  // resident page moves to the MRU end, so making room for the window's
  // misses never evicts a page the caller is about to fetch.
  std::vector<PageId> missing;
  missing.reserve(ids.size());
  for (const PageId id : ids) {
    Shard& sh = ShardOf(id);
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.frames.find(id);
    if (it != sh.frames.end()) {
      m_prefetch_hit_->Increment();
      if (it->second.in_lru) {
        sh.lru.splice(sh.lru.end(), sh.lru, it->second.lru_pos);
      }
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
  // as logical.
  for (size_t k = 0; k < missing.size(); ++k) {
    const PageId id = missing[k];
    if (!statuses[k].ok()) {
      m_prefetch_failed_->Increment();
      continue;
    }
    Shard& sh = ShardOf(id);
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.frames.find(id) != sh.frames.end()) {
      // A Fetch raced us and already read (and counted) this page;
      // our copy is redundant and counts nowhere.
      continue;
    }
    if (!EnsureCapacityLocked(sh).ok()) {
      // Shard is wedged (all frames pinned, or the victim's write-back
      // failed). Readahead is optional; leave the page to Fetch.
      continue;
    }
    CountPhysicalRead(sh, id);
    m_prefetch_issued_->Increment();
    auto [fit, inserted] = sh.frames.try_emplace(id, std::move(pages[k]));
    assert(inserted);
    (void)inserted;
    BufferFrame& f = fit->second;
    // Unpinned and immediately evictable: enter at the MRU end.
    sh.lru.push_back(id);
    f.lru_pos = std::prev(sh.lru.end());
    f.in_lru = true;
  }
  return Status::OK();
}

StatusOr<PageId> BufferPool::Allocate(PinnedPage* out) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("buffer pool is closed");
  }
  StatusOr<PageId> id = file_->AllocateZeroed();
  if (!id.ok()) return id.status();
  // The new page's one copy, zeroed once and moved into its frame.
  Page page(file_->page_size());
  Shard& sh = ShardOf(*id);
  PinnedPage pin;  // assigned into *out outside the lock, as in Fetch
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    FIELDDB_RETURN_IF_ERROR(EnsureCapacityLocked(sh));
    auto [fit, inserted] = sh.frames.try_emplace(*id, std::move(page));
    assert(inserted);
    (void)inserted;
    BufferFrame& f = fit->second;
    f.pin_count.store(1, std::memory_order_relaxed);
    f.dirty.store(true, std::memory_order_relaxed);
    pin = PinnedPage(this, *id, &f);
  }
  *out = std::move(pin);
  return *id;
}

void BufferPool::Unpin(PageId id) {
  Shard& sh = ShardOf(id);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.frames.find(id);
  assert(it != sh.frames.end());
  BufferFrame& f = it->second;
  const uint32_t prev = f.pin_count.fetch_sub(1, std::memory_order_relaxed);
  assert(prev > 0);
  (void)prev;
  if (prev == 1) {
    sh.lru.push_back(id);
    f.lru_pos = std::prev(sh.lru.end());
    f.in_lru = true;
  }
}

Status BufferPool::WriteBackLocked(Shard& sh, PageId id,
                                   BufferFrame& frame) {
  if (frame.dirty.load(std::memory_order_relaxed)) {
    const bool time_write = MetricsRegistry::enabled();
    const auto t0 = time_write ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
    const Status s = file_->Write(id, frame.page);
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

Status BufferPool::EnsureCapacityLocked(Shard& sh) {
  if (sh.frames.size() < sh.capacity) return Status::OK();
  if (sh.lru.empty()) {
    return Status::FailedPrecondition(
        "buffer pool exhausted: all frames pinned");
  }
  // Reached only when a frame must actually be evicted, so the span
  // traces eviction pressure (and its write-back cost), not every pin.
  ScopedSpan span("pool.evict", "pool");
  if (no_steal_.load(std::memory_order_acquire)) {
    // Dirty frames are pinned to memory until the next checkpoint:
    // evict the least-recently-used *clean* frame instead.
    for (auto lit = sh.lru.begin(); lit != sh.lru.end(); ++lit) {
      auto it = sh.frames.find(*lit);
      assert(it != sh.frames.end());
      BufferFrame& f = it->second;
      if (f.dirty.load(std::memory_order_relaxed)) continue;
      f.in_lru = false;
      sh.lru.erase(lit);
      sh.frames.erase(it);
      ++sh.stats.evictions;
      if (IoStats* sink = CurrentIoSink()) ++sink->evictions;
      m_evictions_->Increment();
      return Status::OK();
    }
    return Status::FailedPrecondition(
        "buffer pool full of dirty frames: checkpoint required");
  }
  const PageId victim = sh.lru.front();
  sh.lru.pop_front();
  auto it = sh.frames.find(victim);
  assert(it != sh.frames.end());
  BufferFrame& f = it->second;
  f.in_lru = false;
  const Status s = WriteBackLocked(sh, victim, f);
  if (!s.ok()) {
    // The victim stays resident (its dirty data would otherwise be
    // lost); re-enter it into the LRU so the shard's bookkeeping stays
    // consistent and a later eviction can retry the write-back.
    sh.lru.push_back(victim);
    f.lru_pos = std::prev(sh.lru.end());
    f.in_lru = true;
    return s;
  }
  sh.frames.erase(it);
  ++sh.stats.evictions;
  if (IoStats* sink = CurrentIoSink()) ++sink->evictions;
  m_evictions_->Increment();
  return Status::OK();
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
    for (auto& [id, frame] : sh.frames) {
      FIELDDB_RETURN_IF_ERROR(WriteBackLocked(sh, id, frame));
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
    // Snapshot the eviction candidates first: under no-steal a dirty
    // frame is skipped (left resident *and* back in the LRU), so a
    // simple pop-from-front loop would spin on it forever.
    std::vector<PageId> victims(sh.lru.begin(), sh.lru.end());
    for (const PageId victim : victims) {
      auto it = sh.frames.find(victim);
      assert(it != sh.frames.end());
      BufferFrame& f = it->second;
      if (no_steal && f.dirty.load(std::memory_order_relaxed)) continue;
      sh.lru.erase(f.lru_pos);
      f.in_lru = false;
      const Status s = WriteBackLocked(sh, victim, f);
      if (!s.ok()) {
        sh.lru.push_back(victim);
        f.lru_pos = std::prev(sh.lru.end());
        f.in_lru = true;
        return s;
      }
      sh.frames.erase(it);
    }
  }
  return Status::OK();
}

Status BufferPool::Abandon() {
  if (closed_.load(std::memory_order_acquire)) return Status::OK();
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    for (auto& [id, frame] : sh.frames) {
      if (frame.pin_count.load(std::memory_order_relaxed) != 0) {
        return Status::FailedPrecondition(
            "cannot abandon buffer pool: a frame is still pinned");
      }
      (void)id;
    }
  }
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& sh = shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.lru.clear();
    sh.frames.clear();
  }
  closed_.store(true, std::memory_order_release);
  return Status::OK();
}

bool BufferPool::TryGetResident(PageId id, Page* out) {
  Shard& sh = ShardOf(id);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.frames.find(id);
  if (it == sh.frames.end()) return false;
  *out = it->second.page;
  return true;
}

size_t BufferPool::num_frames() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].frames.size();
  }
  return total;
}

}  // namespace fielddb
