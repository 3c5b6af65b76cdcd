// The shard-per-core serving layer: Hilbert-range partitioning at
// Build, a text catalog (`<prefix>.router`) persisting the partition,
// and the cost-aware scatter/gather query paths (DESIGN.md §18).

#include "core/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <utility>

#include "core/field_engine.h"
#include "obs/metrics.h"

namespace fielddb {

namespace {

constexpr const char* kRouterMagic = "fielddb-router-v1";

std::string ShardPrefix(const std::string& prefix, uint32_t k) {
  return prefix + ".s" + std::to_string(k);
}

/// Scatter barrier: the router thread blocks until every shard lane has
/// run its closure.
class Latch {
 public:
  explicit Latch(size_t count) : remaining_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() *
         1000.0;
}

/// Merges a shard's contribution into the gathered stats. Everything
/// sums except wall_seconds, which the router measures itself (the
/// shards ran concurrently — their walls overlap).
void MergeStats(const QueryStats& shard_stats, QueryStats* out) {
  const double wall = out->wall_seconds;
  out->Accumulate(shard_stats);
  out->wall_seconds = wall;
}

}  // namespace

ShardRouter::AdmissionSlot::AdmissionSlot(const ShardRouter* router)
    : router_(router) {
  std::unique_lock<std::mutex> lock(router_->admission_mu_);
  if (router_->inflight_ >= router_->max_inflight_) {
    router_->admission_waits_->Increment();
    router_->admission_cv_.wait(lock, [this] {
      return router_->inflight_ < router_->max_inflight_;
    });
  }
  ++router_->inflight_;
}

ShardRouter::AdmissionSlot::~AdmissionSlot() {
  {
    std::lock_guard<std::mutex> lock(router_->admission_mu_);
    --router_->inflight_;
  }
  router_->admission_cv_.notify_one();
}

void ShardRouter::Init() {
  max_inflight_ = 4 * shards_.size();
  MetricsRegistry& reg = MetricsRegistry::Default();
  queries_ = reg.GetCounter("router.queries");
  shards_touched_ = reg.GetCounter("router.shards_touched");
  shards_skipped_ = reg.GetCounter("router.shards_skipped");
  admission_waits_ = reg.GetCounter("router.admission_waits");
  groups_fused_ = reg.GetCounter("router.shared_groups_fused");
  groups_split_ = reg.GetCounter("router.shared_groups_split");

  global_map_.clear();
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->descriptor().num_cells();
  global_map_.resize(total);
  for (const auto& shard : shards_) {
    const ShardDescriptor& d = shard->descriptor();
    for (CellId local = 0; local < d.local_to_global.size(); ++local) {
      global_map_[d.local_to_global[local]] = {d.id, local};
    }
  }
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::Build(
    const Field& field, const ShardRouterOptions& options) {
  const CellId n = field.NumCells();
  if (n == 0) return Status::InvalidArgument("field has no cells");
  if (options.shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.db.wal_mode != WalMode::kOff && options.wal_prefix.empty()) {
    return Status::InvalidArgument(
        "wal_mode requires wal_prefix (the future save prefix)");
  }
  const uint32_t num_shards =
      static_cast<uint32_t>(std::min<uint64_t>(options.shards, n));

  const std::vector<std::pair<uint64_t, CellId>> keyed =
      HilbertPartitionKeys(field);

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->domain_ = field.Domain();
  router->shards_.reserve(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    // Near-equal contiguous runs of the global linearization.
    const uint64_t begin = static_cast<uint64_t>(k) * n / num_shards;
    const uint64_t end = static_cast<uint64_t>(k + 1) * n / num_shards;
    ShardDescriptor desc;
    desc.id = k;
    desc.key_begin = keyed[begin].first;
    desc.key_end = keyed[end - 1].first;
    desc.local_to_global.reserve(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      desc.local_to_global.push_back(keyed[i].second);
    }
    if (options.db.method == IndexMethod::kRowIp) {
      // RowIpIndex infers row structure from the field's native order
      // (non-decreasing lower-y). The partition stays Hilbert-ranged —
      // same cell sets, same catalog key ranges — but within the shard
      // the slice presents cells ascending by global id, which for a
      // row-major source grid restores row-major order.
      std::sort(desc.local_to_global.begin(), desc.local_to_global.end());
    }

    FieldSlice slice(&field, desc.local_to_global);
    FieldDatabaseOptions so = options.db;
    if (so.wal_mode != WalMode::kOff) {
      so.wal_path = ShardPrefix(options.wal_prefix, k) + ".wal";
    }
    StatusOr<std::unique_ptr<FieldDatabase>> db =
        FieldDatabase::Build(slice, so);
    if (!db.ok()) return db.status();
    router->shards_.push_back(
        std::make_unique<Shard>(std::move(desc), std::move(*db)));
  }
  router->Init();
  return router;
}

Status ShardRouter::Save(const std::string& prefix) {
  for (auto& shard : shards_) {
    const Status s = shard->db().Save(ShardPrefix(prefix, shard->descriptor().id));
    if (!s.ok()) return s;
  }
  // The catalog is pure partition metadata — identical across saves of
  // the same build — written last so a crash anywhere above leaves the
  // previous catalog describing shards that all still open (each at
  // its own epoch, each with its own WAL bridging its gap).
  const std::string tmp = prefix + ".router.tmp";
  const Status w = WriteCatalogFile(tmp, [this](std::FILE* f) {
    if (std::fprintf(f, "%s\n", kRouterMagic) < 0) return false;
    if (std::fprintf(f, "shards %zu\n", shards_.size()) < 0) return false;
    if (std::fprintf(f, "num_cells %" PRIu64 "\n",
                     static_cast<uint64_t>(global_map_.size())) < 0) {
      return false;
    }
    for (const auto& shard : shards_) {
      const ShardDescriptor& d = shard->descriptor();
      if (std::fprintf(f, "shard %u %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                       d.id, d.num_cells(), d.key_begin, d.key_end) < 0) {
        return false;
      }
      for (size_t i = 0; i < d.local_to_global.size(); ++i) {
        if (std::fprintf(f, i + 1 == d.local_to_global.size() ? "%u\n" : "%u ",
                         d.local_to_global[i]) < 0) {
          return false;
        }
      }
    }
    return true;
  });
  if (!w.ok()) return w;
  const Status r = RenameFile(tmp, prefix + ".router");
  if (!r.ok()) return r;
  SyncParentDir(prefix + ".router");
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const std::string& prefix, const OpenOptions& options) {
  const std::string path = prefix + ".router";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::NotFound("no router catalog at " + path);

  const auto bad = [&](const std::string& what) {
    std::fclose(f);
    return Status::Corruption("router catalog " + path + ": " + what);
  };

  // The file's size bounds the counts below before anything is sized
  // from them (-1 when unknown, which rejects every count).
  const long file_bytes =
      std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1;
  std::rewind(f);

  char magic[64];
  if (std::fscanf(f, "%63s", magic) != 1 ||
      std::string(magic) != kRouterMagic) {
    return bad("bad magic");
  }
  char key[64];
  uint64_t num_shards = 0;
  uint64_t num_cells = 0;
  if (std::fscanf(f, "%63s %" SCNu64, key, &num_shards) != 2 ||
      std::string(key) != "shards" || num_shards == 0 ||
      num_shards > (uint64_t{1} << 16)) {
    return bad("bad shard count");
  }
  if (std::fscanf(f, "%63s %" SCNu64, key, &num_cells) != 2 ||
      std::string(key) != "num_cells" || num_cells == 0) {
    return bad("bad cell count");
  }
  // Each id in the maps takes at least two bytes: a digit and a
  // separator.
  if (file_bytes < 0 || num_cells > static_cast<uint64_t>(file_bytes) / 2) {
    return bad("invalid value for 'num_cells'");
  }

  struct ParsedShard {
    ShardDescriptor desc;
  };
  std::vector<ParsedShard> parsed(num_shards);
  std::vector<bool> seen(num_cells, false);
  uint64_t total = 0;
  for (uint64_t k = 0; k < num_shards; ++k) {
    uint32_t id = 0;
    uint64_t cells = 0;
    ShardDescriptor& d = parsed[k].desc;
    if (std::fscanf(f, "%63s %u %" SCNu64 " %" SCNu64 " %" SCNu64, key, &id,
                    &cells, &d.key_begin, &d.key_end) != 5 ||
        std::string(key) != "shard" || id != k || cells == 0) {
      return bad("bad shard header");
    }
    if (cells > num_cells - total) return bad("invalid value for 'shard'");
    d.id = id;
    d.local_to_global.resize(cells);
    for (uint64_t i = 0; i < cells; ++i) {
      uint32_t gid = 0;
      if (std::fscanf(f, "%u", &gid) != 1 || gid >= num_cells ||
          seen[gid]) {
        return bad("id map is not a permutation");
      }
      seen[gid] = true;
      d.local_to_global[i] = gid;
    }
    total += cells;
  }
  std::fclose(f);
  if (total != num_cells) return Status::Corruption("router catalog " + path + ": cell counts disagree");

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  RouterRecoveryReport report;
  for (uint64_t k = 0; k < num_shards; ++k) {
    FieldDatabase::OpenOptions oo;
    oo.pool_pages = options.pool_pages;
    oo.wal_mode = options.wal_mode;
    FieldDatabase::RecoveryReport shard_report;
    oo.recovery_report = &shard_report;
    StatusOr<std::unique_ptr<FieldDatabase>> db =
        FieldDatabase::Open(ShardPrefix(prefix, static_cast<uint32_t>(k)), oo);
    if (!db.ok()) return db.status();
    report.frames_replayed += shard_report.frames_replayed;
    report.stale_frames += shard_report.stale_frames;
    report.torn_bytes += shard_report.torn_bytes;
    if (shard_report.frames_replayed > 0) ++report.shards_with_replay;
    report.per_shard.push_back(std::move(shard_report));
    router->shards_.push_back(
        std::make_unique<Shard>(std::move(parsed[k].desc), std::move(*db)));
  }
  router->domain_ = router->shards_.front()->db().domain();
  router->Init();
  if (options.recovery_report != nullptr) {
    *options.recovery_report = std::move(report);
  }
  return router;
}

ShardRouter::~ShardRouter() = default;

void ShardRouter::RecordSlo(const ValueInterval& query,
                            double wall_ms) const {
  const ValueInterval range = value_range();
  const double span = range.max - range.min;
  const double width = query.max - query.min;
  const double frac = span > 0 ? width / span : 1.0;
  slo_.Record(slo_.ClassForWidthFraction(frac), wall_ms);
}

struct ShardRouter::ShardWork {
  std::vector<size_t> members;  // indices into the request's bands
  std::vector<ValueInterval> bands;
  std::vector<ValueQueryResult> results;
  Status status;
  double wall_seconds = 0.0;  // summed over the shard's groups
};

Status ShardRouter::RunOnShard(const Shard& shard, const QueryRequest& request,
                               ShardWork* work) const {
  const FieldDatabase& db = shard.db();
  const PlannerMode mode = db.planner_mode();
  const std::span<const ValueInterval> bands(work->bands);
  const std::span<ValueQueryResult> results(work->results);
  // Greedy fused-vs-split aggregation, the executor's admission rule
  // applied per shard against the most recent group only (FIFO-like,
  // matching the executor's head-group formation), so every group is a
  // run of consecutive members.
  size_t start = 0;
  ValueInterval envelope = bands[0];
  for (size_t i = 1; i <= bands.size(); ++i) {
    if (i < bands.size() && envelope.Intersects(bands[i]) &&
        db.planner().CostSharedScan(envelope, bands[i], mode).share) {
      envelope.Extend(bands[i]);
      continue;
    }
    const size_t len = i - start;
    if (request.bands.size() > 1) {
      (len > 1 ? groups_fused_ : groups_split_)->Increment();
    }
    FIELDDB_RETURN_IF_ERROR(db.Query({.bands = bands.subspan(start, len),
                                      .regions = request.regions,
                                      .trace = request.trace},
                                     results.subspan(start, len)));
    work->wall_seconds += results[start].stats.wall_seconds;
    start = i;
    if (i < bands.size()) envelope = bands[i];
  }
  return Status::OK();
}

Status ShardRouter::Query(const QueryRequest& request,
                          std::span<ValueQueryResult> out,
                          RouterQueryProfile* profile) const {
  // Reset in place: a client that reuses its result keeps the capacity
  // its pieces have grown to.
  for (ValueQueryResult& result : out) result.Reset();
  // The router refuses what one FieldDatabase refuses, before
  // admission: a shard validates only the bands MayContain sends it, so
  // an empty interval above every hull would otherwise answer OK.
  FIELDDB_RETURN_IF_ERROR(request.Check(out.size()));
  const std::span<const ValueInterval> bands = request.bands;
  if (bands.empty()) return Status::OK();
  AdmissionSlot slot(this);
  queries_->Increment();
  const auto t0 = std::chrono::steady_clock::now();

  const size_t n = shards_.size();
  std::vector<ShardWork> work(n);
  std::vector<uint32_t> targets;
  for (uint32_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < bands.size(); ++i) {
      if (shards_[k]->MayContain(bands[i])) work[k].members.push_back(i);
    }
    if (!work[k].members.empty()) targets.push_back(k);
  }
  shards_touched_->Increment(targets.size());
  shards_skipped_->Increment(n - targets.size());

  // The lowest touched shard of each band answers into the caller's
  // piece storage, so its capacity is reused and those pieces are never
  // copied. owner[i] is that shard.
  constexpr uint32_t kNoShard = ~uint32_t{0};
  std::vector<uint32_t> owner(bands.size(), kNoShard);
  for (uint32_t k : targets) {
    ShardWork& w = work[k];
    w.results.resize(w.members.size());
    for (size_t j = 0; j < w.members.size(); ++j) {
      const size_t i = w.members[j];
      w.bands.push_back(bands[i]);
      if (owner[i] == kNoShard) {
        owner[i] = k;
        w.results[j].region.pieces.swap(out[i].region.pieces);
      }
    }
  }

  Latch latch(targets.size());
  for (uint32_t k : targets) {
    shards_[k]->lane().SubmitTask([this, k, &request, &work, &latch] {
      const auto s0 = std::chrono::steady_clock::now();
      work[k].status = RunOnShard(*shards_[k], request, &work[k]);
      shards_[k]->RecordQuery(MsSince(s0));
      latch.CountDown();
    });
  }
  latch.Wait();

  // Deterministic gather: ascending shard id. Shard-local store order
  // equals the global linearization restricted to the shard, so this
  // concatenation is independent of the shard count. The other shards'
  // pieces are moved onto the end of the owner's.
  std::vector<size_t> total_pieces(bands.size(), 0);
  for (uint32_t k : targets) {
    const ShardWork& w = work[k];
    if (!w.status.ok()) return w.status;
    for (size_t j = 0; j < w.members.size(); ++j) {
      total_pieces[w.members[j]] += w.results[j].region.pieces.size();
    }
  }
  for (uint32_t k : targets) {
    ShardWork& w = work[k];
    for (size_t j = 0; j < w.members.size(); ++j) {
      const size_t i = w.members[j];
      std::vector<ConvexPolygon>& pieces = out[i].region.pieces;
      std::vector<ConvexPolygon>& shard_pieces = w.results[j].region.pieces;
      if (owner[i] == k) {
        pieces.swap(shard_pieces);
        pieces.reserve(total_pieces[i]);
      } else {
        pieces.insert(pieces.end(),
                      std::make_move_iterator(shard_pieces.begin()),
                      std::make_move_iterator(shard_pieces.end()));
      }
      MergeStats(w.results[j].stats, &out[i].stats);
    }
  }
  const double wall_ms = MsSince(t0);
  for (size_t i = 0; i < bands.size(); ++i) {
    out[i].stats.wall_seconds = wall_ms / 1000.0;
    RecordSlo(bands[i], wall_ms);
  }
  if (profile != nullptr) {
    profile->shards_touched = static_cast<uint32_t>(targets.size());
    profile->shards_skipped = static_cast<uint32_t>(n - targets.size());
    profile->per_shard.assign(n, QueryStats{});
    for (uint32_t k : targets) {
      const ShardWork& w = work[k];
      QueryStats& merged = profile->per_shard[k];
      merged = w.results[0].stats;
      for (size_t j = 1; j < w.results.size(); ++j) {
        MergeStats(w.results[j].stats, &merged);
      }
      merged.wall_seconds = w.wall_seconds;
    }
  }
  return Status::OK();
}

StatusOr<double> ShardRouter::PointQuery(Point2 p) const {
  for (const auto& shard : shards_) {
    StatusOr<double> v = shard->db().PointQuery(p);
    if (v.ok()) return v;
    if (v.status().code() != StatusCode::kNotFound) return v.status();
  }
  return Status::NotFound("point outside every shard");
}

Status ShardRouter::UpdateCellValues(CellId global_id,
                                     const std::vector<double>& values) {
  if (global_id >= global_map_.size()) {
    return Status::InvalidArgument("cell id out of range");
  }
  const auto [shard_id, local_id] = global_map_[global_id];
  return shards_[shard_id]->db().UpdateCellValues(local_id, values);
}

Status ShardRouter::UpdateCellValuesBatch(
    const std::vector<FieldDatabase::CellUpdate>& updates) {
  // Partition by owning shard, preserving relative order within each
  // shard; validate every id and sample before any shard commits.
  std::vector<std::vector<FieldDatabase::CellUpdate>> per_shard(
      shards_.size());
  for (const FieldDatabase::CellUpdate& u : updates) {
    if (u.id >= global_map_.size()) {
      return Status::InvalidArgument("cell id out of range");
    }
    if (!AllFinite(u.values)) {
      return Status::InvalidArgument("samples must be finite");
    }
    const auto [shard_id, local_id] = global_map_[u.id];
    per_shard[shard_id].push_back(
        FieldDatabase::CellUpdate{local_id, u.values});
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (per_shard[k].empty()) continue;
    const Status s = shards_[k]->db().UpdateCellValuesBatch(per_shard[k]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardRouter::Close() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    const Status s = shard->Close();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status ShardRouter::SimulateCrashForTest() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    shard->lane().Drain();
    const Status s = shard->db().SimulateCrashForTest();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

ValueInterval ShardRouter::value_range() const {
  ValueInterval hull = ValueInterval::Empty();
  for (const auto& shard : shards_) {
    hull = ValueInterval::Hull(hull, shard->db().value_range());
  }
  return hull;
}

void ShardRouter::set_planner_mode(PlannerMode mode) {
  for (auto& shard : shards_) shard->db().set_planner_mode(mode);
}

}  // namespace fielddb
