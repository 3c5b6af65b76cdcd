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

void ShardRouter::Init(size_t max_inflight,
                       std::vector<SloObjective> slo_classes) {
  max_inflight_ = max_inflight > 0 ? max_inflight : 4 * shards_.size();
  slo_ = std::make_unique<SloTracker>(
      slo_classes.empty() ? SloTracker::DefaultQueryClasses()
                          : std::move(slo_classes));
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
    router->shards_.push_back(std::make_unique<Shard>(
        std::move(desc), std::move(*db), options.lane_threads,
        options.lane_queue_capacity));
  }
  router->Init(options.max_inflight, options.slo_classes);
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
    oo.readahead_pages = options.readahead_pages;
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
    router->shards_.push_back(std::make_unique<Shard>(
        std::move(parsed[k].desc), std::move(*db), options.lane_threads,
        options.lane_queue_capacity));
  }
  router->domain_ = router->shards_.front()->db().domain();
  router->Init(options.max_inflight, options.slo_classes);
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
  slo_->Record(slo_->ClassForWidthFraction(frac), wall_ms);
}

Status ShardRouter::ValueQueryStats(const ValueInterval& query,
                                    QueryStats* out,
                                    RouterQueryProfile* profile) const {
  *out = QueryStats{};
  AdmissionSlot slot(this);
  queries_->Increment();
  const auto t0 = std::chrono::steady_clock::now();

  const size_t n = shards_.size();
  std::vector<QueryStats> per_shard(n);
  std::vector<Status> statuses(n, Status::OK());
  std::vector<uint32_t> targets;
  for (uint32_t k = 0; k < n; ++k) {
    if (shards_[k]->MayContain(query)) targets.push_back(k);
  }
  shards_touched_->Increment(targets.size());
  shards_skipped_->Increment(n - targets.size());

  Latch latch(targets.size());
  for (uint32_t k : targets) {
    shards_[k]->lane().SubmitTask([this, k, &query, &per_shard, &statuses,
                                   &latch] {
      const auto s0 = std::chrono::steady_clock::now();
      statuses[k] = shards_[k]->db().ValueQueryStats(query, &per_shard[k]);
      shards_[k]->RecordQuery(MsSince(s0));
      latch.CountDown();
    });
  }
  latch.Wait();

  for (uint32_t k : targets) {
    if (!statuses[k].ok()) return statuses[k];
    MergeStats(per_shard[k], out);
  }
  const double wall_ms = MsSince(t0);
  out->wall_seconds = wall_ms / 1000.0;
  RecordSlo(query, wall_ms);
  if (profile != nullptr) {
    profile->shards_touched = static_cast<uint32_t>(targets.size());
    profile->shards_skipped = static_cast<uint32_t>(n - targets.size());
    profile->per_shard = std::move(per_shard);
  }
  return Status::OK();
}

Status ShardRouter::ValueQuery(const ValueInterval& query,
                               ValueQueryResult* out,
                               RouterQueryProfile* profile) const {
  // Reset in place: a client that reuses its result keeps the capacity
  // its pieces have grown to.
  out->region.pieces.clear();
  out->stats = QueryStats{};
  out->plan = PhysicalPlan{};
  AdmissionSlot slot(this);
  queries_->Increment();
  const auto t0 = std::chrono::steady_clock::now();

  const size_t n = shards_.size();
  std::vector<ValueQueryResult> per_shard(n);
  std::vector<Status> statuses(n, Status::OK());
  std::vector<uint32_t> targets;
  for (uint32_t k = 0; k < n; ++k) {
    if (shards_[k]->MayContain(query)) targets.push_back(k);
  }
  shards_touched_->Increment(targets.size());
  shards_skipped_->Increment(n - targets.size());

  // The lowest touched shard answers into the caller's piece storage, so
  // its capacity is reused and those pieces are never copied.
  if (!targets.empty()) {
    per_shard[targets.front()].region.pieces.swap(out->region.pieces);
  }

  Latch latch(targets.size());
  for (uint32_t k : targets) {
    shards_[k]->lane().SubmitTask([this, k, &query, &per_shard, &statuses,
                                   &latch] {
      const auto s0 = std::chrono::steady_clock::now();
      statuses[k] = shards_[k]->db().ValueQuery(query, &per_shard[k]);
      shards_[k]->RecordQuery(MsSince(s0));
      latch.CountDown();
    });
  }
  latch.Wait();

  // Deterministic gather: ascending shard id. Shard-local store order
  // equals the global linearization restricted to the shard, so this
  // concatenation is independent of the shard count. The other shards'
  // pieces are moved onto the end of the lowest shard's.
  size_t total_pieces = 0;
  for (uint32_t k : targets) {
    if (!statuses[k].ok()) return statuses[k];
    total_pieces += per_shard[k].region.pieces.size();
  }
  std::vector<ConvexPolygon>& pieces = out->region.pieces;
  for (uint32_t k : targets) {
    std::vector<ConvexPolygon>& shard_pieces = per_shard[k].region.pieces;
    if (k == targets.front()) {
      pieces.swap(shard_pieces);
      pieces.reserve(total_pieces);
    } else {
      pieces.insert(pieces.end(),
                    std::make_move_iterator(shard_pieces.begin()),
                    std::make_move_iterator(shard_pieces.end()));
    }
    MergeStats(per_shard[k].stats, &out->stats);
  }
  const double wall_ms = MsSince(t0);
  out->stats.wall_seconds = wall_ms / 1000.0;
  RecordSlo(query, wall_ms);
  if (profile != nullptr) {
    profile->shards_touched = static_cast<uint32_t>(targets.size());
    profile->shards_skipped = static_cast<uint32_t>(n - targets.size());
    profile->per_shard.resize(n);
    for (uint32_t k : targets) profile->per_shard[k] = per_shard[k].stats;
  }
  return Status::OK();
}

Status ShardRouter::SharedValueQueryStats(
    const std::vector<ValueInterval>& queries,
    std::vector<QueryStats>* out) const {
  out->assign(queries.size(), QueryStats{});
  if (queries.empty()) return Status::OK();
  AdmissionSlot slot(this);
  queries_->Increment();
  const auto t0 = std::chrono::steady_clock::now();

  const size_t n = shards_.size();
  // members[k] = indices of the queries shard k may contribute to.
  std::vector<std::vector<size_t>> members(n);
  size_t touched = 0;
  for (uint32_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (shards_[k]->MayContain(queries[i])) members[k].push_back(i);
    }
    if (!members[k].empty()) ++touched;
  }
  shards_touched_->Increment(touched);
  shards_skipped_->Increment(n - touched);

  std::vector<std::vector<QueryStats>> per_shard(
      n, std::vector<QueryStats>(queries.size()));
  std::vector<Status> statuses(n, Status::OK());
  uint64_t fused_groups = 0;
  uint64_t split_members = 0;
  std::mutex group_mu;  // guards the two group counters across lanes

  Latch latch(touched);
  for (uint32_t k = 0; k < n; ++k) {
    if (members[k].empty()) continue;
    shards_[k]->lane().SubmitTask([this, k, &queries, &members, &per_shard,
                                   &statuses, &latch, &fused_groups,
                                   &split_members, &group_mu] {
      const auto s0 = std::chrono::steady_clock::now();
      Shard& shard = *shards_[k];
      const PlannerMode mode = shard.db().planner_mode();
      // Greedy fused-vs-split aggregation, the executor's admission
      // rule applied per shard: a member joins the current group only
      // when it overlaps the group's envelope AND the shard planner
      // prices the widened sweep no higher than running separately.
      std::vector<std::vector<size_t>> groups;
      for (size_t i : members[k]) {
        const ValueInterval& q = queries[i];
        bool placed = false;
        if (!groups.empty()) {
          // Envelope of the most recent group only (FIFO-like greedy,
          // matching the executor's head-group formation).
          std::vector<size_t>& g = groups.back();
          ValueInterval envelope = queries[g.front()];
          for (size_t j : g) envelope.Extend(queries[j]);
          if (envelope.Intersects(q) &&
              shard.db()
                  .planner()
                  .CostSharedScan(envelope, q, mode)
                  .share) {
            g.push_back(i);
            placed = true;
          }
        }
        if (!placed) groups.push_back({i});
      }
      uint64_t fused = 0;
      uint64_t split = 0;
      Status status = Status::OK();
      for (const std::vector<size_t>& g : groups) {
        if (g.size() == 1) {
          ++split;
          const Status s = shard.db().ValueQueryStats(
              queries[g.front()], &per_shard[k][g.front()]);
          if (!s.ok() && status.ok()) status = s;
          continue;
        }
        ++fused;
        std::vector<ValueInterval> batch;
        batch.reserve(g.size());
        for (size_t i : g) batch.push_back(queries[i]);
        std::vector<QueryStats> stats;
        const Status s = shard.db().SharedValueQueryStats(batch, &stats);
        if (!s.ok() && status.ok()) status = s;
        for (size_t j = 0; j < g.size() && j < stats.size(); ++j) {
          per_shard[k][g[j]] = stats[j];
        }
      }
      statuses[k] = status;
      shard.RecordQuery(MsSince(s0));
      {
        std::lock_guard<std::mutex> lock(group_mu);
        fused_groups += fused;
        split_members += split;
      }
      latch.CountDown();
    });
  }
  latch.Wait();

  groups_fused_->Increment(fused_groups);
  groups_split_->Increment(split_members);
  for (uint32_t k = 0; k < n; ++k) {
    if (members[k].empty()) continue;
    if (!statuses[k].ok()) return statuses[k];
    for (size_t i : members[k]) MergeStats(per_shard[k][i], &(*out)[i]);
  }
  const double wall_ms = MsSince(t0);
  for (size_t i = 0; i < queries.size(); ++i) {
    (*out)[i].wall_seconds = wall_ms / 1000.0;
    RecordSlo(queries[i], wall_ms);
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
  // shard; validate every id before any shard commits.
  std::vector<std::vector<FieldDatabase::CellUpdate>> per_shard(
      shards_.size());
  for (const FieldDatabase::CellUpdate& u : updates) {
    if (u.id >= global_map_.size()) {
      return Status::InvalidArgument("cell id out of range");
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
  ValueInterval hull;
  for (const auto& shard : shards_) {
    hull = ValueInterval::Hull(hull, shard->db().value_range());
  }
  return hull;
}

void ShardRouter::set_planner_mode(PlannerMode mode) {
  for (auto& shard : shards_) shard->db().set_planner_mode(mode);
}

}  // namespace fielddb
