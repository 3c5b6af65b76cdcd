// The shard-per-core serving layer: Hilbert-range partitioning at
// Build, a text catalog (`<prefix>.router`) persisting the partition,
// and the scatter/gather query paths (DESIGN.md §18).

#include "core/shard_router.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <iterator>
#include <latch>
#include <optional>
#include <utility>

#include "core/field_engine.h"
#include "field/interpolation.h"
#include "obs/metrics.h"

namespace fielddb {

namespace {

constexpr const char* kRouterMagic = "fielddb-router-v1";

std::string ShardPrefix(const std::string& prefix, uint32_t k) {
  return prefix + ".s" + std::to_string(k);
}

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
  if (const std::optional<GridLattice> lattice = field.Lattice();
      lattice && lattice->NumCells() != n) {
    // PointQuery reads global ids as lattice ids.
    return Status::InvalidArgument("a lattice field must hold every cell");
  }
  if (options.shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.db.wal_mode != WalMode::kOff && options.wal_prefix.empty()) {
    return Status::InvalidArgument(
        "wal_mode requires wal_prefix (the future save prefix)");
  }
  const uint32_t num_shards =
      static_cast<uint32_t>(std::min<uint64_t>(options.shards, n));

  // The shards' own I-Hilbert curve, so each shard's store is a
  // contiguous run of the unsharded store's order.
  const StatusOr<std::vector<std::pair<uint64_t, CellId>>> keyed =
      CurvePartitionKeys(field, options.db.ihilbert.curve);
  if (!keyed.ok()) return keyed.status();

  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->domain_ = field.Domain();
  router->shards_.reserve(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    // Near-equal contiguous runs of the global linearization.
    const uint64_t begin = static_cast<uint64_t>(k) * n / num_shards;
    const uint64_t end = static_cast<uint64_t>(k + 1) * n / num_shards;
    ShardDescriptor desc;
    desc.id = k;
    desc.key_begin = (*keyed)[begin].first;
    desc.key_end = (*keyed)[end - 1].first;
    desc.local_to_global.reserve(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      desc.local_to_global.push_back((*keyed)[i].second);
    }
    if (options.db.method == IndexMethod::kRowIp) {
      // Row-IP infers row structure from the field's native order
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

std::string ShardRouter::FormatCatalog() const {
  // Numbers format with std::to_chars into one buffer: the id maps are
  // one number per cell.
  std::string text;
  text.reserve(8 * global_map_.size() + 256);
  char buf[24];
  const auto number = [&](auto value, char after) {
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    (void)ec;  // 24 bytes hold any 64-bit value
    text.append(buf, end);
    text += after;
  };
  text += kRouterMagic;
  text += "\nshards ";
  number(shards_.size(), '\n');
  text += "num_cells ";
  number(static_cast<uint64_t>(global_map_.size()), '\n');
  for (const auto& shard : shards_) {
    const ShardDescriptor& d = shard->descriptor();
    text += "shard ";
    number(d.id, ' ');
    number(d.num_cells(), ' ');
    number(d.key_begin, ' ');
    number(d.key_end, '\n');
    for (size_t i = 0; i < d.local_to_global.size(); ++i) {
      number(d.local_to_global[i],
             i + 1 == d.local_to_global.size() ? '\n' : ' ');
    }
  }
  SignCatalog(&text);
  return text;
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
  const Status w = WriteCatalogFile(tmp, FormatCatalog());
  if (!w.ok()) return w;
  const Status r = RenameFile(tmp, prefix + ".router");
  if (!r.ok()) return r;
  SyncParentDir(prefix + ".router");
  return Status::OK();
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const std::string& prefix, const OpenOptions& options) {
  const std::string path = prefix + ".router";
  const StatusOr<std::string> body = ReadCatalogBody(path);
  if (body.status().code() == StatusCode::kIOError) {
    return Status::NotFound("no router catalog at " + path);
  }
  if (!body.ok()) return body.status();
  const auto bad = [&](const std::string& what) {
    return Status::Corruption("router catalog " + path + ": " + what);
  };

  std::string_view rest = *body;
  const auto next_key = [&rest](std::string_view key) {
    return NextCatalogToken(&rest) == key;
  };
  const auto next_value = [&rest](auto* value) {
    return ParseCatalogValue(NextCatalogToken(&rest), value);
  };
  if (NextCatalogToken(&rest) != kRouterMagic) return bad("bad magic");
  uint64_t num_shards = 0;
  uint64_t num_cells = 0;
  if (!next_key("shards") || !next_value(&num_shards) || num_shards == 0 ||
      num_shards > (uint64_t{1} << 16)) {
    return bad("bad shard count");
  }
  if (!next_key("num_cells") || !next_value(&num_cells) || num_cells == 0) {
    return bad("bad cell count");
  }
  // The file's size bounds the counts before anything is sized from
  // them: each id in the maps takes at least two bytes, a digit and a
  // separator.
  if (num_cells > body->size() / 2) {
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
    if (!next_key("shard") || !next_value(&id) || !next_value(&cells) ||
        !next_value(&d.key_begin) || !next_value(&d.key_end) || id != k ||
        cells == 0) {
      return bad("bad shard header");
    }
    if (cells > num_cells - total) return bad("invalid value for 'shard'");
    d.id = id;
    d.local_to_global.resize(cells);
    for (uint64_t i = 0; i < cells; ++i) {
      uint32_t gid = 0;
      if (!next_value(&gid) || gid >= num_cells || seen[gid]) {
        return bad("id map is not a permutation");
      }
      seen[gid] = true;
      d.local_to_global[i] = gid;
    }
    total += cells;
  }
  if (total != num_cells) return bad("cell counts disagree");

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
    // Each shard's own catalog states its cell count too; the id maps
    // above are sized from the router's.
    const uint64_t shard_cells = (*db)->index().cell_store().size();
    if (shard_cells != parsed[k].desc.num_cells()) {
      return Status::Corruption(
          "router catalog " + path + ": shard " + std::to_string(k) +
          " holds " + std::to_string(shard_cells) + " cells, the catalog " +
          std::to_string(parsed[k].desc.num_cells()));
    }
    // PointQuery reads lattice ids as global ids: every shard names
    // shard 0's lattice, which has exactly the router's cells.
    const GridLattice* lattice = (*db)->lattice();
    const GridLattice* want =
        k == 0 ? lattice : router->shards_.front()->db().lattice();
    const bool agrees = lattice == nullptr
                            ? want == nullptr
                            : want != nullptr && *lattice == *want &&
                                  lattice->NumCells() == num_cells;
    if (!agrees) {
      return Status::Corruption("router catalog " + path + ": shard " +
                                std::to_string(k) +
                                "'s lattice disagrees with the router's");
    }
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

struct ShardRouter::ShardWork {
  std::vector<size_t> members;  // indices into the request's bands
  std::vector<ValueInterval> bands;
  std::vector<ValueQueryResult> results;
  Status status;
  double wall_ms = 0.0;  // the lane's clock around the shard's Query
};

Status ShardRouter::Query(const QueryRequest& request,
                          std::span<ValueQueryResult> out,
                          RouterQueryProfile* profile) const {
  // Reset in place: a client that reuses its result keeps the capacity
  // its pieces have grown to.
  for (ValueQueryResult& result : out) result.Reset();
  const std::span<const ValueInterval> bands = request.bands;
  // A refused or failed request misses every latency objective.
  const auto fail = [&](const Status& s) {
    for (const ValueInterval& b : bands) slo_.RecordFailure(value_range(), b);
    return s;
  };
  // The router refuses what one FieldDatabase refuses, before
  // admission: a shard validates only the bands MayContain sends it, so
  // an empty interval above every hull would otherwise answer OK.
  if (const Status s = request.Check(out.size()); !s.ok()) return fail(s);
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

  // Each touched shard's lane runs its bands as one Query, in the lane
  // worker's context; that Query decides which bands share a sweep.
  std::latch scattered(static_cast<std::ptrdiff_t>(targets.size()));
  for (uint32_t k : targets) {
    shards_[k]->lane().SubmitTask([&, k](QueryContext* ctx) {
      ShardWork& w = work[k];
      const auto s0 = std::chrono::steady_clock::now();
      w.status = shards_[k]->db().Query({.bands = w.bands,
                                         .regions = request.regions,
                                         .trace = request.trace},
                                        w.results, ctx);
      w.wall_ms = MsSince(s0);
      shards_[k]->RecordQuery(w.wall_ms);
      scattered.count_down();
    });
  }
  scattered.wait();

  // Deterministic gather: ascending shard id. Shard-local store order
  // equals the global linearization restricted to the shard, so this
  // concatenation is independent of the shard count. The other shards'
  // pieces are moved onto the end of the owner's.
  std::vector<size_t> total_pieces(bands.size(), 0);
  for (uint32_t k : targets) {
    const ShardWork& w = work[k];
    if (!w.status.ok()) return fail(w.status);
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
  const ValueInterval range = value_range();
  for (size_t i = 0; i < bands.size(); ++i) {
    out[i].stats.wall_seconds = wall_ms / 1000.0;
    slo_.RecordQuery(range, bands[i], wall_ms);
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
      merged.wall_seconds = w.wall_ms / 1000.0;
    }
  }
  return Status::OK();
}

StatusOr<double> ShardRouter::PointQuery(Point2 p) const {
  if (const GridLattice* lattice = shards_.front()->db().lattice()) {
    // A grid's global ids are its lattice ids: the arithmetic names the
    // cell, and the id map names the one shard that reads it.
    StatusOr<uint32_t> g = lattice->FindCell(p);
    if (!g.ok()) return g.status();
    const auto [shard_id, local_id] = global_map_[*g];
    const CellStore& store = shards_[shard_id]->db().index().cell_store();
    CellRecord cell;
    FIELDDB_RETURN_IF_ERROR(
        store.records().Get(store.PositionOf(local_id), &cell));
    return InterpolateCell(cell, p);
  }
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
