// fielddb benchmark program. Runs one workload against the public API,
// checks every answer, and prints the metrics as one JSON object on the
// last line of stdout:
//
//   fielddb_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --dir <scratch dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, measured from outside the library by replaying each
// query through the layers' public entry points (QueryPlanner::Plan,
// ValueIndex::FilterCandidateRanges, RunScanOp/EstimateOp) and by reading
// counters the MetricsRegistry already keeps.
//
// Workloads (why each exists is in ../BENCHMARK.json):
//   fractal_cold  Fig-11 fractal (H = 0.3), saved and reopened from disk
//                 with the default 4 MB pool; one closed-loop client.
//   terrain_warm  Fig-8a terrain in memory, fully resident pool; four
//                 closed-loop clients replaying a fixed query list.
//   terrain_mixed Fig-8a terrain behind a 2-shard ShardRouter on disk
//                 with an async WAL; two closed-loop query clients and
//                 the updater below, behind a writer-preferring gate (the
//                 engine requires external exclusion of mutations).
// Update and checkpoint latencies exist only on terrain_mixed, so they
// are reported with the per-layer metrics: an end-to-end metric must be
// measurable on every workload.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/field_database.h"
#include "core/shard_router.h"
#include "core/stats.h"
#include "field/isoband.h"
#include "gen/fractal.h"
#include "gen/workload.h"
#include "obs/metrics.h"
#include "plan/operators.h"
#include "storage/io_sink.h"

namespace {

using namespace fielddb;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload constants (inputs vary only with --seed).

constexpr int kSetupReps = 5;        // setup_s is the median of these
constexpr size_t kColdPoolPages = 1024;
constexpr size_t kWarmPoolPages = 16384;   // > the terrain's page count
constexpr size_t kShardPoolPages = 8192;   // > one shard's page count
constexpr double kColdQInterval = 0.02;
constexpr double kWarmQInterval = 0.05;
constexpr double kMixedQInterval = 0.005;
constexpr size_t kWarmClients = 4;
constexpr size_t kMixedClients = 2;
constexpr int kWarmListLog2 = 7;           // 128 queries, in whole passes
constexpr int kLongListLog2 = 13;          // never exhausted in a run
constexpr size_t kUpdateCells = 64;
constexpr double kUpdateRatePerSec = 40.0;
constexpr int64_t kBatchesPerCheckpoint = 250;
constexpr size_t kProbeQueries = 8;
constexpr double kPerturbation = 1e-3;     // of the value range, per vertex

// ---------------------------------------------------------------------------
// Clocks and small helpers.

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
double ProcessCpu() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpu() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return PercentileOfSorted(v, p);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uint64_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

uint64_t DbFileBytes(const std::string& prefix) {
  return FileBytes(prefix + ".pages") + FileBytes(prefix + ".meta") +
         FileBytes(prefix + ".wal");
}

std::string ShardPrefix(const std::string& prefix, size_t k) {
  return prefix + ".s" + std::to_string(k);
}

uint64_t RouterFileBytes(const std::string& prefix, size_t shards) {
  uint64_t n = FileBytes(prefix + ".router");
  for (size_t k = 0; k < shards; ++k) n += DbFileBytes(ShardPrefix(prefix, k));
  return n;
}

bool SameIo(const IoStats& a, const IoStats& b) {
  return a.logical_reads == b.logical_reads &&
         a.physical_reads == b.physical_reads &&
         a.sequential_reads == b.sequential_reads && a.writes == b.writes &&
         a.evictions == b.evictions && a.read_retries == b.read_retries &&
         a.failed_reads == b.failed_reads && a.failed_writes == b.failed_writes;
}

double DiskMs(const IoStats& io) {
  return DiskModel{}.EstimateMs(io.sequential_reads, io.random_reads());
}

Counter* GetCounter(const char* name) {
  return MetricsRegistry::Default().GetCounter(name);
}
Histogram* GetHistogram(const char* name) {
  return MetricsRegistry::Default().GetHistogram(name);
}

// ---------------------------------------------------------------------------
// Result line.

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
  }
  /// Records a failed answer check; callable from client threads.
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (problems_++ < 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    }
  }
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  std::string Json() const {
    std::string out = "{\"correct\": ";
    out += (problems_ == 0 && failed_ == 0) ? "true" : "false";
    out += ", \"attempted\": " +
           std::to_string(std::max<uint64_t>(attempted_, 1));
    out += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}}";
  }

  void PrintTable() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::mutex mu_;
  uint64_t problems_ = 0;  // guarded by mu_ while client threads run
};

// ---------------------------------------------------------------------------
// Host calibration: throughput of a trivially parallel integer loop on
// nproc threads relative to one thread. The box's usable parallelism
// swings between runs, so warm multi-client numbers are read against it.

uint64_t Spin(uint64_t iters, uint64_t x) {
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double ParallelCapacity(unsigned threads) {
  constexpr uint64_t kIters = 30'000'000;
  std::atomic<uint64_t> sink{0};
  auto timed = [&](unsigned n) {
    const auto t0 = Clock::now();
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < n; ++t) {
      pool.emplace_back(
          [&, t] { sink += Spin(kIters, 88172645463325252ULL + t); });
    }
    for (std::jthread& th : pool) th.join();
    return SecondsSince(t0);
  };
  const double one = timed(1);
  const double all = timed(threads);
  return threads * one / all;
}

// ---------------------------------------------------------------------------
// Writer-preferring readers/writer gate. A waiting writer blocks new
// readers, so the updater waits only for the queries already running;
// glibc's reader-preferring rwlock starves it under two busy readers.

class WriterPreferringGate {
 public:
  void LockShared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void UnlockShared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--readers_ == 0) cv_.notify_all();
  }
  void Lock() {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    cv_.wait(lock, [&] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
  void Unlock() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t readers_ = 0;
  size_t writers_waiting_ = 0;
  bool writer_ = false;
};

// ---------------------------------------------------------------------------
// Closed-loop clients. Queries are handed out from a fixed list in order;
// after the deadline the dispenser stops at once, or, with whole passes,
// at the end of the current pass over the list.

class Dispenser {
 public:
  Dispenser(size_t list_size, double seconds, bool whole_passes)
      : list_size_(list_size), whole_passes_(whole_passes),
        deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds))) {}

  bool Next(uint64_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ >= stop_) return false;
    if (Clock::now() >= deadline_) {
      stop_ = whole_passes_ ? (next_ + list_size_ - 1) / list_size_ * list_size_
                            : next_;
      if (next_ >= stop_) return false;
    }
    *index = next_++;
    return true;
  }

 private:
  std::mutex mu_;
  const uint64_t list_size_;
  const bool whole_passes_;
  const Clock::time_point deadline_;
  uint64_t next_ = 0;
  uint64_t stop_ = UINT64_MAX;
};

struct Interval {
  Clock::time_point start;
  Clock::time_point end;
};

struct LoopResult {
  std::vector<double> latency_ms;   // successful queries
  std::vector<Interval> spans;      // successful queries, for stall counts
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t page_accesses = 0;       // logical page reads of the queries
  double wall_s = 0.0;

  uint64_t completed() const { return latency_ms.size(); }
};

/// Runs one query: (client, index into the query list) -> the facade's
/// stats, or null when the query failed.
using QueryFn = std::function<const QueryStats*(size_t, size_t)>;

/// Runs `clients` threads; each calls `query` until the dispenser says
/// stop.
LoopResult RunClients(size_t clients, size_t list_size, double seconds,
                      bool whole_passes, const QueryFn& query) {
  Dispenser dispenser(list_size, seconds, whole_passes);
  std::vector<LoopResult> per(clients);
  const auto t0 = Clock::now();
  std::vector<std::jthread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      uint64_t i = 0;
      while (dispenser.Next(&i)) {
        const auto s = Clock::now();
        const QueryStats* stats = query(c, static_cast<size_t>(i % list_size));
        const auto e = Clock::now();
        ++per[c].attempted;
        if (stats == nullptr) {
          ++per[c].failed;
          continue;
        }
        per[c].page_accesses += stats->io.logical_reads;
        per[c].latency_ms.push_back(
            std::chrono::duration<double, std::milli>(e - s).count());
        per[c].spans.push_back({s, e});
      }
    });
  }
  for (std::jthread& t : threads) t.join();
  LoopResult out;
  out.wall_s = SecondsSince(t0);
  for (LoopResult& r : per) {
    out.latency_ms.insert(out.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    out.spans.insert(out.spans.end(), r.spans.begin(), r.spans.end());
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.page_accesses += r.page_accesses;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Answer references.

/// Canonical form of a region: each piece's vertex doubles, pieces
/// sorted. Equal canonical forms mean bit-identical answers.
std::vector<std::vector<double>> Canonical(const Region& region) {
  std::vector<std::vector<double>> pieces;
  pieces.reserve(region.pieces.size());
  for (const ConvexPolygon& poly : region.pieces) {
    std::vector<double> flat;
    for (const Point2& p : poly.vertices) {
      flat.push_back(p.x);
      flat.push_back(p.y);
    }
    pieces.push_back(std::move(flat));
  }
  std::sort(pieces.begin(), pieces.end());
  return pieces;
}

/// Brute-force answer: inverse interpolation of every cell, no index.
Status BruteForce(const std::vector<CellRecord>& cells, const ValueInterval& q,
                  Region* region, uint64_t* answer_cells) {
  *answer_cells = 0;
  for (const CellRecord& cell : cells) {
    StatusOr<size_t> pieces = CellIsoband(cell, q, region);
    if (!pieces.ok()) return pieces.status();
    if (*pieces > 0) ++*answer_cells;
  }
  return Status::OK();
}

/// 2^log2_count queries of width `qinterval` x range whose starts are
/// stratified over the value range: query i lies at a seeded uniform
/// position (GenerateValueQueries over the stratum) in stratum
/// bit-reverse(i). Any prefix of the list is then spread evenly over the
/// value range, so the mix of cheap and expensive queries, and of scan
/// and index plans, barely moves between seeds, while each query still
/// comes from the seed.
std::vector<ValueInterval> StratifiedQueries(const ValueInterval& range,
                                             double qinterval, int log2_count,
                                             uint64_t seed) {
  const uint64_t count = uint64_t{1} << log2_count;
  const double len = qinterval * range.Length();
  const double stride = (range.Length() - len) / static_cast<double>(count);
  std::vector<ValueInterval> queries;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t stratum = 0;
    for (int b = 0; b < log2_count; ++b) {
      stratum |= ((i >> b) & 1) << (log2_count - 1 - b);
    }
    const double lo = range.min + static_cast<double>(stratum) * stride;
    const ValueInterval within{lo, lo + stride + len};
    WorkloadOptions wo;
    wo.qinterval_fraction = len / within.Length();
    wo.num_queries = 1;
    wo.seed = seed * count + i;
    queries.push_back(GenerateValueQueries(within, wo).front());
  }
  return queries;
}

std::vector<CellRecord> CellsOf(const Field& field) {
  std::vector<CellRecord> cells(field.NumCells());
  for (CellId id = 0; id < field.NumCells(); ++id) {
    cells[id] = field.GetCell(id);
  }
  return cells;
}

/// Checks `db` against the brute-force answer over `cells` on probe
/// queries (bit-identical pieces, same counts).
void CheckAgainstBruteForce(const FieldDatabase& db,
                            const std::vector<CellRecord>& cells,
                            const std::vector<ValueInterval>& probes,
                            const char* what, Report* report) {
  for (const ValueInterval& q : probes) {
    ValueQueryResult got;
    Region want;
    uint64_t want_cells = 0;
    const Status s = db.ValueQuery(q, &got);
    const Status b = BruteForce(cells, q, &want, &want_cells);
    if (!s.ok() || !b.ok()) {
      report->Fail(std::string(what) + ": probe query error");
      continue;
    }
    if (got.stats.answer_cells != want_cells ||
        got.stats.region_pieces != want.pieces.size() ||
        Canonical(got.region) != Canonical(want)) {
      report->Fail(std::string(what) + ": answer differs from brute force");
    }
  }
}

// ---------------------------------------------------------------------------
// Update generation: seeded batches of distinct random cells whose vertex
// values move by a small uniform perturbation. `cells` is the benchmark's
// copy of the truth and is updated as batches are generated.

class UpdateGenerator {
 public:
  UpdateGenerator(std::vector<CellRecord>* cells, const ValueInterval& range,
                  uint64_t seed)
      : cells_(cells),
        rng_(seed ^ 0x5eedu),
        step_(kPerturbation * range.Length()) {}

  std::vector<FieldDatabase::CellUpdate> Next() {
    std::vector<FieldDatabase::CellUpdate> batch;
    while (batch.size() < kUpdateCells) {
      const CellId id = static_cast<CellId>(rng_.NextBounded(cells_->size()));
      bool dup = false;
      for (const auto& u : batch) dup = dup || u.id == id;
      if (dup) continue;
      CellRecord& cell = (*cells_)[id];
      FieldDatabase::CellUpdate u;
      u.id = id;
      for (uint32_t v = 0; v < cell.num_vertices; ++v) {
        cell.w[v] += rng_.NextDouble(-step_, step_);
        u.values.push_back(cell.w[v]);
      }
      batch.push_back(std::move(u));
    }
    return batch;
  }

 private:
  std::vector<CellRecord>* cells_;
  Rng rng_;
  double step_;
};

// ---------------------------------------------------------------------------
// Layer replay (traced runs). One query is re-executed as the facade runs
// it — Plan, then FilterCandidateRanges on indexed plans, then RunScanOp
// with EstimateOp as the visitor — under a ScopedIoSink, timing each call.

struct Replay {
  PhysicalPlan plan;
  QueryStats stats;  // candidate/answer cells, region pieces, io
  IoStats filter_io;
  IoStats fetch_io;
  uint64_t runs = 0;
  uint64_t walked = 0;   // cells in the scanned runs
  uint64_t visited = 0;  // cells passed the zone map (visitor calls)
  double plan_cpu_s = 0, plan_wall_s = 0;
  double filter_cpu_s = 0, filter_wall_s = 0;
  double scan_cpu_s = 0, scan_wall_s = 0;
  double estimate_s = 0;  // visitor wall time inside the scan

  double LayersWall() const {
    return plan_wall_s + filter_wall_s + scan_wall_s;
  }
};

Status ReplayQuery(const FieldDatabase& db, const ValueInterval& q,
                   QueryContext* ctx, Replay* out) {
  *out = Replay{};
  ctx->io.Reset();
  ScopedIoSink sink(&ctx->io);
  const OperatorEnv env{&db.index(), ctx, nullptr};

  double c0 = ThreadCpu();
  auto w0 = Clock::now();
  out->plan = db.planner().Plan(q, db.planner_mode());
  out->plan_cpu_s = ThreadCpu() - c0;
  out->plan_wall_s = SecondsSince(w0);

  std::vector<PosRange>& ranges = ctx->ranges;
  ranges.clear();
  const bool fused = out->plan.kind == PlanKind::kFusedScan;
  if (fused) {
    ranges.push_back(PosRange{0, db.index().cell_store().size()});
  } else {
    c0 = ThreadCpu();
    w0 = Clock::now();
    FIELDDB_RETURN_IF_ERROR(db.index().FilterCandidateRanges(q, &ranges));
    out->filter_cpu_s = ThreadCpu() - c0;
    out->filter_wall_s = SecondsSince(w0);
    out->filter_io = ctx->io;
    out->runs = ranges.size();
    out->stats.candidate_cells = TotalRangeLength(ranges);
  }
  out->walked = TotalRangeLength(ranges);

  Region region;
  EstimateOp estimate(q, &region, &out->stats, /*count_candidates=*/fused);
  auto timed = [&](uint64_t pos, const CellRecord& cell) {
    const auto t = Clock::now();
    const bool more = estimate(pos, cell);
    out->estimate_s += SecondsSince(t);
    ++out->visited;
    return more;
  };
  c0 = ThreadCpu();
  w0 = Clock::now();
  Status scan = fused ? RunFuseOp(env, q, &out->stats, timed)
                      : RunScanOp(env, q, ranges.data(), ranges.size(),
                                  nullptr, &out->stats, timed);
  out->scan_cpu_s = ThreadCpu() - c0;
  out->scan_wall_s = SecondsSince(w0);
  FIELDDB_RETURN_IF_ERROR(scan);
  FIELDDB_RETURN_IF_ERROR(estimate.status());
  out->stats.io = ctx->io;
  out->fetch_io = ctx->io - out->filter_io;
  return Status::OK();
}

/// Per-layer sums over the traced queries of one run.
struct LayerTotals {
  uint64_t queries = 0;       // facade-level queries
  uint64_t replays = 0;       // per-database replays (shards for routers)
  uint64_t indexed = 0;
  double plan_cpu_s = 0, filter_cpu_s = 0, fetch_cpu_s = 0, fetch_wall_s = 0;
  double estimate_s = 0, facade_overhead_s = 0;
  double predicted_ms = 0, observed_ms = 0;
  uint64_t candidates = 0, runs = 0, answers = 0, pieces = 0;
  uint64_t filter_logical = 0, fetch_logical = 0, walked = 0, visited = 0;
  uint64_t shards_touched = 0, shards_skipped = 0;
  double gather_s = 0;
  IoStats facade_io;

  void Add(const Replay& r, double facade_wall_s) {
    ++replays;
    if (r.plan.kind == PlanKind::kIndexedFilter) ++indexed;
    plan_cpu_s += r.plan_cpu_s;
    filter_cpu_s += r.filter_cpu_s;
    fetch_cpu_s += std::max(0.0, r.scan_cpu_s - r.estimate_s);
    fetch_wall_s += std::max(0.0, r.scan_wall_s - r.estimate_s);
    estimate_s += r.estimate_s;
    facade_overhead_s += facade_wall_s - r.LayersWall();
    predicted_ms += r.plan.predicted_cost_ms;
    candidates += r.stats.candidate_cells;
    runs += r.runs;
    answers += r.stats.answer_cells;
    pieces += r.stats.region_pieces;
    filter_logical += r.filter_io.logical_reads;
    fetch_logical += r.fetch_io.logical_reads;
    walked += r.walked;
    visited += r.visited;
  }
  void Merge(const LayerTotals& o) {
    queries += o.queries;
    replays += o.replays;
    indexed += o.indexed;
    plan_cpu_s += o.plan_cpu_s;
    filter_cpu_s += o.filter_cpu_s;
    fetch_cpu_s += o.fetch_cpu_s;
    fetch_wall_s += o.fetch_wall_s;
    estimate_s += o.estimate_s;
    facade_overhead_s += o.facade_overhead_s;
    predicted_ms += o.predicted_ms;
    observed_ms += o.observed_ms;
    candidates += o.candidates;
    runs += o.runs;
    answers += o.answers;
    pieces += o.pieces;
    filter_logical += o.filter_logical;
    fetch_logical += o.fetch_logical;
    walked += o.walked;
    visited += o.visited;
    shards_touched += o.shards_touched;
    shards_skipped += o.shards_skipped;
    gather_s += o.gather_s;
    facade_io += o.facade_io;
  }
};

/// The replay check for one database: `facade` is what the facade
/// reported for the query on a database in the same state as `replay_db`
/// and `traced_db`. Adds the replay to `totals`; a mismatch fails the
/// run's answer checks.
void TraceOne(const FieldDatabase& replay_db, const FieldDatabase& traced_db,
              const ValueInterval& q, const QueryStats& facade,
              QueryContext* ctx, LayerTotals* totals, Report* report) {
  Replay r;
  QueryStats traced;
  const Status rs = ReplayQuery(replay_db, q, ctx, &r);
  const Status ts = traced_db.TracedValueQueryStats(q, &traced, ctx);
  if (!rs.ok() || !ts.ok()) {
    report->Fail("replay/traced query error: " +
                 (rs.ok() ? ts : rs).ToString());
    return;
  }
  const bool ok = r.stats.candidate_cells == facade.candidate_cells &&
            r.stats.answer_cells == facade.answer_cells &&
            r.stats.region_pieces == facade.region_pieces &&
            SameIo(r.stats.io, facade.io);
  if (!ok) report->Fail("replay differs from the facade's counts or IoStats");
  const TraceSpan* filter = traced.trace->Find("filter");
  const TraceSpan* fetch = traced.trace->Find("fetch");
  const bool split_ok =
      traced.candidate_cells == facade.candidate_cells &&
      traced.answer_cells == facade.answer_cells &&
      SameIo(traced.io, facade.io) && fetch != nullptr &&
      SameIo(fetch->io, r.fetch_io) &&
      (filter == nullptr ? r.filter_io.logical_reads == 0
                         : SameIo(filter->io, r.filter_io));
  if (!split_ok) {
    report->Fail("replay filter/fetch I/O split differs from spans");
  }
  totals->Add(r, facade.wall_seconds);
}

/// Registry snapshot taken around a traced window. The histograms are
/// reset when the window opens, so their percentiles cover the window.
struct CounterSnap {
  uint64_t prefetch_issued, prefetch_hit, batch_reads, wal_bytes, wal_commits,
      admission_waits;
  double read_latency_us_p50, queue_wait_us_p50, queue_wait_us_p99;

  static CounterSnap Take() {
    Histogram* read_latency = GetHistogram("storage.pool.read_latency_us");
    Histogram* queue_wait = GetHistogram("exec.queue_wait_us");
    return CounterSnap{GetCounter("storage.pool.prefetch_issued")->value(),
                       GetCounter("storage.pool.prefetch_hit")->value(),
                       GetCounter("storage.pool.batch_reads")->value(),
                       GetCounter("storage.wal.bytes_appended")->value(),
                       GetCounter("storage.wal.commits")->value(),
                       GetCounter("router.admission_waits")->value(),
                       read_latency->Percentile(50),
                       queue_wait->Percentile(50),
                       queue_wait->Percentile(99)};
  }
};

IoStats SumPoolStats(const std::vector<const BufferPool*>& pools) {
  IoStats s;
  for (const BufferPool* p : pools) s += p->stats();
  return s;
}

// ---------------------------------------------------------------------------
// Writes (terrain_mixed). One open-loop updater runs for the whole
// measured window: a batch is due every 1/kUpdateRatePerSec seconds and is
// timed from its due time to its acknowledgement, and every
// kBatchesPerCheckpoint batches the updater checkpoints.

using UpdateLog = std::vector<std::vector<FieldDatabase::CellUpdate>>;

/// Where the updater writes. Every mutation holds `gate` exclusively;
/// the query clients hold it shared.
struct WriteTarget {
  std::function<Status(const std::vector<FieldDatabase::CellUpdate>&)> apply;
  std::function<Status()> checkpoint;
  /// The database's bytes on disk, read right after a checkpoint.
  std::function<uint64_t()> checkpoint_bytes;
  WriterPreferringGate* gate = nullptr;
};

/// What the write path did during a run.
struct WriteStats {
  std::vector<double> update_ms;     // due time to acknowledgement
  std::vector<double> apply_ms;      // the update call alone
  std::vector<double> gate_wait_ms;  // waiting for the exclusive gate
  std::vector<double> lateness_ms;   // how late the generator sent
  std::vector<double> checkpoint_ms;
  std::vector<Interval> checkpoints;
  uint64_t batches_attempted = 0, batches_failed = 0;
  uint64_t checkpoints_attempted = 0, checkpoints_failed = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t cells = 0;
  double cpu_s = 0.0;  // the updater thread's CPU time
};

struct RunResult {
  LoopResult loop;
  WriteStats writes;
  Status error;  // the first failed update or checkpoint
  double cpu_s = 0.0;  // process CPU time of the whole run

  uint64_t ops() const {
    return loop.completed() + writes.update_ms.size() +
           writes.checkpoint_ms.size();
  }
  uint64_t attempted() const {
    return loop.attempted + writes.batches_attempted +
           writes.checkpoints_attempted;
  }
  uint64_t failed() const {
    return loop.failed + writes.batches_failed + writes.checkpoints_failed;
  }
};

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs the query clients (see RunClients) and, when `target` is set, the
/// updater, for `seconds`. Acknowledged batches are appended to `log` in
/// apply order; a failed write stops the updater, since the generator's
/// copy of the values no longer matches the database.
RunResult RunWorkload(size_t clients, size_t list_size, double seconds,
                      bool whole_passes, const QueryFn& query,
                      const WriteTarget* target, UpdateGenerator* gen,
                      UpdateLog* log) {
  RunResult run;
  const double cpu0 = ProcessCpu();
  WriteStats& w = run.writes;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kUpdateRatePerSec));
  auto write = [&] {
    const double thread_cpu0 = ThreadCpu();
    for (int64_t b = 0;; ++b) {
      w.cpu_s = ThreadCpu() - thread_cpu0;
      const Clock::time_point due = start + period * b;
      if (due >= deadline) return;
      std::this_thread::sleep_until(due);
      std::vector<FieldDatabase::CellUpdate> batch = gen->Next();
      const auto sent = Clock::now();
      target->gate->Lock();
      const auto locked = Clock::now();
      const Status s = target->apply(batch);
      const auto acked = Clock::now();
      target->gate->Unlock();
      ++w.batches_attempted;
      if (!s.ok()) {
        ++w.batches_failed;
        run.error = s;
        return;
      }
      w.update_ms.push_back(MsBetween(due, acked));
      w.apply_ms.push_back(MsBetween(locked, acked));
      w.gate_wait_ms.push_back(MsBetween(sent, locked));
      w.lateness_ms.push_back(MsBetween(due, sent));
      w.cells += batch.size();
      log->push_back(std::move(batch));
      if ((b + 1) % kBatchesPerCheckpoint != 0) continue;
      target->gate->Lock();
      const auto c0 = Clock::now();
      const Status cs = target->checkpoint();
      const auto c1 = Clock::now();
      target->gate->Unlock();
      ++w.checkpoints_attempted;
      if (!cs.ok()) {
        ++w.checkpoints_failed;
        run.error = cs;
        return;
      }
      w.checkpoint_ms.push_back(MsBetween(c0, c1));
      w.checkpoints.push_back({c0, c1});
      w.checkpoint_bytes += target->checkpoint_bytes();
    }
  };
  if (target == nullptr) {
    run.loop = RunClients(clients, list_size, seconds, whole_passes, query);
    run.cpu_s = ProcessCpu() - cpu0;
    return run;
  }
  std::jthread updater(write);
  run.loop = RunClients(clients, list_size, seconds, whole_passes,
                        [&](size_t c, size_t i) {
                          target->gate->LockShared();
                          const QueryStats* stats = query(c, i);
                          target->gate->UnlockShared();
                          return stats;
                        });
  updater.join();
  run.cpu_s = ProcessCpu() - cpu0;
  return run;
}

uint64_t StalledQueries(const std::vector<Interval>& queries,
                        const std::vector<Interval>& checkpoints) {
  uint64_t n = 0;
  for (const Interval& q : queries) {
    for (const Interval& c : checkpoints) {
      if (q.start < c.end && c.start < q.end) {
        ++n;
        break;
      }
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Metric blocks.

/// Per-layer metrics of a traced run. Per-query values are averaged over
/// facade-level queries, so a layer that did not run for a query adds
/// zero for it and the layers' costs add up per query.
/// `w` is the write path of the traced window; `plain` is an untraced
/// window of the same run, which gives the wall-clock latencies.
void AddLayerMetrics(const LayerTotals& t, const IoStats& pool_delta,
                     const CounterSnap& before, const CounterSnap& after,
                     const WriteStats& w, const RunResult& plain,
                     uint64_t stalled, double capacity, double overhead_frac,
                     double failed_frac, Report* report) {
  const double q = static_cast<double>(std::max<uint64_t>(t.queries, 1));
  // Pools and storage counters see every execution of a traced query:
  // the facade, the replay and the traced shadow.
  const double executions = 3.0 * q;
  const double batches = static_cast<double>(w.update_ms.size());
  const double checkpoints = static_cast<double>(w.checkpoint_ms.size());

  report->Add("plan.cpu_us", t.plan_cpu_s * 1e6 / q, "us");
  report->Add("plan.index_frac", Ratio(t.indexed, t.replays), "ratio");
  report->Add("plan.cost_error", Ratio(t.predicted_ms, t.observed_ms), "ratio");
  report->Add("index.filter_cpu_us", t.filter_cpu_s * 1e6 / q, "us");
  report->Add("index.candidates", t.candidates / q, "cells");
  report->Add("index.runs", t.runs / q, "count");
  report->Add("index.precision", Ratio(t.answers, t.candidates), "ratio");
  report->Add("index.logical_reads", t.filter_logical / q, "pages");
  report->Add("store.fetch_cpu_us", t.fetch_cpu_s * 1e6 / q, "us");
  report->Add("store.logical_reads", t.fetch_logical / q, "pages");
  report->Add("store.us_per_page", Ratio(t.fetch_wall_s * 1e6, t.fetch_logical),
              "us");
  report->Add("store.zone_skip_frac", Ratio(t.walked - t.visited, t.walked),
              "ratio");
  report->Add("pool.hit_ratio",
              1.0 - Ratio(pool_delta.physical_reads, pool_delta.logical_reads),
              "ratio");
  report->Add("pool.physical_reads", pool_delta.physical_reads / executions,
              "pages");
  report->Add("pool.seq_frac",
              Ratio(pool_delta.sequential_reads, pool_delta.physical_reads),
              "ratio");
  report->Add("pool.evictions", pool_delta.evictions / executions, "pages");
  const double prefetch_hits = after.prefetch_hit - before.prefetch_hit;
  const double prefetches =
      prefetch_hits + after.prefetch_issued - before.prefetch_issued;
  report->Add("pool.prefetch_hit_frac", Ratio(prefetch_hits, prefetches),
              "ratio");
  report->Add("io.batch_reads",
              (after.batch_reads - before.batch_reads) / executions,
              "count");
  report->Add("io.read_latency_us_p50", after.read_latency_us_p50, "us");
  report->Add("field.estimate_cpu_us", t.estimate_s * 1e6 / q, "us");
  report->Add("field.ns_per_answer_cell", Ratio(t.estimate_s * 1e9, t.answers),
              "ns");
  report->Add("field.region_pieces", t.pieces / q, "count");
  report->Add("core.facade_overhead_us", t.facade_overhead_s * 1e6 / q, "us");
  report->Add("router.shards_touched", t.shards_touched / q, "count");
  report->Add("router.skip_frac",
              Ratio(t.shards_skipped, t.shards_touched + t.shards_skipped),
              "ratio");
  report->Add("router.gather_us", t.gather_s * 1e6 / q, "us");
  report->Add("router.admission_waits",
              (after.admission_waits - before.admission_waits) / q, "count");
  report->Add("executor.queue_wait_us_p50", after.queue_wait_us_p50, "us");
  report->Add("executor.queue_wait_us_p99", after.queue_wait_us_p99, "us");
  report->Add("wal.bytes_per_cell",
              Ratio(after.wal_bytes - before.wal_bytes, w.cells), "B");
  report->Add("wal.commits",
              Ratio(after.wal_commits - before.wal_commits, batches),
              "1/batch");
  double apply_ms = 0;
  for (double ms : w.apply_ms) apply_ms += ms;
  report->Add("update.apply_us_per_cell", Ratio(apply_ms * 1e3, w.cells), "us");
  report->Add("update.gate_wait_ms", Percentile(w.gate_wait_ms, 99), "ms");
  report->Add("update.lateness_ms", Percentile(w.lateness_ms, 99), "ms");
  report->Add("checkpoint.bytes_written",
              Ratio(w.checkpoint_bytes, checkpoints), "B");
  report->Add("checkpoint.stalled_queries", Ratio(stalled, checkpoints),
              "count");
  report->Add("query_qps", Ratio(plain.loop.completed(), plain.loop.wall_s),
              "1/s");
  report->Add("query_p50_ms", Percentile(plain.loop.latency_ms, 50), "ms");
  report->Add("query_p99_ms", Percentile(plain.loop.latency_ms, 99), "ms");
  report->Add("update_p50_ms", Percentile(plain.writes.update_ms, 50), "ms");
  report->Add("update_p99_ms", Percentile(plain.writes.update_ms, 99), "ms");
  report->Add("checkpoint_ms", Percentile(plain.writes.checkpoint_ms, 50),
              "ms");
  report->Add("pages_read_per_query", t.facade_io.physical_reads / q, "pages");
  report->Add("disk_model_ms_per_query", t.observed_ms / q, "ms");
  report->Add("failed_frac", failed_frac, "ratio");
  report->Add("host.parallel_capacity", capacity, "x");
  report->Add("host.nproc", std::thread::hardware_concurrency(), "count");
  report->Add("trace.overhead_frac", overhead_frac, "ratio");
}

/// End-to-end metrics of an untraced run. Wall-clock throughput and
/// latency are printed for context but are not end-to-end metrics: on a
/// host whose usable parallelism swings between runs they move with the
/// host, while CPU time per operation stays put.
void AddEndToEndMetrics(double setup_s, const RunResult& run, double disk_bytes,
                        uint64_t cells, Report* report) {
  const LoopResult& loop = run.loop;
  const WriteStats& w = run.writes;
  const double queries = static_cast<double>(loop.completed());
  report->Add("setup_s", setup_s, "s");
  report->Add("cpu_ms_per_op", Ratio(run.cpu_s * 1e3, run.ops()), "ms");
  report->Add("cpu_ms_per_query", Ratio((run.cpu_s - w.cpu_s) * 1e3, queries),
              "ms");
  report->Add("page_accesses_per_query", Ratio(loop.page_accesses, queries),
              "pages");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Add("disk_bytes_per_cell", Ratio(disk_bytes, cells), "B");
  std::printf("queries: %zu (%zu beyond p99), %.2f/s, p50 %.3f ms, "
              "p99 %.3f ms\n",
              loop.latency_ms.size(), loop.latency_ms.size() / 100,
              Ratio(queries, loop.wall_s), Percentile(loop.latency_ms, 50),
              Percentile(loop.latency_ms, 99));
  std::printf("updates: %zu batches, p50 %.3f ms, p99 %.3f ms; "
              "%zu checkpoints, median %.1f ms; %" PRIu64
              " queries overlapped a checkpoint\n",
              w.update_ms.size(), Percentile(w.update_ms, 50),
              Percentile(w.update_ms, 99), w.checkpoint_ms.size(),
              Percentile(w.checkpoint_ms, 50),
              StalledQueries(loop.spans, w.checkpoints));
  // Context for the wall-clock numbers: the host's usable parallelism
  // varies from run to run.
  std::printf("host parallel capacity after the run: %.2fx of %u threads\n",
              ParallelCapacity(std::thread::hardware_concurrency()),
              std::thread::hardware_concurrency());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double CpuPerOp(const RunResult& run) {
  return run.cpu_s / static_cast<double>(std::max<uint64_t>(run.ops(), 1));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
};

/// A fresh directory under the run's scratch directory; returns the
/// database prefix inside it.
std::string FreshPrefix(const Args& args, const std::string& name) {
  const std::string dir = args.dir + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir + "/db";
}

// ---------------------------------------------------------------------------
// fractal_cold

Status RunFractalCold(const Args& args, Report* report) {
  FractalOptions fo;
  fo.size_exp = 9;
  fo.roughness_h = 0.3;
  fo.seed = 42;
  StatusOr<GridField> field = MakeFractalField(fo);
  if (!field.ok()) return field.status();
  const ValueInterval range = field->ValueRange();
  const std::vector<CellRecord> cells = CellsOf(*field);

  // Build, save and reopen from disk; the pool starts empty and is never
  // cleared afterwards.
  std::vector<double> setup;
  std::unique_ptr<FieldDatabase> db;
  std::string prefix;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    prefix = FreshPrefix(args, "cold");
    const auto t0 = Clock::now();
    FieldDatabaseOptions options;
    options.pool_pages = kColdPoolPages;
    StatusOr<std::unique_ptr<FieldDatabase>> built =
        FieldDatabase::Build(*field, options);
    if (!built.ok()) return built.status();
    FIELDDB_RETURN_IF_ERROR((*built)->Save(prefix));
    built->reset();
    StatusOr<std::unique_ptr<FieldDatabase>> opened =
        FieldDatabase::Open(prefix, kColdPoolPages);
    if (!opened.ok()) return opened.status();
    setup.push_back(SecondsSince(t0));
    db = std::move(*opened);
  }

  const std::vector<ValueInterval> queries =
      StratifiedQueries(range, kColdQInterval, kLongListLog2, args.seed);
  const std::vector<ValueInterval> probes(queries.begin(),
                                          queries.begin() + kProbeQueries);
  QueryContext ctx;
  ValueQueryResult res;
  std::vector<std::pair<uint64_t, uint64_t>> probe_answers(kProbeQueries,
                                                           {UINT64_MAX, 0});
  auto query = [&](size_t, size_t i) -> const QueryStats* {
    if (!db->ValueQuery(queries[i], &res, &ctx).ok()) return nullptr;
    if (i < kProbeQueries) {
      probe_answers[i] = {res.stats.answer_cells, res.stats.region_pieces};
    }
    return &res.stats;
  };

  if (!args.trace) {
    const RunResult run = RunWorkload(1, queries.size(), args.seconds, false,
                                      query, nullptr, nullptr, nullptr);
    report->CountOps(run.attempted(), run.failed());
    FIELDDB_RETURN_IF_ERROR(run.error);
    for (size_t i = 0; i < kProbeQueries; ++i) {
      Region want;
      uint64_t want_cells = 0;
      FIELDDB_RETURN_IF_ERROR(
          BruteForce(cells, queries[i], &want, &want_cells));
      const std::pair<uint64_t, uint64_t> expected{want_cells,
                                                   want.pieces.size()};
      if (probe_answers[i].first != UINT64_MAX &&
          probe_answers[i] != expected) {
        report->Fail("fractal_cold: measured answer differs from brute force");
      }
    }
    CheckAgainstBruteForce(*db, cells, probes, "fractal_cold", report);
    AddEndToEndMetrics(Median(setup), run,
                       static_cast<double>(DbFileBytes(prefix)),
                       field->NumCells(), report);
    return Status::OK();
  }

  // Traced: the facade runs on `db`; the replay and the traced shadow run
  // on two more opens of the same snapshot, so all three pools see the
  // same access sequence and must report the same IoStats.
  const double capacity = ParallelCapacity(std::thread::hardware_concurrency());
  StatusOr<std::unique_ptr<FieldDatabase>> replay_db =
      FieldDatabase::Open(prefix, kColdPoolPages);
  if (!replay_db.ok()) return replay_db.status();
  StatusOr<std::unique_ptr<FieldDatabase>> traced_db =
      FieldDatabase::Open(prefix, kColdPoolPages);
  if (!traced_db.ok()) return traced_db.status();
  MetricsRegistry::Default().Reset();
  const CounterSnap before = CounterSnap::Take();
  const std::vector<const BufferPool*> pools{&db->pool(), &(*replay_db)->pool(),
                                             &(*traced_db)->pool()};
  const IoStats pool0 = SumPoolStats(pools);
  LayerTotals totals;
  QueryContext shadow_ctx;
  const RunResult traced = RunWorkload(
      1, queries.size(), args.seconds / 2, false,
      [&](size_t c, size_t i) -> const QueryStats* {
        const auto t0 = Clock::now();
        if (query(c, i) == nullptr) return nullptr;
        res.stats.wall_seconds = SecondsSince(t0);
        ++totals.queries;
        totals.facade_io += res.stats.io;
        totals.observed_ms += DiskMs(res.stats.io);
        TraceOne(**replay_db, **traced_db, queries[i], res.stats, &shadow_ctx,
                 &totals, report);
        return &res.stats;
      },
      nullptr, nullptr, nullptr);
  const IoStats pool_delta = SumPoolStats(pools) - pool0;
  const CounterSnap after = CounterSnap::Take();
  const RunResult plain = RunWorkload(1, queries.size(), args.seconds / 2,
                                      false, query, nullptr, nullptr, nullptr);
  report->CountOps(traced.attempted() + plain.attempted(),
                   traced.failed() + plain.failed());
  AddLayerMetrics(totals, pool_delta, before, after, WriteStats{}, plain, 0,
                  capacity, Ratio(CpuPerOp(traced), CpuPerOp(plain)) - 1.0,
                  Ratio(report->failed(), report->attempted()), report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// terrain_warm

Status RunTerrainWarm(const Args& args, Report* report) {
  StatusOr<GridField> field = MakeRoseburgLikeTerrain();
  if (!field.ok()) return field.status();
  const ValueInterval range = field->ValueRange();
  const std::vector<CellRecord> cells = CellsOf(*field);

  // Built in memory with a pool larger than the store: every page stays
  // resident.
  FieldDatabaseOptions options;
  options.pool_pages = kWarmPoolPages;
  std::vector<double> setup;
  std::unique_ptr<FieldDatabase> db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    const auto t0 = Clock::now();
    StatusOr<std::unique_ptr<FieldDatabase>> built =
        FieldDatabase::Build(*field, options);
    if (!built.ok()) return built.status();
    setup.push_back(SecondsSince(t0));
    db = std::move(*built);
  }

  const std::vector<ValueInterval> queries =
      StratifiedQueries(range, kWarmQInterval, kWarmListLog2, args.seed);
  const std::vector<ValueInterval> probes(queries.begin(),
                                          queries.begin() + kProbeQueries);

  // Single-threaded reference pass, which is also the warm-up.
  std::vector<std::pair<uint64_t, uint64_t>> reference(queries.size());
  {
    QueryContext ctx;
    ValueQueryResult res;
    for (size_t i = 0; i < queries.size(); ++i) {
      FIELDDB_RETURN_IF_ERROR(db->ValueQuery(queries[i], &res, &ctx));
      reference[i] = {res.stats.answer_cells, res.stats.region_pieces};
    }
  }
  CheckAgainstBruteForce(*db, cells, probes, "terrain_warm reference", report);

  std::vector<QueryContext> ctxs(kWarmClients);
  std::vector<ValueQueryResult> results(kWarmClients);
  auto query = [&](size_t c, size_t i) -> const QueryStats* {
    ValueQueryResult& res = results[c];
    if (!db->ValueQuery(queries[i], &res, &ctxs[c]).ok()) return nullptr;
    if (reference[i] !=
        std::make_pair(res.stats.answer_cells, res.stats.region_pieces)) {
      report->Fail("terrain_warm: answer differs from the 1-thread reference");
    }
    return &res.stats;
  };

  if (!args.trace) {
    const RunResult run = RunWorkload(kWarmClients, queries.size(),
                                      args.seconds, true, query, nullptr,
                                      nullptr, nullptr);
    report->CountOps(run.attempted(), run.failed());
    FIELDDB_RETURN_IF_ERROR(run.error);
    const PageFile& file = *db->pool().file();
    AddEndToEndMetrics(Median(setup), run,
                       static_cast<double>(file.NumPages()) * file.page_size(),
                       field->NumCells(), report);
    return Status::OK();
  }

  // Traced: one client; the pool is fully resident, so the facade, the
  // replay and the traced shadow can share the database.
  const double capacity = ParallelCapacity(std::thread::hardware_concurrency());
  MetricsRegistry::Default().Reset();
  const CounterSnap before = CounterSnap::Take();
  const std::vector<const BufferPool*> pools{&db->pool()};
  const IoStats pool0 = SumPoolStats(pools);
  LayerTotals totals;
  QueryContext shadow_ctx;
  const RunResult traced = RunWorkload(
      1, queries.size(), args.seconds / 2, false,
      [&](size_t c, size_t i) -> const QueryStats* {
        const auto t0 = Clock::now();
        if (query(c, i) == nullptr) return nullptr;
        QueryStats& stats = results[c].stats;
        stats.wall_seconds = SecondsSince(t0);
        ++totals.queries;
        totals.facade_io += stats.io;
        totals.observed_ms += DiskMs(stats.io);
        TraceOne(*db, *db, queries[i], stats, &shadow_ctx, &totals, report);
        return &stats;
      },
      nullptr, nullptr, nullptr);
  const IoStats pool_delta = SumPoolStats(pools) - pool0;
  const CounterSnap after = CounterSnap::Take();
  const RunResult plain =
      RunWorkload(kWarmClients, queries.size(), args.seconds / 2, true, query,
                  nullptr, nullptr, nullptr);
  report->CountOps(traced.attempted() + plain.attempted(),
                   traced.failed() + plain.failed());
  AddLayerMetrics(totals, pool_delta, before, after, WriteStats{}, plain, 0,
                  capacity, Ratio(CpuPerOp(traced), CpuPerOp(plain)) - 1.0,
                  Ratio(report->failed(), report->attempted()), report);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// terrain_mixed

Status RunTerrainMixed(const Args& args, Report* report) {
  StatusOr<GridField> field = MakeRoseburgLikeTerrain();
  if (!field.ok()) return field.status();
  const ValueInterval range = field->ValueRange();
  std::vector<CellRecord> truth = CellsOf(*field);

  // Build 2 shards with the WAL armed, checkpoint, reopen from disk and
  // load every page into the per-shard pools, which hold a whole shard.
  std::vector<double> setup;
  std::unique_ptr<ShardRouter> router;
  std::string prefix;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    router.reset();
    prefix = FreshPrefix(args, "mixed");
    const auto t0 = Clock::now();
    ShardRouterOptions options;
    options.shards = 2;
    options.db.pool_pages = kShardPoolPages;
    options.db.wal_mode = WalMode::kAsync;
    options.wal_prefix = prefix;
    StatusOr<std::unique_ptr<ShardRouter>> built =
        ShardRouter::Build(*field, options);
    if (!built.ok()) return built.status();
    FIELDDB_RETURN_IF_ERROR((*built)->Save(prefix));
    built->reset();
    ShardRouter::OpenOptions open;
    open.pool_pages = kShardPoolPages;
    open.wal_mode = WalMode::kAsync;
    StatusOr<std::unique_ptr<ShardRouter>> opened =
        ShardRouter::Open(prefix, open);
    if (!opened.ok()) return opened.status();
    for (size_t k = 0; k < (*opened)->num_shards(); ++k) {
      BufferPool& pool = (*opened)->shard(k).db().pool();
      FIELDDB_RETURN_IF_ERROR(pool.PrefetchRange(0, pool.file()->NumPages()));
    }
    setup.push_back(SecondsSince(t0));
    router = std::move(*opened);
  }

  const std::vector<ValueInterval> queries =
      StratifiedQueries(range, kMixedQInterval, kLongListLog2, args.seed);
  UpdateGenerator gen(&truth, range, args.seed);
  UpdateLog log;
  WriterPreferringGate gate;
  WriteTarget target;
  target.apply = [&](const std::vector<FieldDatabase::CellUpdate>& batch) {
    return router->UpdateCellValuesBatch(batch);
  };
  target.checkpoint = [&] { return router->Save(prefix); };
  target.checkpoint_bytes = [&] {
    return RouterFileBytes(prefix, router->num_shards());
  };
  target.gate = &gate;

  std::vector<ValueQueryResult> results(kMixedClients);
  auto query = [&](size_t c, size_t i) -> const QueryStats* {
    if (!router->ValueQuery(queries[i], &results[c]).ok()) return nullptr;
    return &results[c].stats;
  };

  RunResult measured;
  if (!args.trace) {
    measured = RunWorkload(kMixedClients, queries.size(), args.seconds, false,
                           query, &target, &gen, &log);
    report->CountOps(measured.attempted(), measured.failed());
    FIELDDB_RETURN_IF_ERROR(measured.error);
  } else {
    // Traced: every query is replayed on each shard it touched, inside
    // the same shared section of the gate, so no update lands in between.
    const double capacity =
        ParallelCapacity(std::thread::hardware_concurrency());
    std::vector<LayerTotals> per_client(kMixedClients);
    std::vector<QueryContext> ctxs(kMixedClients);
    std::vector<const BufferPool*> pools;
    for (size_t k = 0; k < router->num_shards(); ++k) {
      pools.push_back(&router->shard(k).db().pool());
    }
    MetricsRegistry::Default().Reset();
    const CounterSnap before = CounterSnap::Take();
    const IoStats pool0 = SumPoolStats(pools);
    measured = RunWorkload(
        kMixedClients, queries.size(), args.seconds / 2, false,
        [&](size_t c, size_t i) -> const QueryStats* {
          LayerTotals& t = per_client[c];
          ValueQueryResult& res = results[c];
          RouterQueryProfile profile;
          if (!router->ValueQuery(queries[i], &res, &profile).ok()) {
            return nullptr;
          }
          ++t.queries;
          t.facade_io += res.stats.io;
          t.observed_ms += DiskMs(res.stats.io);
          t.shards_touched += profile.shards_touched;
          t.shards_skipped += profile.shards_skipped;
          double slowest = 0.0;
          for (size_t k = 0; k < profile.per_shard.size(); ++k) {
            const QueryStats& shard = profile.per_shard[k];
            if (shard.wall_seconds <= 0.0) continue;  // not scattered to
            slowest = std::max(slowest, shard.wall_seconds);
            const FieldDatabase& db = router->shard(k).db();
            TraceOne(db, db, queries[i], shard, &ctxs[c], &t, report);
          }
          t.gather_s += res.stats.wall_seconds - slowest;
          return &res.stats;
        },
        &target, &gen, &log);
    const IoStats pool_delta = SumPoolStats(pools) - pool0;
    const CounterSnap after = CounterSnap::Take();
    LayerTotals totals;
    for (const LayerTotals& t : per_client) totals.Merge(t);
    const RunResult plain =
        RunWorkload(kMixedClients, queries.size(), args.seconds / 2, false,
                    query, &target, &gen, &log);
    report->CountOps(measured.attempted() + plain.attempted(),
                     measured.failed() + plain.failed());
    FIELDDB_RETURN_IF_ERROR(measured.error);
    FIELDDB_RETURN_IF_ERROR(plain.error);
    const uint64_t stalled =
        StalledQueries(measured.loop.spans, measured.writes.checkpoints);
    AddLayerMetrics(totals, pool_delta, before, after, measured.writes, plain,
                    stalled, capacity,
                    Ratio(CpuPerOp(measured), CpuPerOp(plain)) - 1.0,
                    Ratio(report->failed(), report->attempted()), report);
  }

  // A serial replay of the acknowledged update log on a 1-shard database
  // of the same field must answer bit-identically to the router.
  FieldDatabaseOptions options;
  options.pool_pages = kWarmPoolPages;
  StatusOr<std::unique_ptr<FieldDatabase>> serial =
      FieldDatabase::Build(*field, options);
  if (!serial.ok()) return serial.status();
  for (const auto& batch : log) {
    FIELDDB_RETURN_IF_ERROR((*serial)->UpdateCellValuesBatch(batch));
  }
  for (size_t i = 0; i < kProbeQueries; ++i) {
    ValueQueryResult want, got;
    FIELDDB_RETURN_IF_ERROR((*serial)->ValueQuery(queries[i], &want));
    FIELDDB_RETURN_IF_ERROR(router->ValueQuery(queries[i], &got));
    if (want.stats.answer_cells != got.stats.answer_cells ||
        Canonical(want.region) != Canonical(got.region)) {
      report->Fail("terrain_mixed: router differs from the serial replay");
    }
  }

  if (!args.trace) {
    const uint64_t bytes = RouterFileBytes(prefix, router->num_shards());
    AddEndToEndMetrics(Median(setup), measured, static_cast<double>(bytes),
                       field->NumCells(), report);
  }
  return Status::OK();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload fractal_cold|terrain_warm|terrain_mixed "
                 "--seed N --seconds S --trace 0|1 --dir DIR\n",
                 argv[0]);
    return 2;
  }
  Report report;
  Status s;
  if (args.workload == "fractal_cold") {
    s = RunFractalCold(args, &report);
  } else if (args.workload == "terrain_warm") {
    s = RunTerrainWarm(args, &report);
  } else if (args.workload == "terrain_mixed") {
    s = RunTerrainMixed(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "benchmark error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("%s seed %" PRIu64 " (%s):\n", args.workload.c_str(), args.seed,
              args.trace ? "traced, per-layer" : "end-to-end");
  report.PrintTable();
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
