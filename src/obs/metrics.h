#ifndef FIELDDB_OBS_METRICS_H_
#define FIELDDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fielddb {

/// Process-wide metrics for the observability layer. Design goals, in
/// order: (1) recording must be cheap and safe from any thread — the
/// query engine runs concurrent readers, so every hot update is a
/// relaxed atomic RMW (fetch_add for integers, a CAS loop for the
/// doubles); no recording is ever lost, and readers (an exporter
/// thread) see torn-free values. The registry mutex is touched only at
/// registration and export time.
/// (2) Instruments are identified by dotted names
/// ("storage.pool.read_latency_us") and exported as Prometheus-style
/// text or JSON. (3) Everything can be disabled globally so benchmarks
/// can measure the instrumentation overhead itself (see
/// bench/harness.cc).

namespace metrics_internal {
/// Storage for the global enable flag; use MetricsRegistry::enabled().
/// Lives here so the instruments' inline fast paths can test it.
extern std::atomic<bool> g_metrics_enabled;
inline bool Enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
}  // namespace metrics_internal

/// Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!metrics_internal::Enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) {
    if (!metrics_internal::Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// HDR-style latency/size histogram: geometric major buckets (powers of
/// two) split into 32 linear sub-buckets each, so any recorded value
/// lands in a bucket within ~3% of its magnitude — accurate enough for
/// p50/p90/p99 while using a fixed 1152 * 8 bytes of storage and a
/// handful of relaxed atomic RMWs per Record (safe under concurrent
/// recorders). Values are clamped to
/// [1, 2^40); sub-unit values all count as 1 (record latencies in a
/// unit fine enough that 1 is "instant", e.g. microseconds).
///
/// Resolution contract (pinned by tests/metrics_test.cc): values below
/// 2^kSubBits get exact single-value buckets, and above that the
/// relative bucket width is 2^-kSubBits ≈ 3.1% — so the sub-100µs
/// latencies of zone-map-only plans (recorded in microseconds by
/// db.query_wall_us) spread across dozens of distinct buckets instead
/// of collapsing into the first few.
class Histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr int kMaxOctave = 40;
  static constexpr int kNumBuckets = ((kMaxOctave - kSubBits + 1) << kSubBits);

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Largest recorded value, exact (not bucketized). 0 when empty.
  double max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Value at percentile `p` in [0, 100] (bucket midpoint; 0 when
  /// empty). Accurate to the sub-bucket width, i.e. ~3% relative.
  double Percentile(double p) const;

  void Reset();

  /// Maps a clamped value to its bucket index; exposed for tests.
  static int BucketIndex(uint64_t n);
  /// Midpoint of bucket `idx`'s value range.
  static double BucketMidpoint(int idx);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Name -> instrument map. Instruments are created on first lookup and
/// never destroyed while the registry lives, so callers may cache the
/// returned pointers (every instrumented subsystem does). A name must
/// be used consistently as one kind; requesting an existing name as a
/// different kind returns a distinct instrument (the export suffixes
/// kinds, so they cannot collide).
class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem registers into.
  static MetricsRegistry& Default();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// One scalar instrument's value at a point in time — the unit the
  /// time-series sampler (obs/sampler.h) snapshots each tick.
  enum class InstrumentKind { kCounter, kGauge };
  struct ScalarSample {
    std::string name;
    InstrumentKind kind;
    double value;
  };
  /// Every counter and gauge, name-sorted (counters first). Histograms
  /// are excluded: their per-tick derivative is not meaningful as one
  /// scalar; sample their _count via the paired counter instead.
  std::vector<ScalarSample> SnapshotScalars() const;

  /// Prometheus-style exposition text: counters and gauges as single
  /// samples, histograms as summaries with p50/p90/p99 quantiles plus
  /// _sum/_count/_max. Dotted names are sanitized ('.' -> '_') and
  /// prefixed with "fielddb_".
  std::string ToPrometheusText() const;

  /// The same snapshot as JSON:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// mean,p50,p90,p99,max}}}.
  std::string ToJson() const;

  /// Human-oriented snapshot grouped by subsystem: instruments sharing
  /// a dotted prefix ("storage.pool.*", "storage.wal.*", "db.*") are
  /// rendered under one heading, histograms as p50/p99/max one-liners.
  /// This is what `fielddb_cli stats` (and stats --watch) prints.
  std::string ToGroupedText() const;

  /// Zeroes every instrument (pointers stay valid). For tests and
  /// benchmark calibration.
  void Reset();

  /// Globally enables/disables recording (export still works). Off, an
  /// instrument update is one relaxed load and a branch — the
  /// obs-off side of bench_obs_overhead's measurement.
  static void set_enabled(bool enabled);
  static bool enabled();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace fielddb

#endif  // FIELDDB_OBS_METRICS_H_
