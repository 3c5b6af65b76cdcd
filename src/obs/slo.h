#ifndef FIELDDB_OBS_SLO_H_
#define FIELDDB_OBS_SLO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/interval.h"
#include "obs/metrics.h"

namespace fielddb {

/// One latency objective: "target_fraction of `query_class` queries
/// finish within target_ms". The allowed violation fraction
/// (1 - target_fraction) is the class's error budget.
struct SloObjective {
  std::string query_class;
  /// Classification bound: a query whose value-interval width is at
  /// most this fraction of the field's value range belongs to the
  /// first class whose bound admits it (objectives are checked in
  /// order; use infinity for the catch-all last class).
  double max_width_frac = 0.0;
  double target_ms = 100.0;
  double target_fraction = 0.99;
};

/// Per-query-class SLO tracking for QueryExecutor and ShardRouter:
/// every query is classified (by selectivity width) and recorded
/// against its class's latency objective. The tracker derives the
/// three numbers an operator actually pages on:
///
///   compliance             fraction of queries within the objective,
///                          over the tracker's lifetime;
///   error budget remaining 1 - (violation fraction / allowed
///                          fraction), clamped to [-inf, 1]: 1.0 means
///                          no violations, 0.0 means the budget is
///                          exactly spent, negative means the SLO is
///                          blown;
///   burn rate              violation fraction over the window since
///                          the previous Snapshot, divided by the
///                          allowed fraction: 1.0 burns the budget
///                          exactly at the sustainable pace, >1 burns
///                          faster (14.4 = the classic "1h of a 30-day
///                          budget per hour" alert threshold).
///
/// Latency distributions ride on the existing HDR histograms: each
/// class registers "slo.<class>.latency_ms" in the default registry,
/// so percentiles come from the same ~3%-accurate buckets as every
/// other latency metric and show up in stats/Prometheus for free.
///
/// Thread safety: Record is lock-free (relaxed atomic counters + the
/// histogram's atomic buckets); Snapshot takes a mutex only to advance
/// the burn-rate window.
class SloTracker {
 public:
  explicit SloTracker(std::vector<SloObjective> objectives);

  /// The default three-class ladder used by QueryExecutor when the
  /// caller supplies no objectives: "point" (width ≤ 0.1% of the value
  /// range, 10ms @ 99%), "narrow" (≤ 2%, 50ms @ 99%), "wide"
  /// (catch-all, 250ms @ 95%).
  static std::vector<SloObjective> DefaultQueryClasses();

  /// Index of the first class whose max_width_frac admits
  /// `width_frac`; the last class catches everything else.
  int ClassForWidthFraction(double width_frac) const;
  int num_classes() const { return static_cast<int>(classes_.size()); }
  const SloObjective& objective(int class_index) const {
    return classes_[class_index]->objective;
  }

  /// Records one completed query. Lock-free; safe from any thread.
  void Record(int class_index, double latency_ms);

  /// Records one completed value query under the class of its width as
  /// a fraction of `value_range`'s (1 when the range has no width) —
  /// the classification QueryExecutor and ShardRouter both apply.
  void RecordQuery(const ValueInterval& value_range,
                   const ValueInterval& query, double latency_ms);

  /// Records one failed or refused value query, classified alike, as a
  /// miss: total and violations +1, no latency sample.
  void RecordFailure(const ValueInterval& value_range,
                     const ValueInterval& query);

  struct ClassSnapshot {
    std::string query_class;
    double target_ms = 0.0;
    double target_fraction = 0.0;
    uint64_t total = 0;
    uint64_t violations = 0;
    double compliance = 1.0;
    double error_budget_remaining = 1.0;
    double burn_rate = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  };

  /// Current state of every class. Advances the burn-rate window:
  /// burn_rate covers the queries recorded since the previous
  /// Snapshot call (0 when none).
  std::vector<ClassSnapshot> Snapshot();

  /// {"schema":"fielddb-slo-v1","classes":[{...ClassSnapshot...}]}
  std::string ToJson();

 private:
  struct ClassState {
    explicit ClassState(SloObjective obj) : objective(std::move(obj)) {}
    const SloObjective objective;
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> violations{0};
    Histogram* latency_ms = nullptr;
    // Burn-rate window anchor (guarded by window_mu_).
    uint64_t window_total = 0;
    uint64_t window_violations = 0;
  };

  /// RecordQuery's classification.
  int ClassForQuery(const ValueInterval& value_range,
                    const ValueInterval& query) const;

  std::vector<std::unique_ptr<ClassState>> classes_;
  std::mutex window_mu_;
};

}  // namespace fielddb

#endif  // FIELDDB_OBS_SLO_H_
