#include "obs/slo.h"

#include <algorithm>
#include <limits>

#include "obs/json.h"

namespace fielddb {

SloTracker::SloTracker(std::vector<SloObjective> objectives) {
  if (objectives.empty()) objectives = DefaultQueryClasses();
  classes_.reserve(objectives.size());
  for (SloObjective& obj : objectives) {
    auto state = std::make_unique<ClassState>(std::move(obj));
    state->latency_ms = MetricsRegistry::Default().GetHistogram(
        "slo." + state->objective.query_class + ".latency_ms");
    classes_.push_back(std::move(state));
  }
}

std::vector<SloObjective> SloTracker::DefaultQueryClasses() {
  return {
      {"point", 0.001, 10.0, 0.99},
      {"narrow", 0.02, 50.0, 0.99},
      {"wide", std::numeric_limits<double>::infinity(), 250.0, 0.95},
  };
}

int SloTracker::ClassForWidthFraction(double width_frac) const {
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (width_frac <= classes_[i]->objective.max_width_frac) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(classes_.size()) - 1;
}

void SloTracker::Record(int class_index, double latency_ms) {
  if (class_index < 0 || class_index >= num_classes()) return;
  ClassState& state = *classes_[class_index];
  state.total.fetch_add(1, std::memory_order_relaxed);
  if (latency_ms > state.objective.target_ms) {
    state.violations.fetch_add(1, std::memory_order_relaxed);
  }
  state.latency_ms->Record(latency_ms);
}

int SloTracker::ClassForQuery(const ValueInterval& value_range,
                              const ValueInterval& query) const {
  const double span = value_range.max - value_range.min;
  const double width = query.max - query.min;
  return ClassForWidthFraction(span > 0 ? width / span : 1.0);
}

void SloTracker::RecordQuery(const ValueInterval& value_range,
                             const ValueInterval& query, double latency_ms) {
  Record(ClassForQuery(value_range, query), latency_ms);
}

void SloTracker::RecordFailure(const ValueInterval& value_range,
                               const ValueInterval& query) {
  ClassState& state = *classes_[ClassForQuery(value_range, query)];
  state.total.fetch_add(1, std::memory_order_relaxed);
  state.violations.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SloTracker::ClassSnapshot> SloTracker::Snapshot() {
  std::lock_guard<std::mutex> lock(window_mu_);
  std::vector<ClassSnapshot> out;
  out.reserve(classes_.size());
  for (const auto& state : classes_) {
    const SloObjective& obj = state->objective;
    ClassSnapshot snap;
    snap.query_class = obj.query_class;
    snap.target_ms = obj.target_ms;
    snap.target_fraction = obj.target_fraction;
    snap.total = state->total.load(std::memory_order_relaxed);
    snap.violations = state->violations.load(std::memory_order_relaxed);
    const double allowed = 1.0 - obj.target_fraction;
    if (snap.total > 0) {
      const double violation_frac =
          static_cast<double>(snap.violations) /
          static_cast<double>(snap.total);
      snap.compliance = 1.0 - violation_frac;
      snap.error_budget_remaining =
          allowed > 0 ? 1.0 - violation_frac / allowed
                      : (snap.violations == 0 ? 1.0 : -1.0);
    }
    // Burn rate over the window since the previous Snapshot.
    const uint64_t dt = snap.total - state->window_total;
    const uint64_t dv = snap.violations - state->window_violations;
    if (dt > 0 && allowed > 0) {
      snap.burn_rate =
          (static_cast<double>(dv) / static_cast<double>(dt)) / allowed;
    }
    state->window_total = snap.total;
    state->window_violations = snap.violations;
    snap.p50_ms = state->latency_ms->Percentile(50);
    snap.p90_ms = state->latency_ms->Percentile(90);
    snap.p99_ms = state->latency_ms->Percentile(99);
    snap.max_ms = state->latency_ms->max();
    out.push_back(std::move(snap));
  }
  return out;
}

std::string SloTracker::ToJson() {
  const std::vector<ClassSnapshot> snaps = Snapshot();
  std::string out = "{\"schema\": \"fielddb-slo-v1\", \"classes\": [";
  bool first = true;
  for (const ClassSnapshot& s : snaps) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"query_class\": ";
    JsonAppendString(&out, s.query_class);
    out += ", \"target_ms\": ";
    JsonAppendDouble(&out, s.target_ms);
    out += ", \"target_fraction\": ";
    JsonAppendDouble(&out, s.target_fraction);
    out += ", \"total\": " + std::to_string(s.total);
    out += ", \"violations\": " + std::to_string(s.violations);
    out += ", \"compliance\": ";
    JsonAppendDouble(&out, s.compliance);
    out += ", \"error_budget_remaining\": ";
    JsonAppendDouble(&out, s.error_budget_remaining);
    out += ", \"burn_rate\": ";
    JsonAppendDouble(&out, s.burn_rate);
    out += ", \"p50_ms\": ";
    JsonAppendDouble(&out, s.p50_ms);
    out += ", \"p90_ms\": ";
    JsonAppendDouble(&out, s.p90_ms);
    out += ", \"p99_ms\": ";
    JsonAppendDouble(&out, s.p99_ms);
    out += ", \"max_ms\": ";
    JsonAppendDouble(&out, s.max_ms);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace fielddb
