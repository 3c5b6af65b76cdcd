#include "obs/trace.h"

#include <cstdio>

#include "obs/json.h"
#include "storage/io_sink.h"

namespace fielddb {

const TraceSpan* QueryTrace::Find(std::string_view name) const {
  for (const TraceSpan& s : spans_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double QueryTrace::TotalWallSeconds() const {
  double total = 0.0;
  for (const TraceSpan& s : spans_) total += s.wall_seconds;
  return total;
}

IoStats QueryTrace::TotalIo() const {
  IoStats total;
  for (const TraceSpan& s : spans_) total += s.io;
  return total;
}

std::string QueryTrace::ToString() const {
  std::string out = "trace\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    const char* branch = (i + 1 == spans_.size()) ? "`-" : "|-";
    std::snprintf(buf, sizeof(buf),
                  "%s %-9s %9.3f ms  logical=%llu physical=%llu "
                  "sequential=%llu items=%llu%s%s\n",
                  branch, s.name.c_str(), s.wall_seconds * 1000.0,
                  static_cast<unsigned long long>(s.io.logical_reads),
                  static_cast<unsigned long long>(s.io.physical_reads),
                  static_cast<unsigned long long>(s.io.sequential_reads),
                  static_cast<unsigned long long>(s.items),
                  s.detail.empty() ? "" : "  ", s.detail.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "= total     %9.3f ms  logical=%llu physical=%llu\n",
                TotalWallSeconds() * 1000.0,
                static_cast<unsigned long long>(TotalIo().logical_reads),
                static_cast<unsigned long long>(TotalIo().physical_reads));
  out += buf;
  return out;
}

std::string QueryTrace::ToJson() const {
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    if (i > 0) out += ", ";
    out += "{\"name\": ";
    JsonAppendString(&out, s.name);
    out += ", \"wall_ms\": ";
    JsonAppendDouble(&out, s.wall_seconds * 1000.0);
    out += ", \"logical_reads\": " + std::to_string(s.io.logical_reads);
    out += ", \"physical_reads\": " + std::to_string(s.io.physical_reads);
    out += ", \"sequential_reads\": " + std::to_string(s.io.sequential_reads);
    out += ", \"items\": " + std::to_string(s.items);
    if (!s.detail.empty()) {
      out += ", \"detail\": ";
      JsonAppendString(&out, s.detail);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void ScopedSpan::Start(QueryTrace* trace) {
  open_ = true;
  if (trace != nullptr) {
    per_query_.emplace();
    per_query_->trace = trace;
    per_query_->sink = CurrentIoSink();
    if (per_query_->sink != nullptr) per_query_->io_start = *per_query_->sink;
  }
  start_ns_ = TraceBuffer::NowNs();
}

void ScopedSpan::Close() {
  open_ = false;
  const uint64_t elapsed = TraceBuffer::NowNs() - start_ns_;
  const uint64_t dur_ns = elapsed > deduct_ns_ ? elapsed - deduct_ns_ : 0;
  end_ns_ = start_ns_ + dur_ns;
  if (ring_) {
    TraceBuffer::Global().Record(name_, category_, start_ns_, dur_ns,
                                 items_);
  }
  if (per_query_) {
    IoStats io;
    if (per_query_->sink != nullptr) {
      io = *per_query_->sink - per_query_->io_start;
    }
    per_query_->trace->AddSpan(TraceSpan{name_, dur_ns / 1e9, io, items_,
                                         std::move(per_query_->detail)});
  }
}

void ScopedSpan::Record(const char* name, const char* category,
                        QueryTrace* trace, uint64_t start_ns,
                        uint64_t dur_ns, uint64_t items) {
  if (TraceBuffer::enabled()) {
    TraceBuffer::Global().Record(name, category, start_ns, dur_ns, items);
  }
  if (trace != nullptr) {
    trace->AddSpan(TraceSpan{name, dur_ns / 1e9, IoStats{}, items, {}});
  }
}

}  // namespace fielddb
