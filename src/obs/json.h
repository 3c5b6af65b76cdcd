#ifndef FIELDDB_OBS_JSON_H_
#define FIELDDB_OBS_JSON_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace fielddb {

/// Minimal JSON emission helpers shared by the observability exporters
/// (metrics snapshot, query traces, EXPLAIN output, bench telemetry).
/// Emission only — nothing in the library parses JSON.

inline void JsonAppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      case '\r': out->append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Numbers render with %.10g; non-finite values (JSON has no NaN/Inf)
/// render as null so consumers fail loudly instead of mis-parsing.
inline void JsonAppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out->append(buf);
}

/// The shortest text that reads back as the same double (bench reports:
/// the checker recomputes each gate from exactly the values the bench
/// compared). Non-finite values render as null, like JsonAppendDouble.
inline void JsonAppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];  // the longest shortest form is 24 chars
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace fielddb

#endif  // FIELDDB_OBS_JSON_H_
