// Spellings of the common one-band and count-only requests for tests.
// Each is one Query call on either facade (FieldDatabase or
// ShardRouter); `extra` is the facade's optional third argument (a
// QueryContext* or a RouterQueryProfile*). SweepGroups states which
// bands of a request share a sweep.

#ifndef FIELDDB_TESTS_QUERY_UTIL_H_
#define FIELDDB_TESTS_QUERY_UTIL_H_

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/field_database.h"

namespace fielddb {

/// One band with regions.
template <typename Facade, typename... Extra>
Status QueryOne(const Facade& facade, const ValueInterval& band,
                ValueQueryResult* out, Extra... extra) {
  return facade.Query({.bands = {&band, 1}}, {out, 1}, extra...);
}

/// One band, counts only; `out` gets the stats.
template <typename Facade, typename... Extra>
Status CountOne(const Facade& facade, const ValueInterval& band,
                QueryStats* out, Extra... extra) {
  ValueQueryResult result;
  const Status s = facade.Query({.bands = {&band, 1}, .regions = false},
                                {&result, 1}, extra...);
  *out = std::move(result.stats);
  return s;
}

/// Several bands as one shared request, counts only; `out` gets each
/// member's stats.
template <typename Facade, typename... Extra>
Status CountShared(const Facade& facade,
                   const std::vector<ValueInterval>& bands,
                   std::vector<QueryStats>* out, Extra... extra) {
  std::vector<ValueQueryResult> results(bands.size());
  const Status s =
      facade.Query({.bands = bands, .regions = false}, results, extra...);
  out->clear();
  for (ValueQueryResult& r : results) out->push_back(std::move(r.stats));
  return s;
}

/// Several bands as one shared request with regions.
template <typename Facade, typename... Extra>
Status QueryShared(const Facade& facade,
                   const std::vector<ValueInterval>& bands,
                   std::vector<ValueQueryResult>* out, Extra... extra) {
  out->resize(bands.size());
  return facade.Query({.bands = bands}, *out, extra...);
}

/// The tests' own statement of the sweep rule: for each band, the
/// members of its connected group of overlapping bands, in request
/// order (the first is the group's leader).
inline std::vector<std::vector<size_t>> SweepGroups(
    const std::vector<ValueInterval>& bands) {
  std::vector<size_t> order(bands.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bands[a].min < bands[b].min;
  });
  std::vector<std::vector<size_t>> groups;
  double reach = -std::numeric_limits<double>::infinity();
  for (const size_t i : order) {
    if (bands[i].min > reach) groups.emplace_back();
    groups.back().push_back(i);
    reach = std::max(reach, bands[i].max);
  }
  std::vector<std::vector<size_t>> group_of(bands.size());
  for (std::vector<size_t>& group : groups) {
    std::sort(group.begin(), group.end());
    for (const size_t i : group) group_of[i] = group;
  }
  return group_of;
}

}  // namespace fielddb

#endif  // FIELDDB_TESTS_QUERY_UTIL_H_
