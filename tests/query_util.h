// Spellings of the common one-band and count-only requests for tests.
// Each is one Query call on either facade (FieldDatabase or
// ShardRouter); `extra` is the facade's optional third argument (a
// QueryContext* or a RouterQueryProfile*).

#ifndef FIELDDB_TESTS_QUERY_UTIL_H_
#define FIELDDB_TESTS_QUERY_UTIL_H_

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

}  // namespace fielddb

#endif  // FIELDDB_TESTS_QUERY_UTIL_H_
