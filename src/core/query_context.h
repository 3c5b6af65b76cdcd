#ifndef FIELDDB_CORE_QUERY_CONTEXT_H_
#define FIELDDB_CORE_QUERY_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "common/simd/interval_filter.h"
#include "storage/io_stats.h"

namespace fielddb {

/// Per-query mutable state. The FieldDatabase itself is immutable while
/// queries run (every query entry point is const); everything a query
/// needs to scribble on lives here, so N threads each running queries
/// with their own context never share mutable memory.
///
/// A context is reused across queries to amortize the candidate-list
/// allocation, but serves one query at a time: give each thread its own
/// (QueryExecutor does exactly that for its workers).
struct QueryContext {
  /// The query's exact I/O delta, filled by installing `io` as the
  /// calling thread's ScopedIoSink for the query's duration.
  IoStats io;
  /// Candidate-run scratch for the filter step — the range form the
  /// query engine consumes (see ValueIndex::FilterCandidateRanges);
  /// capacity persists across queries.
  std::vector<PosRange> ranges;
};

}  // namespace fielddb

#endif  // FIELDDB_CORE_QUERY_CONTEXT_H_
