#ifndef FIELDDB_CORE_SHARD_H_
#define FIELDDB_CORE_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/field_database.h"
#include "core/query_executor.h"
#include "field/field.h"

namespace fielddb {

class Counter;
class Histogram;

/// A read-through view presenting a subset of a base field's cells under
/// LOCAL ids 0..k-1 (CellStore requires the build order to be a
/// permutation of [0, NumCells())). `global_ids[local]` is the base
/// field's id for local cell `local`. Domain() reports the base field's
/// FULL domain, not the subset's bounding box: the Hilbert linearization
/// normalizes centroids over Domain(), and only the global domain makes
/// a shard's internal sort order agree with the unsharded build's — the
/// concatenation-equals-monolith property the router's deterministic
/// gather relies on.
class FieldSlice final : public Field {
 public:
  /// `base` must outlive the slice (shard builds consume the slice
  /// before Build returns, so the base field only needs to live through
  /// ShardRouter::Build).
  FieldSlice(const Field* base, std::vector<CellId> global_ids)
      : base_(base), domain_(base->Domain()),
        global_ids_(std::move(global_ids)) {}

  CellId NumCells() const override {
    return static_cast<CellId>(global_ids_.size());
  }
  CellRecord GetCell(CellId id) const override {
    CellRecord r = base_->GetCell(global_ids_[id]);
    r.id = id;  // re-key to the local id space
    return r;
  }
  Rect2 Domain() const override { return domain_; }
  /// The base field's lattice: local cell `local` is lattice cell
  /// `global_ids_[local]` of it, so a shard stores lattice slots too.
  std::optional<GridLattice> Lattice() const override {
    return base_->Lattice();
  }

  const std::vector<CellId>& global_ids() const { return global_ids_; }

 private:
  const Field* base_;
  Rect2 domain_;
  std::vector<CellId> global_ids_;
};

/// Immutable identity of one shard: its position in the router's
/// Hilbert-range partition and the local->global cell id map the router
/// persists in its catalog (the global ids are otherwise unrecoverable
/// after a reopen — the shard stores only know local ids).
struct ShardDescriptor {
  uint32_t id = 0;
  /// Hilbert keys of the shard's first and last cell in global
  /// linearization order (inclusive). Ranges of consecutive shards are
  /// contiguous and non-decreasing; a key shared by two shards means
  /// the tie broke on cell id at the boundary.
  uint64_t key_begin = 0;
  uint64_t key_end = 0;
  /// Global cell ids in local-id order — local id i is the i-th cell of
  /// this shard in global Hilbert order, so within-shard store order
  /// matches the unsharded linearization restricted to this subset.
  std::vector<CellId> local_to_global;

  uint64_t num_cells() const { return local_to_global.size(); }
};

/// One shard of a sharded field database: a fully self-contained
/// FieldDatabase (own BufferPool, value index, zone-map sidecar,
/// planner, WAL) over a contiguous Hilbert range of the global field,
/// plus the QueryExecutor lane the router scatters onto. The lane is
/// the shard's serialization point for scattered work; the database
/// itself keeps FieldDatabase's threading contract (const queries from
/// any thread, mutations externally excluded).
class Shard {
 public:
  /// The lane is one worker thread with 256 queue slots.
  Shard(ShardDescriptor descriptor, std::unique_ptr<FieldDatabase> db);

  const ShardDescriptor& descriptor() const { return descriptor_; }
  FieldDatabase& db() const { return *db_; }
  QueryExecutor& lane() const { return *lane_; }

  /// The router's skip rule: false when `query` misses the shard's
  /// value hull, so the shard holds no cell that meets it; increments
  /// this shard's skip counter then. Reads no page and plans nothing:
  /// a shard that is sent the band plans it once, in its own Query.
  /// Updates only widen the hull, so it may admit a band the shard no
  /// longer holds a cell for; the shard's filter then finds none.
  bool MayContain(const ValueInterval& query) const;

  /// Records one scattered sub-query against this shard's metrics
  /// (shard.s<k>.queries counter + shard.s<k>.wall_ms histogram).
  void RecordQuery(double wall_ms) const;

  /// Drains the lane, then closes the database (surfacing write-back
  /// errors). The shard is unusable afterwards.
  Status Close();

 private:
  ShardDescriptor descriptor_;
  /// Declared before the lane so the lane (which holds a raw pointer to
  /// the database) drains and joins first at destruction.
  std::unique_ptr<FieldDatabase> db_;
  std::unique_ptr<QueryExecutor> lane_;
  Counter* queries_;    // shard.s<k>.queries
  Counter* skips_;      // shard.s<k>.skipped
  Histogram* wall_ms_;  // shard.s<k>.wall_ms
};

/// Global linearization keys for partitioning: (CellCurveKey, id)
/// pairs under curve `type`, sorted exactly like an I-Hilbert store
/// built with that curve (same key over field.Domain(), same (key, id)
/// tie-break), so splitting the sorted sequence into contiguous runs
/// yields shards whose concatenation reproduces the global
/// linearization. InvalidArgument for an unknown curve.
StatusOr<std::vector<std::pair<uint64_t, CellId>>> CurvePartitionKeys(
    const Field& field, CurveType type);

}  // namespace fielddb

#endif  // FIELDDB_CORE_SHARD_H_
