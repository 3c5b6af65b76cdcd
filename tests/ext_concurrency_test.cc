// Concurrent queries on the extension engines (volume, vector,
// temporal): their query methods are const, so eight threads replaying
// one fixed band-query list against a shared database must each get the
// single-thread answer, and the per-query IoStats — counted through each
// query's own I/O sink — must sum exactly to the pool's counter delta
// (no query is charged another's reads).

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "gen/fractal.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"

namespace fielddb {
namespace {

constexpr int kThreads = 8;
constexpr int kRounds = 3;

// What one query must reproduce exactly under concurrency.
struct Answer {
  uint64_t answer_cells = 0;
  uint64_t candidate_cells = 0;
  uint64_t region_pieces = 0;
  double measure = 0.0;  // volume or region area

  bool operator==(const Answer&) const = default;
};

void ExpectIoEqual(const IoStats& got, const IoStats& want) {
  EXPECT_EQ(got.logical_reads, want.logical_reads);
  EXPECT_EQ(got.physical_reads, want.physical_reads);
  EXPECT_EQ(got.sequential_reads, want.sequential_reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.read_retries, want.read_retries);
  EXPECT_EQ(got.failed_reads, want.failed_reads);
}

// Runs `num_queries` queries through `run(i, &io)` single-threaded for
// the reference answers, then from kThreads threads at once (each thread
// kRounds passes, starting at a different offset), checking every answer
// against its reference and the summed per-query I/O against `pool`.
void HammerAndCheck(
    BufferPool* pool, size_t num_queries,
    const std::function<Answer(size_t i, IoStats* io)>& run) {
  std::vector<Answer> reference(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    IoStats io;
    reference[i] = run(i, &io);
  }
  ASSERT_TRUE(pool->Clear().ok());
  const IoStats before = pool->stats();
  std::vector<IoStats> thread_io(kThreads);
  std::vector<uint64_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < num_queries; ++k) {
          const size_t i = (k + static_cast<size_t>(t) * 3) % num_queries;
          IoStats io;
          if (!(run(i, &io) == reference[i])) ++mismatches[t];
          thread_io[t] += io;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  IoStats summed;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    summed += thread_io[t];
  }
  const IoStats delta = pool->stats() - before;
  EXPECT_GT(delta.logical_reads, 0u);
  ExpectIoEqual(summed, delta);
}

TEST(ExtConcurrencyTest, VolumeBandQueries) {
  VolumeFractalOptions fo;
  fo.nx = fo.ny = fo.nz = 16;
  auto field = MakeFractalVolume(fo);
  ASSERT_TRUE(field.ok());
  VolumeFieldDatabase::Options options;
  options.pool_pages = 24;  // smaller than the store: queries evict
  auto db = VolumeFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const ValueInterval r = field->ValueRange();
  std::vector<ValueInterval> bands;
  for (int i = 0; i < 10; ++i) {
    const double c = r.min + (r.max - r.min) * (0.05 + 0.09 * i);
    const double w = (r.max - r.min) * (0.005 + 0.02 * (i % 3));
    bands.push_back(ValueInterval{c - w, c + w});
  }
  bands.push_back(ValueInterval{-1e9, 1e9});  // fused scan
  const VolumeFieldDatabase& ro = **db;
  HammerAndCheck(&(*db)->pool(), bands.size(), [&](size_t i, IoStats* io) {
    VolumeQueryResult res;
    QueryContext ctx;
    EXPECT_TRUE(ro.BandQuery(bands[i], &res, &ctx).ok());
    *io = res.stats.io;
    return Answer{res.stats.answer_cells, res.stats.candidate_cells, 0,
                  res.volume};
  });
}

TEST(ExtConcurrencyTest, VectorBandQueries) {
  FractalOptions fu, fv;
  fu.size_exp = fv.size_exp = 5;
  fu.seed = 3;
  fv.seed = 11;
  const uint32_t n = 1u << fu.size_exp;
  auto field = VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                       DiamondSquare(fu), DiamondSquare(fv));
  ASSERT_TRUE(field.ok());
  VectorFieldDatabase::Options options;
  options.pool_pages = 16;
  auto db = VectorFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<VectorBandQuery> queries;
  for (int i = 0; i < 10; ++i) {
    const double cu = -0.6 + 0.12 * i;
    const double cv = 0.5 - 0.1 * i;
    const double w = 0.05 + 0.05 * (i % 3);
    queries.push_back(VectorBandQuery{{cu - w, cu + w}, {cv - w, cv + w}});
  }
  queries.push_back(VectorBandQuery{{-1e3, 1e3}, {-1e3, 1e3}});
  const VectorFieldDatabase& ro = **db;
  HammerAndCheck(&(*db)->pool(), queries.size(), [&](size_t i, IoStats* io) {
    VectorQueryResult res;
    EXPECT_TRUE(ro.BandQuery(queries[i], &res).ok());
    *io = res.stats.io;
    return Answer{res.stats.answer_cells, res.stats.candidate_cells,
                  res.stats.region_pieces, res.region.TotalArea()};
  });
}

TEST(ExtConcurrencyTest, TemporalSnapshotQueries) {
  const int e = 5;
  const uint32_t n = 1u << e;
  std::vector<std::vector<double>> snapshots;
  for (uint64_t k = 0; k < 4; ++k) {
    FractalOptions fo;
    fo.size_exp = e;
    fo.seed = 20 + k;
    snapshots.push_back(DiamondSquare(fo));
  }
  auto field = TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                         std::move(snapshots));
  ASSERT_TRUE(field.ok());
  TemporalFieldDatabase::Options options;
  options.pool_pages = 16;
  auto db = TemporalFieldDatabase::Build(*field, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<TemporalSnapshotQuery> queries;
  for (int i = 0; i < 10; ++i) {
    const double t = 0.3 * i;
    const double c = -0.5 + 0.1 * i;
    const double w = 0.03 + 0.04 * (i % 3);
    queries.push_back({t, ValueInterval{c - w, c + w}});
  }
  queries.push_back({1.5, ValueInterval{-1e6, 1e6}});
  const TemporalFieldDatabase& ro = **db;
  HammerAndCheck(&(*db)->pool(), queries.size(), [&](size_t i, IoStats* io) {
    ValueQueryResult res;
    QueryContext ctx;
    EXPECT_TRUE(ro.SnapshotValueQuery(queries[i].first, queries[i].second,
                                      &res, &ctx)
                    .ok());
    *io = res.stats.io;
    return Answer{res.stats.answer_cells, res.stats.candidate_cells,
                  res.stats.region_pieces, res.region.TotalArea()};
  });
}

}  // namespace
}  // namespace fielddb
