// Conventional (Q1) point queries on grids: the lattice arithmetic names
// the cell (GridLattice::FindCell) and the store decodes it, so the
// answer must equal the field's own ValueAt bit for bit — at random
// points, on cell edges, at lattice vertices and at the domain's corners
// — through one database and through the router with 1, 2 and 4 shards,
// built and reopened. Points outside the domain are NotFound.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/shard_router.h"
#include "field/grid_field.h"

namespace fielddb {
namespace {

/// A 24 x 17 grid over an off-origin domain whose cell sizes are not
/// binary fractions, so every coordinate is a rounded product.
GridField MakeGrid() {
  Rng rng(11);
  std::vector<double> samples;
  for (uint32_t j = 0; j <= 17; ++j) {
    for (uint32_t i = 0; i <= 24; ++i) {
      samples.push_back(rng.NextDouble(-50.0, 80.0));
    }
  }
  return GridField::Create(24, 17, Rect2{{-3.7, 1.1}, {12.9, 5.3}}, samples)
      .value();
}

/// Random, edge, vertex and corner points of `field`'s lattice.
std::vector<Point2> InsidePoints(const GridField& field) {
  const GridLattice lattice = *field.Lattice();
  const Rect2 d = lattice.domain;
  std::vector<Point2> points;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.NextDouble(d.lo.x, d.hi.x),
                      rng.NextDouble(d.lo.y, d.hi.y)});
  }
  for (uint32_t cj = 0; cj < lattice.rows; ++cj) {
    for (uint32_t ci = 0; ci < lattice.cols; ++ci) {
      const Rect2 r = lattice.CellRect(ci, cj);
      points.push_back(r.lo);                            // vertex
      points.push_back(r.hi);                            // vertex
      points.push_back({r.lo.x, (r.lo.y + r.hi.y) / 2});  // left edge
      points.push_back({(r.lo.x + r.hi.x) / 2, r.hi.y});  // top edge
    }
  }
  for (const Point2 corner : {d.lo, d.hi, Point2{d.lo.x, d.hi.y},
                              Point2{d.hi.x, d.lo.y}}) {
    points.push_back(corner);
  }
  return points;
}

std::vector<Point2> OutsidePoints(const GridField& field) {
  const Rect2 d = field.Domain();
  const double mid_x = (d.lo.x + d.hi.x) / 2;
  const double mid_y = (d.lo.y + d.hi.y) / 2;
  return {{std::nextafter(d.lo.x, -1e9), mid_y},
          {std::nextafter(d.hi.x, 1e9), mid_y},
          {mid_x, std::nextafter(d.lo.y, -1e9)},
          {mid_x, std::nextafter(d.hi.y, 1e9)},
          {d.hi.x + 100.0, d.hi.y + 100.0},
          {-1e300, mid_y}};
}

/// field.ValueAt(p) answers at every inside point, the far edges and
/// corners included, and `query(p)` agrees with it bit for bit; at
/// every outside point `query(p)` is NotFound.
template <typename Query>
void ExpectValueAt(const GridField& field, Query&& query) {
  for (const Point2 p : InsidePoints(field)) {
    SCOPED_TRACE(::testing::Message() << "(" << p.x << ", " << p.y << ")");
    const StatusOr<double> want = field.ValueAt(p);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const StatusOr<double> got = query(p);
    ASSERT_EQ(got.status().code(), want.status().code())
        << got.status().ToString();
    if (want.ok()) {
      EXPECT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(*want))
          << *got << " vs " << *want;
    }
  }
  for (const Point2 p : OutsidePoints(field)) {
    EXPECT_EQ(query(p).status().code(), StatusCode::kNotFound)
        << "(" << p.x << ", " << p.y << ")";
  }
}

void Cleanup(const std::string& prefix, uint32_t shards) {
  for (uint32_t k = 0; k < shards; ++k) {
    for (const char* suffix : {".pages", ".meta", ".wal"}) {
      std::remove((prefix + ".s" + std::to_string(k) + suffix).c_str());
    }
  }
  for (const char* suffix : {".pages", ".meta", ".router"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(PointQueryTest, GridAnswersValueAtBitForBit) {
  const GridField field = MakeGrid();
  for (const IndexMethod method :
       {IndexMethod::kLinearScan, IndexMethod::kIHilbert}) {
    SCOPED_TRACE(IndexMethodName(method));
    FieldDatabaseOptions options;
    options.method = method;
    auto db = FieldDatabase::Build(field, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_NE((*db)->lattice(), nullptr);
    ExpectValueAt(field, [&](Point2 p) { return (*db)->PointQuery(p); });

    const std::string prefix = ::testing::TempDir() + "/fielddb_point_query";
    Cleanup(prefix, 0);
    ASSERT_TRUE((*db)->Save(prefix).ok());
    auto reopened = FieldDatabase::Open(prefix);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectValueAt(field,
                  [&](Point2 p) { return (*reopened)->PointQuery(p); });
    Cleanup(prefix, 0);
  }
}

TEST(PointQueryTest, RouterAnswersValueAtBitForBit) {
  const GridField field = MakeGrid();
  for (const uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    ShardRouterOptions options;
    options.shards = shards;
    auto router = ShardRouter::Build(field, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ExpectValueAt(field, [&](Point2 p) { return (*router)->PointQuery(p); });

    const std::string prefix = ::testing::TempDir() + "/fielddb_point_router";
    Cleanup(prefix, shards);
    ASSERT_TRUE((*router)->Save(prefix).ok());
    auto reopened = ShardRouter::Open(prefix, {});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectValueAt(field,
                  [&](Point2 p) { return (*reopened)->PointQuery(p); });
    // A shard alone answers its own cells exactly too, and NotFound for
    // the others'.
    if (shards > 1) {
      const FieldDatabase& shard = (*reopened)->shard(1).db();
      size_t answered = 0;
      for (const Point2 p : InsidePoints(field)) {
        const StatusOr<double> got = shard.PointQuery(p);
        if (got.status().code() == StatusCode::kNotFound) continue;
        ++answered;
        const StatusOr<double> want = field.ValueAt(p);
        ASSERT_EQ(got.status().code(), want.status().code());
        if (want.ok()) {
          EXPECT_EQ(std::bit_cast<uint64_t>(*got),
                    std::bit_cast<uint64_t>(*want));
        }
      }
      EXPECT_GT(answered, 0u);
    }
    Cleanup(prefix, shards);
  }
}

}  // namespace
}  // namespace fielddb
