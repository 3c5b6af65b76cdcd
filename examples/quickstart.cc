// Quickstart: build a terrain field database and run the two query
// classes of the paper — a conventional point query (Q1) and a field
// value query (Q2: "find the regions where the elevation is in a band").
//
// Run:  ./build/examples/quickstart

#include <cstdio>

#include "core/field_database.h"
#include "gen/fractal.h"

int main() {
  using namespace fielddb;

  // 1. A continuous field: a 128x128 fractal DEM over the unit square,
  //    with bilinear interpolation inside each grid cell.
  FractalOptions terrain_options;
  terrain_options.size_exp = 7;      // 128 x 128 cells
  terrain_options.roughness_h = 0.7;  // smooth, terrain-like
  terrain_options.seed = 2002;
  StatusOr<GridField> terrain = MakeFractalField(terrain_options);
  if (!terrain.ok()) {
    std::fprintf(stderr, "terrain: %s\n",
                 terrain.status().ToString().c_str());
    return 1;
  }
  std::printf("field: %u cells, elevations %s\n", terrain->NumCells(),
              terrain->ValueRange().ToString().c_str());

  // 2. Index it with the paper's I-Hilbert method (the default).
  StatusOr<std::unique_ptr<FieldDatabase>> db =
      FieldDatabase::Build(*terrain);
  if (!db.ok()) {
    std::fprintf(stderr, "build: %s\n", db.status().ToString().c_str());
    return 1;
  }
  const IndexBuildInfo& info = (*db)->build_info();
  std::printf(
      "index: %s, %llu cells -> %llu subfields, R*-tree height %u\n",
      (*db)->index().name().c_str(),
      static_cast<unsigned long long>(info.num_cells),
      static_cast<unsigned long long>(info.num_subfields),
      info.tree_height);

  // 3. Q1 — conventional query: elevation at a point.
  const Point2 site{0.25, 0.75};
  StatusOr<double> elevation = (*db)->PointQuery(site);
  if (!elevation.ok()) {
    std::fprintf(stderr, "Q1: %s\n",
                 elevation.status().ToString().c_str());
    return 1;
  }
  std::printf("Q1: elevation at (%.2f, %.2f) = %.4f\n", site.x, site.y,
              *elevation);

  // 4. Q2 — field value query: regions with elevation in a band around
  //    the middle of the range. The cost-based planner decides per
  //    query whether to run the index's filter+fetch pipeline or a
  //    single fused scan of the store — ask it first, then run.
  const ValueInterval range = terrain->ValueRange();
  const double mid = range.Center();
  const ValueInterval band{mid - 0.02 * range.Length(),
                           mid + 0.02 * range.Length()};
  const PhysicalPlan plan = (*db)->PlanValueQuery(band);
  std::printf("Q2 plan: %s, predicted %.2f ms (%s)\n",
              PlanKindName(plan.kind), plan.predicted_cost_ms,
              plan.reason.c_str());
  ValueQueryResult result;
  const Status s = (*db)->Query({.bands = {&band, 1}}, {&result, 1});
  if (!s.ok()) {
    std::fprintf(stderr, "Q2: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "Q2: band %s -> %zu region pieces, area %.4f (of 1.0), "
      "%llu candidate cells, %llu answer cells, %llu pages read\n",
      band.ToString().c_str(), result.region.NumPieces(),
      result.region.TotalArea(),
      static_cast<unsigned long long>(result.stats.candidate_cells),
      static_cast<unsigned long long>(result.stats.answer_cells),
      static_cast<unsigned long long>(result.stats.io.logical_reads));
  return 0;
}
