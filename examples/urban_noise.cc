// The paper's urban-noise scenario (Sections 1 and 4.1): a noise-level
// TIN over a city, queried with "find regions where the noise level is
// higher than 80 dB". Writes the answer regions (over the TIN outline)
// to urban_noise.svg.
//
// Run:  ./build/examples/urban_noise [output.svg]

#include <cstdio>

#include "core/field_database.h"
#include "gen/noise_tin.h"

int main(int argc, char** argv) {
  using namespace fielddb;
  const char* out_path = argc > 1 ? argv[1] : "urban_noise.svg";

  // A TIN of ~9000 triangles, like the paper's Lyon noise dataset (see
  // DESIGN.md for the substitution).
  StatusOr<TinField> city = MakeUrbanNoiseTin();
  if (!city.ok()) {
    std::fprintf(stderr, "tin: %s\n", city.status().ToString().c_str());
    return 1;
  }
  std::printf("city noise TIN: %u triangles, levels %s dB\n",
              city->NumCells(), city->ValueRange().ToString().c_str());

  FieldDatabaseOptions options;  // I-Hilbert
  auto db = FieldDatabase::Build(*city, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build: %s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("index: %llu subfields over %u triangles\n",
              static_cast<unsigned long long>(
                  (*db)->build_info().num_subfields),
              city->NumCells());

  // "Noise level higher than 80 dB": an open upper range, expressed as
  // [80, max].
  const ValueInterval noisy{80.0, city->ValueRange().max};
  ValueQueryResult result;
  const Status s = (*db)->Query({.bands = {&noisy, 1}}, {&result, 1});
  if (!s.ok()) {
    std::fprintf(stderr, "query: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "> 80 dB: %zu region pieces, area %.4f (%.2f%% of the city), "
      "%llu candidates, %llu pages read\n",
      result.region.NumPieces(), result.region.TotalArea(),
      100.0 * result.region.TotalArea(),
      static_cast<unsigned long long>(result.stats.candidate_cells),
      static_cast<unsigned long long>(result.stats.io.logical_reads));

  // SVG: city triangles in grey, noisy regions in red.
  SvgLayer triangles;
  triangles.fill = "#e8e8e8";
  triangles.stroke = "#bbbbbb";
  triangles.fill_opacity = 1.0;
  for (CellId id = 0; id < city->NumCells(); ++id) {
    const CellRecord cell = city->GetCell(id);
    triangles.polygons.push_back(PolygonFromTriangle(
        Triangle2{{cell.Vertex(0), cell.Vertex(1), cell.Vertex(2)}}));
  }
  SvgLayer noisy_layer;
  noisy_layer.polygons = result.region.pieces;
  noisy_layer.fill = "#cc3311";
  noisy_layer.stroke = "#7a1f0a";
  noisy_layer.fill_opacity = 0.85;

  if (!WriteSvg(out_path, city->Domain(), {triangles, noisy_layer})) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
