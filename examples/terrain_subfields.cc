// Reproduces the paper's Fig. 7: the subfield map that the I-Hilbert
// builder produces over a terrain — each subfield is a set of cells
// contiguous along the Hilbert curve with similar elevations. Writes an
// SVG with cells colored by subfield, plus one highlighted value-query
// answer.
//
// Run:  ./build/examples/terrain_subfields [output.svg]

#include <cstdio>
#include <string>

#include "core/field_database.h"
#include "gen/fractal.h"

int main(int argc, char** argv) {
  using namespace fielddb;
  const char* out_path = argc > 1 ? argv[1] : "terrain_subfields.svg";

  FractalOptions terrain_options;
  terrain_options.size_exp = 6;  // 64x64: readable in an SVG
  terrain_options.roughness_h = 0.7;
  terrain_options.seed = 7;
  StatusOr<GridField> terrain = MakeFractalField(terrain_options);
  if (!terrain.ok()) {
    std::fprintf(stderr, "terrain: %s\n",
                 terrain.status().ToString().c_str());
    return 1;
  }

  FieldDatabaseOptions options;
  options.method = IndexMethod::kIHilbert;
  auto db = FieldDatabase::Build(*terrain, options);
  if (!db.ok()) {
    std::fprintf(stderr, "build: %s\n", db.status().ToString().c_str());
    return 1;
  }
  const std::vector<Subfield>& subfields = *(*db)->index().subfields();
  std::printf("%u cells grouped into %zu subfields\n", terrain->NumCells(),
              subfields.size());
  std::printf("subfield sizes: first=%llu cells %s",
              static_cast<unsigned long long>(subfields[0].NumCells()),
              subfields[0].interval.ToString().c_str());
  std::printf(", last=%llu cells %s\n",
              static_cast<unsigned long long>(subfields.back().NumCells()),
              subfields.back().interval.ToString().c_str());

  // One SVG layer per subfield, cycling a categorical palette.
  static const char* kPalette[] = {"#4477aa", "#66ccee", "#228833",
                                   "#ccbb44", "#ee6677", "#aa3377",
                                   "#bbbbbb", "#ee8866"};
  std::vector<SvgLayer> layers;
  const CellStore::Records& store = (*db)->index().cell_store().records();
  for (size_t si = 0; si < subfields.size(); ++si) {
    SvgLayer layer;
    layer.fill = kPalette[si % (sizeof(kPalette) / sizeof(kPalette[0]))];
    layer.stroke = "#333333";
    layer.fill_opacity = 0.8;
    CellRecord rec;
    for (uint64_t pos = subfields[si].start; pos < subfields[si].end;
         ++pos) {
      if (!store.Get(pos, &rec).ok()) continue;
      layer.polygons.push_back(PolygonFromRect(rec.Bounds()));
    }
    layers.push_back(std::move(layer));
  }

  // Highlight the answer of one value query on top.
  const ValueInterval range = terrain->ValueRange();
  const ValueInterval band{range.min + 0.45 * range.Length(),
                           range.min + 0.55 * range.Length()};
  ValueQueryResult result;
  if ((*db)->Query({.bands = {&band, 1}}, {&result, 1}).ok()) {
    SvgLayer answer;
    answer.polygons = result.region.pieces;
    answer.fill = "#000000";
    answer.stroke = "#000000";
    answer.fill_opacity = 0.55;
    layers.push_back(std::move(answer));
    std::printf("highlighted band %s: area %.4f, %llu candidates\n",
                band.ToString().c_str(), result.region.TotalArea(),
                static_cast<unsigned long long>(
                    result.stats.candidate_cells));
  }

  if (!WriteSvg(out_path, terrain->Domain(), layers)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
