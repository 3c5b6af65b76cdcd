// Extension experiment (the paper's future work, Section 5: "extend our
// method to process value queries in vector field databases such as
// wind"): conjunctive band queries over a 2-component wind field,
// V-LinearScan vs V-I-Hilbert (subfields with 2-D value boxes in a 2-D
// R*-tree).

#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "gen/fractal.h"
#include "vector/vector_index.h"

namespace {

using namespace fielddb;

StatusOr<VectorGridField> MakeWindField(uint32_t size_exp, uint64_t seed) {
  FractalOptions fo;
  fo.size_exp = static_cast<int>(size_exp);
  fo.roughness_h = 0.8;
  fo.seed = seed;
  std::vector<double> u = DiamondSquare(fo);
  fo.seed = seed + 1;
  std::vector<double> v = DiamondSquare(fo);
  const uint32_t n = uint32_t{1} << size_exp;
  return VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                 std::move(u), std::move(v));
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t num_queries = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) num_queries = 30;
  }

  StatusOr<VectorGridField> wind = MakeWindField(9, 404);  // 512x512
  if (!wind.ok()) {
    std::fprintf(stderr, "%s\n", wind.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "=== Extension: vector field (wind u,v) conjunctive band queries, "
      "512x512 cells ===\n");
  const Box<2> range = wind->ValueRangeBox();
  const DiskModel disk;

  std::printf("%-10s %16s %16s %16s %16s\n", "Qinterval",
              "V-LinearScan(ms)", "V-I-Hilbert(ms)", "V-LinScan(io)",
              "V-I-Hil(io)");
  for (const double qi : {0.02, 0.05, 0.1, 0.2}) {
    double ms[2], io[2];
    int mi = 0;
    for (const VectorIndexMethod method :
         {VectorIndexMethod::kLinearScan, VectorIndexMethod::kIHilbert}) {
      VectorFieldDatabase::Options options;
      options.method = method;
      // The paper's page model: every page of every run read.
      options.read_whole_runs = true;
      auto db = VectorFieldDatabase::Build(*wind, options);
      if (!db.ok()) {
        std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
        return 1;
      }
      Rng rng(2002);
      QueryStats total;
      for (uint32_t q = 0; q < num_queries; ++q) {
        const double lu = qi * (range.hi[0] - range.lo[0]);
        const double lv = qi * (range.hi[1] - range.lo[1]);
        const double su =
            rng.NextDouble(range.lo[0], range.hi[0] - lu);
        const double sv =
            rng.NextDouble(range.lo[1], range.hi[1] - lv);
        if (!(*db)->pool().Clear().ok()) return 1;
        VectorQueryResult result;
        const Status s = (*db)->BandQuery(
            VectorBandQuery{{su, su + lu}, {sv, sv + lv}}, &result);
        if (!s.ok()) {
          std::fprintf(stderr, "%s\n", s.ToString().c_str());
          return 1;
        }
        total.Accumulate(result.stats);
      }
      ms[mi] = total.wall_seconds * 1000.0 / num_queries;
      io[mi] = disk.EstimateMs(total.io.sequential_reads,
                               total.io.random_reads()) /
               num_queries;
      ++mi;
    }
    std::printf("%-10.2f %16.4f %16.4f %16.1f %16.1f\n", qi, ms[0], ms[1],
                io[0], io[1]);
  }

  VectorFieldDatabase::Options options;
  auto db = VectorFieldDatabase::Build(*wind, options);
  if (db.ok()) {
    std::printf("\nV-I-Hilbert: %zu subfields over %llu cells\n",
                (*db)->subfields().size(),
                static_cast<unsigned long long>((*db)->num_cells()));
  }
  return 0;
}
