// Extension experiment (the paper's 3-D fields, Section 1: "Three-
// dimensional fields can model geological structures"): value queries on
// a 64^3 fractal volume (262,144 hexahedral cells — the Fig. 8a scale in
// 3-D), 3D-LinearScan vs 3D-I-Hilbert (3-D Hilbert linearization via the
// higher-dimensional generalization the paper cites [2]).

#include <cstdio>
#include <cstring>

#include "gen/workload.h"
#include "volume/volume_index.h"

int main(int argc, char** argv) {
  using namespace fielddb;
  uint32_t num_queries = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) num_queries = 30;
  }

  VolumeFractalOptions vo;
  vo.nx = vo.ny = vo.nz = 64;
  vo.roughness_h = 0.7;
  vo.seed = 909;
  StatusOr<VolumeGridField> volume = MakeFractalVolume(vo);
  if (!volume.ok()) {
    std::fprintf(stderr, "%s\n", volume.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "=== Extension: 3-D volume field value queries, 64^3 = 262,144 "
      "voxels ===\n");
  const DiskModel disk;

  std::printf("%-10s %18s %18s %16s %16s\n", "Qinterval",
              "3D-LinearScan(ms)", "3D-I-Hilbert(ms)", "3D-LinScan(io)",
              "3D-I-Hil(io)");
  for (const double qi : {0.0, 0.01, 0.02, 0.05, 0.1}) {
    WorkloadOptions wo;
    wo.qinterval_fraction = qi;
    wo.num_queries = num_queries;
    wo.seed = 2002;
    const auto queries =
        GenerateValueQueries(volume->ValueRange(), wo);
    double ms[2], io[2];
    int mi = 0;
    for (const VolumeIndexMethod method :
         {VolumeIndexMethod::kLinearScan, VolumeIndexMethod::kIHilbert}) {
      VolumeFieldDatabase::Options options;
      options.method = method;
      // The paper's page model: every page of every run read.
      options.read_whole_runs = true;
      auto db = VolumeFieldDatabase::Build(*volume, options);
      if (!db.ok()) {
        std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
        return 1;
      }
      auto ws = (*db)->RunWorkload(queries);
      if (!ws.ok()) {
        std::fprintf(stderr, "%s\n", ws.status().ToString().c_str());
        return 1;
      }
      ms[mi] = ws->avg_wall_ms;
      io[mi] = ws->AvgDiskMs(disk);
      ++mi;
    }
    std::printf("%-10.2f %18.4f %18.4f %16.1f %16.1f\n", qi, ms[0], ms[1],
                io[0], io[1]);
  }

  VolumeFieldDatabase::Options options;
  auto db = VolumeFieldDatabase::Build(*volume, options);
  if (db.ok()) {
    std::printf("\n3D-I-Hilbert: %zu subfields over %llu voxels\n",
                (*db)->subfields().size(),
                static_cast<unsigned long long>((*db)->num_cells()));
  }
  return 0;
}
