// Micro-benchmarks (google-benchmark) for the substrates: space-filling
// curve encoding, R*-tree insert/search, subfield construction, the
// isoband estimation step and the page checksum. These are not paper
// figures; they document the constant factors underneath them.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "curve/curves.h"
#include "field/isoband.h"
#include "gen/fractal.h"
#include "index/subfield.h"
#include "rtree/rstar_tree.h"
#include "storage/crc32c.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

void BM_CurveEncode(benchmark::State& state) {
  const auto curve =
      MakeCurve(static_cast<CurveType>(state.range(0)), 16);
  Rng rng(1);
  uint32_t x = 0, y = 0;
  for (auto _ : state) {
    x = (x + 12345) & 0xFFFF;
    y = (y + 54321) & 0xFFFF;
    benchmark::DoNotOptimize(curve->Encode(x, y));
  }
  state.SetLabel(CurveTypeName(curve->type()));
}
BENCHMARK(BM_CurveEncode)
    ->Arg(static_cast<int>(CurveType::kHilbert))
    ->Arg(static_cast<int>(CurveType::kZOrder))
    ->Arg(static_cast<int>(CurveType::kGrayCode))
    ->Arg(static_cast<int>(CurveType::kRowMajor));

void BM_RTreeInsert1D(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    MemPageFile file;
    BufferPool pool(&file, 4096);
    auto tree = RStarTree<1>::Create(&pool);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      const double lo = rng.NextDouble();
      Box<1> b;
      b.lo = {lo};
      b.hi = {lo + 0.01};
      benchmark::DoNotOptimize(tree->Insert(b, i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert1D)->Arg(1000)->Arg(10000);

void BM_RTreeBulkLoad1D(benchmark::State& state) {
  Rng rng(3);
  const int64_t n = state.range(0);
  std::vector<RTreeEntry<1>> entries(n);
  for (int64_t i = 0; i < n; ++i) {
    const double lo = rng.NextDouble();
    entries[i].box.lo = {lo};
    entries[i].box.hi = {lo + 0.01};
    entries[i].a = i;
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) {
              return x.box.lo[0] < y.box.lo[0];
            });
  for (auto _ : state) {
    MemPageFile file;
    BufferPool pool(&file, 4096);
    benchmark::DoNotOptimize(RStarTree<1>::BulkLoad(&pool, entries));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RTreeBulkLoad1D)->Arg(10000)->Arg(100000);

void BM_RTreeSearch1D(benchmark::State& state) {
  Rng rng(4);
  const int64_t n = state.range(0);
  MemPageFile file;
  BufferPool pool(&file, 1 << 20);
  std::vector<RTreeEntry<1>> entries(n);
  for (int64_t i = 0; i < n; ++i) {
    const double lo = rng.NextDouble();
    entries[i].box.lo = {lo};
    entries[i].box.hi = {lo + 0.001};
    entries[i].a = i;
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) {
              return x.box.lo[0] < y.box.lo[0];
            });
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  uint64_t found = 0;
  for (auto _ : state) {
    const double lo = rng.NextDouble() * 0.95;
    Box<1> q;
    q.lo = {lo};
    q.hi = {lo + 0.02};
    tree->Search(q, [&](const RTreeEntry<1>&) {
      ++found;
      return true;
    });
  }
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_RTreeSearch1D)->Arg(100000)->Arg(1000000);

void BM_BuildSubfields(benchmark::State& state) {
  Rng rng(5);
  const int64_t n = state.range(0);
  std::vector<ValueInterval> intervals(n);
  ValueInterval range = ValueInterval::Empty();
  double v = 0;
  for (auto& iv : intervals) {
    v += rng.NextGaussian();
    iv = ValueInterval::Of(v, v + rng.NextDouble());
    range.Extend(iv);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSubfields(intervals, range, {}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BuildSubfields)->Arg(10000)->Arg(1000000);

// Arg 0: a band that cuts the quad, so its fan triangles run the clip
// chain. Arg 1: a band that covers the quad, so all four take the
// unclipped path.
void BM_CellIsoband(benchmark::State& state) {
  Rng rng(6);
  const CellRecord quad = CellRecord::Quad(
      0, Rect2{{0, 0}, {1, 1}}, rng.NextDouble(), rng.NextDouble(),
      rng.NextDouble(), rng.NextDouble());
  const ValueInterval band =
      state.range(0) == 0 ? ValueInterval{0.4, 0.6} : ValueInterval{-1, 2};
  // One region, cleared per cell, as the engine reuses a query's region:
  // this times the estimation step, not the growth of a fresh vector.
  Region region;
  for (auto _ : state) {
    region.pieces.clear();
    benchmark::DoNotOptimize(CellIsoband(quad, band, &region));
    benchmark::DoNotOptimize(region.pieces.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellIsoband)->Arg(0)->Arg(1);

// CRC-32C of one page-file slot (header + 4 KiB payload), the checksum
// every slot read, slot write and WAL frame pays. Arg 0 runs the
// dispatched path (SSE4.2 where the CPU has it), arg 1 the table loop.
void BM_Crc32cPage(benchmark::State& state) {
  const bool table = state.range(0) == 1;
  Rng rng(7);
  std::vector<uint8_t> slot(kPageHeaderSize + kDefaultPageSize);
  for (uint8_t& b : slot) b = static_cast<uint8_t>(rng.NextU64());
  for (auto _ : state) {
    const uint32_t crc = table
                             ? Crc32cExtendTable(0, slot.data(), slot.size())
                             : Crc32c(slot.data(), slot.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(slot.size()));
  state.SetLabel(!table && Crc32cHardwareActive() ? "sse4.2" : "table");
}
BENCHMARK(BM_Crc32cPage)->Arg(0)->Arg(1);

void BM_DiamondSquare(benchmark::State& state) {
  FractalOptions options;
  options.size_exp = static_cast<int>(state.range(0));
  options.roughness_h = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiamondSquare(options));
  }
}
BENCHMARK(BM_DiamondSquare)->Arg(8)->Arg(10);

}  // namespace
}  // namespace fielddb

BENCHMARK_MAIN();
