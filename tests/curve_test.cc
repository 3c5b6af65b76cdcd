#include "curve/curves.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "curve/gray.h"
#include "curve/hilbert.h"
#include "curve/zorder.h"

namespace fielddb {
namespace {

/// The classic quadrant-rotation loop, one bit per level: the oracle
/// the table-driven HilbertEncode2D must equal on every input.
uint64_t LoopHilbertEncode2D(int order, uint32_t x, uint32_t y) {
  uint64_t d = 0;
  for (uint32_t s = uint32_t{1} << (order - 1); s > 0; s >>= 1) {
    const uint32_t rx = (x & s) > 0 ? 1 : 0;
    const uint32_t ry = (y & s) > 0 ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * rx) ^ ry);
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

TEST(HilbertTest, TableEqualsLoopOnEveryInputOfOrdersOneToEight) {
  for (int order = 1; order <= 8; ++order) {
    const uint32_t side = uint32_t{1} << order;
    std::vector<bool> seen(uint64_t{side} * side, false);
    for (uint32_t x = 0; x < side; ++x) {
      for (uint32_t y = 0; y < side; ++y) {
        const uint64_t d = HilbertEncode2D(order, x, y);
        ASSERT_EQ(d, LoopHilbertEncode2D(order, x, y))
            << "order " << order << " (" << x << ", " << y << ")";
        ASSERT_LT(d, seen.size());
        ASSERT_FALSE(seen[d]);
        seen[d] = true;
        uint32_t dx = 0, dy = 0;
        HilbertDecode2D(order, d, &dx, &dy);
        ASSERT_EQ(dx, x);
        ASSERT_EQ(dy, y);
      }
    }
  }
}

TEST(HilbertTest, TableEqualsLoopOnRandomOrderSixteenInputs) {
  Rng rng(16);
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t bits = rng.NextU64();
    const uint32_t x = static_cast<uint32_t>(bits) & 0xffff;
    const uint32_t y = static_cast<uint32_t>(bits >> 32) & 0xffff;
    const uint64_t d = HilbertEncode2D(16, x, y);
    ASSERT_EQ(d, LoopHilbertEncode2D(16, x, y)) << "(" << x << ", " << y << ")";
    uint32_t dx = 0, dy = 0;
    HilbertDecode2D(16, d, &dx, &dy);
    ASSERT_EQ(dx, x);
    ASSERT_EQ(dy, y);
  }
}

TEST(HilbertTest, BitsAboveTheOrderAreIgnored) {
  // The loop reads only the low `order` bits of x and y; so does the
  // table, at every order up to 31.
  Rng rng(31);
  for (int order = 1; order <= 31; ++order) {
    for (int i = 0; i < 200; ++i) {
      const uint64_t bits = rng.NextU64();
      const uint32_t x = static_cast<uint32_t>(bits);
      const uint32_t y = static_cast<uint32_t>(bits >> 32);
      const uint64_t d = HilbertEncode2D(order, x, y);
      ASSERT_EQ(d, LoopHilbertEncode2D(order, x, y)) << "order " << order;
      const uint32_t mask = (uint32_t{1} << order) - 1;
      uint32_t dx = 0, dy = 0;
      HilbertDecode2D(order, d | (~uint64_t{0} << (2 * order)), &dx, &dy);
      ASSERT_EQ(dx, x & mask);
      ASSERT_EQ(dy, y & mask);
    }
  }
}

TEST(HilbertTest, Order1KnownSequence) {
  // The order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
  EXPECT_EQ(HilbertEncode2D(1, 0, 0), 0u);
  EXPECT_EQ(HilbertEncode2D(1, 0, 1), 1u);
  EXPECT_EQ(HilbertEncode2D(1, 1, 1), 2u);
  EXPECT_EQ(HilbertEncode2D(1, 1, 0), 3u);
}

TEST(HilbertTest, Order2KnownValues) {
  // Classic xy2d formulation, spot-checked against the standard table.
  EXPECT_EQ(HilbertEncode2D(2, 0, 0), 0u);
  EXPECT_EQ(HilbertEncode2D(2, 1, 0), 1u);
  EXPECT_EQ(HilbertEncode2D(2, 1, 1), 2u);
  EXPECT_EQ(HilbertEncode2D(2, 0, 1), 3u);
  EXPECT_EQ(HilbertEncode2D(2, 0, 2), 4u);
  EXPECT_EQ(HilbertEncode2D(2, 3, 0), 15u);
}

TEST(HilbertTest, AdjacencyNoJumps) {
  // The property the subfield builder relies on (Section 3.1.2):
  // consecutive Hilbert indexes are 4-neighbors — no jumps.
  const int order = 5;
  const uint64_t n = uint64_t{1} << (2 * order);
  uint32_t px = 0, py = 0;
  HilbertDecode2D(order, 0, &px, &py);
  for (uint64_t d = 1; d < n; ++d) {
    uint32_t x = 0, y = 0;
    HilbertDecode2D(order, d, &x, &y);
    const int manhattan = std::abs(static_cast<int>(x) - static_cast<int>(px)) +
                          std::abs(static_cast<int>(y) - static_cast<int>(py));
    ASSERT_EQ(manhattan, 1) << "jump at d=" << d;
    px = x;
    py = y;
  }
}

TEST(HilbertTest, LargeOrderRoundtrip) {
  const int order = 20;
  for (const auto& [x, y] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0, 0}, {1048575, 1048575}, {12345, 678910 % (1u << 20)},
           {999999, 3}}) {
    const uint64_t d = HilbertEncode2D(order, x, y);
    uint32_t rx = 0, ry = 0;
    HilbertDecode2D(order, d, &rx, &ry);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
  }
}

TEST(HilbertNDTest, MatchesNothingButIsBijective3D) {
  const int order = 3;
  const int dims = 3;
  std::vector<bool> seen(size_t{1} << (order * dims), false);
  std::vector<uint32_t> coords(dims);
  for (uint32_t x = 0; x < 8; ++x) {
    for (uint32_t y = 0; y < 8; ++y) {
      for (uint32_t z = 0; z < 8; ++z) {
        const uint64_t d = HilbertEncodeND(order, {x, y, z});
        ASSERT_LT(d, seen.size());
        ASSERT_FALSE(seen[d]) << "collision at " << d;
        seen[d] = true;
        coords = {0, 0, 0};
        HilbertDecodeND(order, d, &coords);
        ASSERT_EQ(coords[0], x);
        ASSERT_EQ(coords[1], y);
        ASSERT_EQ(coords[2], z);
      }
    }
  }
}

TEST(HilbertNDTest, Adjacency3D) {
  const int order = 3;
  const uint64_t n = uint64_t{1} << (3 * order);
  std::vector<uint32_t> prev(3), cur(3);
  HilbertDecodeND(order, 0, &prev);
  for (uint64_t d = 1; d < n; ++d) {
    HilbertDecodeND(order, d, &cur);
    int manhattan = 0;
    for (int i = 0; i < 3; ++i) {
      manhattan += std::abs(static_cast<int>(cur[i]) -
                            static_cast<int>(prev[i]));
    }
    ASSERT_EQ(manhattan, 1) << "3-D jump at d=" << d;
    prev = cur;
  }
}

TEST(HilbertNDTest, TwoDimensionalVariantIsAlsoAHilbertCurve) {
  // The n-D (Skilling) construction at d=2 is a valid Hilbert curve —
  // bijective with unit steps — even though its orientation differs
  // from the classic 2-D formulation.
  const int order = 5;
  const uint64_t n = uint64_t{1} << (2 * order);
  std::vector<bool> seen(n, false);
  std::vector<uint32_t> prev(2), cur(2);
  HilbertDecodeND(order, 0, &prev);
  for (uint64_t d = 0; d < n; ++d) {
    HilbertDecodeND(order, d, &cur);
    const uint64_t e = HilbertEncodeND(order, cur);
    ASSERT_EQ(e, d);
    ASSERT_FALSE(seen[d]);
    seen[d] = true;
    if (d > 0) {
      const int manhattan =
          std::abs(static_cast<int>(cur[0]) - static_cast<int>(prev[0])) +
          std::abs(static_cast<int>(cur[1]) - static_cast<int>(prev[1]));
      ASSERT_EQ(manhattan, 1) << "jump at d=" << d;
    }
    prev = cur;
  }
}

TEST(MortonTest, KnownInterleaving) {
  EXPECT_EQ(MortonEncode2D(0, 0), 0u);
  EXPECT_EQ(MortonEncode2D(1, 0), 1u);
  EXPECT_EQ(MortonEncode2D(0, 1), 2u);
  EXPECT_EQ(MortonEncode2D(1, 1), 3u);
  EXPECT_EQ(MortonEncode2D(2, 0), 4u);
  EXPECT_EQ(MortonEncode2D(0xFFFFFFFFu, 0), 0x5555555555555555ULL);
}

TEST(MortonTest, Roundtrip) {
  for (const uint32_t x : {0u, 1u, 255u, 65535u, 123456789u}) {
    for (const uint32_t y : {0u, 7u, 1024u, 87654321u}) {
      uint32_t rx = 0, ry = 0;
      MortonDecode2D(MortonEncode2D(x, y), &rx, &ry);
      EXPECT_EQ(rx, x);
      EXPECT_EQ(ry, y);
    }
  }
}

TEST(GrayTest, GrayBinaryInverse) {
  for (uint64_t v = 0; v < 4096; ++v) {
    EXPECT_EQ(GrayToBinary(BinaryToGray(v)), v);
  }
  EXPECT_EQ(BinaryToGray(GrayToBinary(0xABCDEF0123456789ULL)),
            0xABCDEF0123456789ULL);
}

TEST(GrayTest, ConsecutiveGrayCodesDifferInOneBit) {
  for (uint64_t v = 0; v + 1 < 4096; ++v) {
    const uint64_t diff = BinaryToGray(v) ^ BinaryToGray(v + 1);
    EXPECT_EQ(diff & (diff - 1), 0u);  // power of two
  }
}

struct CurveCase {
  CurveType type;
  int order;
};

class CurveParamTest : public ::testing::TestWithParam<CurveCase> {};

TEST_P(CurveParamTest, EncodeIsBijective) {
  const auto [type, order] = GetParam();
  const auto curve = MakeCurve(type, order);
  ASSERT_NE(curve, nullptr);
  const uint32_t side = curve->side();
  std::vector<bool> seen(curve->num_points(), false);
  for (uint32_t y = 0; y < side; ++y) {
    for (uint32_t x = 0; x < side; ++x) {
      const uint64_t d = curve->Encode(x, y);
      ASSERT_LT(d, seen.size());
      ASSERT_FALSE(seen[d]);
      seen[d] = true;
    }
  }
}

TEST_P(CurveParamTest, DecodeInvertsEncode) {
  const auto [type, order] = GetParam();
  const auto curve = MakeCurve(type, order);
  const uint32_t side = curve->side();
  for (uint32_t y = 0; y < side; ++y) {
    for (uint32_t x = 0; x < side; ++x) {
      uint32_t rx = ~0u, ry = ~0u;
      curve->Decode(curve->Encode(x, y), &rx, &ry);
      ASSERT_EQ(rx, x);
      ASSERT_EQ(ry, y);
    }
  }
}

TEST_P(CurveParamTest, EncodeUnitQuantizesAndClamps) {
  const auto [type, order] = GetParam();
  const auto curve = MakeCurve(type, order);
  EXPECT_EQ(curve->EncodeUnit(0.0, 0.0), curve->Encode(0, 0));
  const uint32_t last = curve->side() - 1;
  // 1.0 and beyond clamp to the last cell.
  EXPECT_EQ(curve->EncodeUnit(1.0, 1.0), curve->Encode(last, last));
  EXPECT_EQ(curve->EncodeUnit(5.0, -3.0), curve->Encode(last, 0));
}

INSTANTIATE_TEST_SUITE_P(
    AllCurves, CurveParamTest,
    ::testing::Values(CurveCase{CurveType::kHilbert, 3},
                      CurveCase{CurveType::kHilbert, 5},
                      CurveCase{CurveType::kZOrder, 3},
                      CurveCase{CurveType::kZOrder, 5},
                      CurveCase{CurveType::kGrayCode, 3},
                      CurveCase{CurveType::kGrayCode, 5},
                      CurveCase{CurveType::kRowMajor, 3},
                      CurveCase{CurveType::kRowMajor, 5}),
    [](const ::testing::TestParamInfo<CurveCase>& info) {
      std::string name = CurveTypeName(info.param.type);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_order" + std::to_string(info.param.order);
    });

// Measures the clustering metric of Faloutsos & Roseman [7] / Moon et
// al.: the average number of contiguous index runs ("clusters") that an
// axis-aligned query rectangle is split into along the curve. Fewer runs
// mean fewer disk seeks — the paper's stated reason for choosing Hilbert
// over Z-order and Gray-code (Section 3.1.2).
double MeanQueryClusters(const SpaceFillingCurve& curve) {
  const uint32_t side = curve.side();
  uint64_t total_runs = 0;
  uint64_t num_queries = 0;
  // All square queries of a few sizes at a coarse stride.
  for (const uint32_t q : {4u, 8u, 16u}) {
    for (uint32_t y = 0; y + q <= side; y += 3) {
      for (uint32_t x = 0; x + q <= side; x += 3) {
        std::vector<uint64_t> idx;
        idx.reserve(q * q);
        for (uint32_t dy = 0; dy < q; ++dy) {
          for (uint32_t dx = 0; dx < q; ++dx) {
            idx.push_back(curve.Encode(x + dx, y + dy));
          }
        }
        std::sort(idx.begin(), idx.end());
        uint64_t runs = 1;
        for (size_t i = 1; i < idx.size(); ++i) {
          if (idx[i] != idx[i - 1] + 1) ++runs;
        }
        total_runs += runs;
        ++num_queries;
      }
    }
  }
  return static_cast<double>(total_runs) / num_queries;
}

TEST(CurveClusteringTest, HilbertClustersBest) {
  const int order = 6;
  const double hilbert =
      MeanQueryClusters(*MakeCurve(CurveType::kHilbert, order));
  const double zorder =
      MeanQueryClusters(*MakeCurve(CurveType::kZOrder, order));
  const double gray =
      MeanQueryClusters(*MakeCurve(CurveType::kGrayCode, order));
  const double row =
      MeanQueryClusters(*MakeCurve(CurveType::kRowMajor, order));
  EXPECT_LT(hilbert, zorder);
  EXPECT_LT(hilbert, gray);
  EXPECT_LT(hilbert, row);
}

}  // namespace
}  // namespace fielddb
