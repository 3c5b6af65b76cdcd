// Unit coverage for the bounded-memory external merge sorter
// (core/ext_sort.h): ordering, stable tie-breaks, spill telemetry, and
// the byte-identity between budgeted and unlimited runs that the
// extension builds rely on.

#include "core/ext_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fielddb {
namespace {

struct Payload {
  uint64_t id = 0;
  double value = 0.0;
};

using Emitted = std::vector<std::pair<uint64_t, uint64_t>>;  // (key, id)

Emitted Drain(ExternalKeyRecordSorter<Payload>* sorter) {
  Emitted out;
  const Status s =
      sorter->Merge([&](uint64_t key, const Payload& p) -> Status {
        out.emplace_back(key, p.id);
        return Status::OK();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(ExtSortTest, EmptySorterEmitsNothing) {
  ExternalKeyRecordSorter<Payload> sorter(0);
  EXPECT_TRUE(Drain(&sorter).empty());
  EXPECT_EQ(sorter.spill_runs(), 0u);
}

TEST(ExtSortTest, UnlimitedBudgetSortsByKey) {
  ExternalKeyRecordSorter<Payload> sorter(0);
  const uint64_t keys[] = {9, 2, 7, 2, 0, 9, 5};
  for (uint64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(sorter.Add(keys[i], Payload{i, 0.0}).ok());
  }
  const Emitted out = Drain(&sorter);
  ASSERT_EQ(out.size(), 7u);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].first, out[i].first);
  }
  // Equal keys keep insertion order (stable tie-break by sequence).
  EXPECT_EQ(out[1], (std::pair<uint64_t, uint64_t>{2, 1}));
  EXPECT_EQ(out[2], (std::pair<uint64_t, uint64_t>{2, 3}));
  EXPECT_EQ(out[5], (std::pair<uint64_t, uint64_t>{9, 0}));
  EXPECT_EQ(out[6], (std::pair<uint64_t, uint64_t>{9, 5}));
  EXPECT_EQ(sorter.spill_runs(), 0u);
  EXPECT_EQ(sorter.spilled_records(), 0u);
}

TEST(ExtSortTest, TinyBudgetSpillsAndMatchesUnlimited) {
  constexpr size_t kEntries = 2000;
  Rng rng(42);
  std::vector<std::pair<uint64_t, Payload>> input;
  input.reserve(kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    // Narrow key space forces many cross-run ties.
    input.push_back({rng.NextU64() % 97, Payload{i, rng.NextDouble()}});
  }

  ExternalKeyRecordSorter<Payload> unlimited(0);
  using Sorter = ExternalKeyRecordSorter<Payload>;
  Sorter budgeted(32 * sizeof(Sorter::Entry));
  for (const auto& [key, payload] : input) {
    ASSERT_TRUE(unlimited.Add(key, payload).ok());
    ASSERT_TRUE(budgeted.Add(key, payload).ok());
  }
  const Emitted expected = Drain(&unlimited);
  const Emitted actual = Drain(&budgeted);
  EXPECT_EQ(actual, expected);

  EXPECT_GT(budgeted.spill_runs(), 1u);
  EXPECT_GT(budgeted.spilled_records(), 0u);
  EXPECT_LE(budgeted.peak_buffered_bytes(), 32 * sizeof(Sorter::Entry));
  EXPECT_EQ(unlimited.spill_runs(), 0u);
  // The buffer and the radix sort's scratch copy of it.
  EXPECT_EQ(unlimited.peak_buffered_bytes(),
            2 * kEntries * sizeof(Sorter::Entry));
}

/// The radix path's oracle: std::sort over (key, insertion order).
Emitted ComparisonSorted(const std::vector<uint64_t>& keys) {
  Emitted expected;
  for (uint64_t i = 0; i < keys.size(); ++i) expected.emplace_back(keys[i], i);
  std::sort(expected.begin(), expected.end());
  return expected;
}

TEST(ExtSortTest, RadixSortEqualsComparisonSortAtEveryBudget) {
  using Sorter = ExternalKeyRecordSorter<Payload>;
  Rng rng(7);
  // Heavy ties in a narrow key space, keys spread over every byte, and
  // keys that differ only in their top byte.
  const std::vector<std::vector<uint64_t>> inputs = [&] {
    std::vector<std::vector<uint64_t>> out(3);
    for (int i = 0; i < 5000; ++i) {
      out[0].push_back(rng.NextU64() % 13);
      out[1].push_back(rng.NextU64());
      out[2].push_back((rng.NextU64() % 4) << 56 | 0x55);
    }
    return out;
  }();
  for (const std::vector<uint64_t>& keys : inputs) {
    const Emitted expected = ComparisonSorted(keys);
    for (const size_t budget :
         {size_t{0}, 64 * sizeof(Sorter::Entry),
          1000 * sizeof(Sorter::Entry)}) {
      SCOPED_TRACE(budget);
      Sorter sorter(budget);
      for (uint64_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(sorter.Add(keys[i], Payload{i, 0.0}).ok());
      }
      EXPECT_EQ(Drain(&sorter), expected);
      if (budget > 0) {
        EXPECT_GT(sorter.spill_runs(), 1u);
        // Scratch included.
        EXPECT_LE(sorter.peak_buffered_bytes(), budget);
      }
    }
  }
}

TEST(ExtSortTest, RadixSortByKeyIsStable) {
  Rng rng(11);
  std::vector<std::pair<uint64_t, uint32_t>> items;
  for (uint32_t i = 0; i < 3000; ++i) {
    const uint64_t key = i % 3 == 0 ? rng.NextU64() : rng.NextU64() % 7;
    items.emplace_back(key, i);
  }
  std::vector<std::pair<uint64_t, uint32_t>> expected = items;
  std::sort(expected.begin(), expected.end());
  std::vector<std::pair<uint64_t, uint32_t>> scratch(items.size());
  RadixSortByKey(std::span(items), std::span(scratch),
                 [](const auto& item) { return item.first; });
  EXPECT_EQ(items, expected);
}

TEST(ExtSortTest, EmitErrorAbortsMerge) {
  ExternalKeyRecordSorter<Payload> sorter(0);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(sorter.Add(i, Payload{i, 0.0}).ok());
  }
  int calls = 0;
  const Status s = sorter.Merge([&](uint64_t, const Payload&) -> Status {
    if (++calls == 3) return Status::Internal("downstream full");
    return Status::OK();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 3);
}

TEST(ExtSortTest, SpilledMergePreservesRecordBytes) {
  using Sorter = ExternalKeyRecordSorter<Payload>;
  Sorter sorter(8 * sizeof(Sorter::Entry));
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(sorter.Add(100 - i, Payload{i, i * 0.25}).ok());
  }
  uint64_t count = 0;
  ASSERT_TRUE(sorter
                  .Merge([&](uint64_t key, const Payload& p) -> Status {
                    EXPECT_EQ(key, 100 - p.id);
                    EXPECT_DOUBLE_EQ(p.value, p.id * 0.25);
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 100u);
  EXPECT_GT(sorter.spill_runs(), 0u);
}

}  // namespace
}  // namespace fielddb
