// Crash-loop convergence (randomized, deterministic seed): many cycles
// of mutate -> kill at a random pipeline point -> power cut -> reopen.
// Invariant proved per cycle: with wal_mode=fsync_on_commit, every
// acknowledged update is present after recovery — across any number of
// consecutive crashes — and the database always opens cleanly.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/field_database.h"
#include "gen/monotonic.h"
#include "storage/wal.h"
#include "query_util.h"
#include "temp_dir.h"

namespace fielddb {
namespace {

constexpr int kCycles = 20;
constexpr int kUpdatesPerCycle = 5;
constexpr uint32_t kGrid = 8;  // 64 cells

class CrashLoopTest : public ::testing::TestWithParam<IndexMethod> {
 protected:
  void SetUp() override {
    prefix_ = TestTempDir() + "/fielddb_crash_loop_" +
              std::to_string(static_cast<int>(GetParam()));
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const char* suffix :
         {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }
  std::string prefix_;
};

TEST_P(CrashLoopTest, AckedUpdatesConvergeThroughRepeatedCrashes) {
  auto field = MakeMonotonicField(kGrid, kGrid);
  ASSERT_TRUE(field.ok());
  {
    FieldDatabaseOptions options;
    options.method = GetParam();
    auto db = FieldDatabase::Build(*field, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Save(prefix_).ok());
  }

  // Shadow of every acknowledged update: cell -> the distinct marker
  // value its corners were last set to. Marker values are unique per
  // update, all above the field's native range.
  std::map<CellId, double> acked;
  int update_serial = 0;
  Rng rng(20260807);

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    SCOPED_TRACE(cycle);
    FieldDatabase::RecoveryReport report;
    FieldDatabase::OpenOptions options;
    options.wal_mode = WalMode::kFsyncOnCommit;
    options.recovery_report = &report;
    auto opened = FieldDatabase::Open(prefix_, options);
    ASSERT_TRUE(opened.ok()) << "cycle " << cycle << ": "
                             << opened.status().ToString();
    FieldDatabase* db = opened->get();

    // Recovery must have restored every acknowledged update: each
    // marker band holds exactly its one cell, and the count of cells
    // above the native range equals the shadow's size.
    for (const auto& [cell, value] : acked) {
      ValueQueryResult result;
      ASSERT_TRUE(
          QueryOne(*db, ValueInterval{value - 0.5, value + 0.5}, &result).ok());
      EXPECT_EQ(result.stats.answer_cells, 1u)
          << "lost acked update of cell " << cell << " (value " << value
          << ")";
    }
    ValueQueryResult all_updated;
    ASSERT_TRUE(
        QueryOne(*db, ValueInterval{999.0, 1e18}, &all_updated).ok());
    EXPECT_EQ(all_updated.stats.answer_cells, acked.size());

    // Arm one random fault for this cycle, then mutate until the fault
    // fires (first failed update => immediate "process death") or the
    // cycle's quota is done, then cut the power.
    const uint64_t fault_kind = rng.NextBounded(4);
    switch (fault_kind) {
      case 0:  // clean cycle: no fault, crash after the last ack
        break;
      case 1:
        db->wal()->ArmAppendErrorForTest(
            static_cast<int>(rng.NextBounded(kUpdatesPerCycle)));
        break;
      case 2:
        db->wal()->ArmShortAppendForTest(
            static_cast<int>(rng.NextBounded(kUpdatesPerCycle)),
            static_cast<uint32_t>(rng.NextBounded(68)));
        break;
      case 3:
        db->wal()->ArmSyncErrorForTest(1);
        break;
    }
    for (int i = 0; i < kUpdatesPerCycle; ++i) {
      const CellId cell =
          static_cast<CellId>(rng.NextBounded(kGrid * kGrid));
      const double value = 1000.0 + 2.0 * update_serial++;
      const std::vector<double> values(4, value);
      if (db->UpdateCellValues(cell, values).ok()) {
        acked[cell] = value;
      } else {
        break;  // not acknowledged; the "process" dies here
      }
    }
    ASSERT_TRUE(db->SimulateCrashForTest().ok());
  }

  // Final convergence check after the last crash.
  FieldDatabase::OpenOptions options;
  options.wal_mode = WalMode::kFsyncOnCommit;
  auto final_db = FieldDatabase::Open(prefix_, options);
  ASSERT_TRUE(final_db.ok());
  for (const auto& [cell, value] : acked) {
    ValueQueryResult result;
    ASSERT_TRUE(QueryOne(**final_db, ValueInterval{value - 0.5, value + 0.5},
                         &result)
                    .ok());
    EXPECT_EQ(result.stats.answer_cells, 1u) << "cell " << cell;
  }
  EXPECT_GT(acked.size(), 0u);  // the loop really exercised updates
}

INSTANTIATE_TEST_SUITE_P(
    AllPersistableMethods, CrashLoopTest,
    ::testing::Values(IndexMethod::kLinearScan, IndexMethod::kIAll,
                      IndexMethod::kIHilbert,
                      IndexMethod::kIntervalQuadtree),
    [](const ::testing::TestParamInfo<IndexMethod>& info) {
      std::string name = IndexMethodName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace fielddb
