#include "obs/report.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "temp_dir.h"

namespace fielddb {
namespace {

TEST(BenchReportTest, GatesRecordWhetherTheirConditionHolds) {
  BenchReport report("test", "gates");
  EXPECT_TRUE(report.Invariant("eq", 0, GateOp::kEq, 0));
  EXPECT_FALSE(report.Invariant("lt", 1, GateOp::kLt, 1));
  EXPECT_TRUE(report.Timing("le", 1, GateOp::kLe, 1));
  EXPECT_FALSE(report.Timing("gt", 1, GateOp::kGt, 2));
  EXPECT_TRUE(report.Invariant("ge", 2, GateOp::kGe, 2));
  ASSERT_EQ(report.gates().size(), 5u);
  EXPECT_FALSE(report.gates()[1].ok);
  EXPECT_EQ(report.gates()[3].kind, GateKind::kTiming);
}

TEST(BenchReportTest, JsonHasTheOneShape) {
  BenchReport report("test", "shape \"quoted\"");
  report.Config("method", "I-Hilbert");
  report.Config("cells", uint64_t{262144});
  report.Config("quick", true);
  report.AddPoint().Label("threads", 4).Metric("qps", 12.5);
  report.Timing("speedup", 1.2, GateOp::kGe, 1.5);
  EXPECT_EQ(report.ToJson(),
            "{\"bench_id\": \"test\",\n"
            " \"title\": \"shape \\\"quoted\\\"\",\n"
            " \"config\": {\"method\": \"I-Hilbert\", \"cells\": 262144, "
            "\"quick\": true},\n"
            " \"points\": [\n"
            "  {\"labels\": {\"threads\": 4}, \"metrics\": {\"qps\": 12.5}}],\n"
            " \"gates\": [\n"
            "  {\"name\": \"speedup\", \"kind\": \"timing\", \"observed\": "
            "1.2, \"op\": \">=\", \"target\": 1.5, \"ok\": false}]}\n");
}

TEST(BenchReportTest, NonFiniteMetricRendersAsNull) {
  BenchReport report("test", "nan");
  report.AddPoint().Metric("ratio", std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(report.ToJson().find("\"ratio\": null"), std::string::npos);
}

TEST(BenchReportTest, FinishFailsOnAFailedInvariantOnly) {
  const std::string path = TestTempDir() + "/report_test.json";
  BenchReport timing_only("test", "timing");
  timing_only.Timing("speedup", 1.0, GateOp::kGe, 2.0);
  EXPECT_EQ(timing_only.Finish(path), 0);
  std::ifstream in(path);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), timing_only.ToJson());

  BenchReport invariant("test", "invariant");
  invariant.Invariant("mismatches", 1, GateOp::kEq, 0);
  EXPECT_EQ(invariant.Finish(path), 1);
  std::remove(path.c_str());
}

TEST(BenchReportTest, WriteToAFullDiskFails) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  BenchReport report("test", "full disk");
  report.AddPoint().Metric("x", 1);
  EXPECT_FALSE(report.WriteJson("/dev/full").ok());
  EXPECT_EQ(report.Finish("/dev/full"), 1);
}

}  // namespace
}  // namespace fielddb
