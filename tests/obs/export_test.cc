#include "src/obs/export.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace rc::obs {
namespace {

// One instrument of each kind with fully determined values, so the
// exposition text can be matched verbatim.
void FillDemoRegistry(MetricsRegistry& reg) {
  reg.GetCounter("rc_demo_requests", {{"path", "/x"}}, "requests served").Increment(3);
  reg.GetGauge("rc_demo_queue", {}, "queue depth").Set(1.5);
  HistogramOptions opts;
  opts.min = 1.0;
  opts.max = 100.0;
  opts.buckets_per_decade = 1;
  Histogram& h = reg.GetHistogram("rc_demo_latency_us", opts, {}, "demo latency (us)");
  h.Record(0.5);     // bucket le=1
  h.Record(5.0);     // bucket le=10
  h.Record(1000.0);  // overflow
}

TEST(PrometheusTextTest, GoldenExposition) {
  MetricsRegistry reg;
  FillDemoRegistry(reg);
  const std::string expected =
      "# HELP rc_demo_requests requests served\n"
      "# TYPE rc_demo_requests counter\n"
      "rc_demo_requests{path=\"/x\"} 3\n"
      "# HELP rc_demo_queue queue depth\n"
      "# TYPE rc_demo_queue gauge\n"
      "rc_demo_queue 1.5\n"
      "# HELP rc_demo_latency_us demo latency (us)\n"
      "# TYPE rc_demo_latency_us histogram\n"
      "rc_demo_latency_us_bucket{le=\"1\"} 1\n"
      "rc_demo_latency_us_bucket{le=\"10\"} 2\n"
      "rc_demo_latency_us_bucket{le=\"+Inf\"} 3\n"
      "rc_demo_latency_us_sum 1005.5\n"
      "rc_demo_latency_us_count 3\n"
      "# TYPE rc_demo_latency_us_window_count gauge\n"
      "rc_demo_latency_us_window_count 3\n"
      "# TYPE rc_demo_latency_us_window_p50 gauge\n"
      "rc_demo_latency_us_window_p50 10\n"
      "# TYPE rc_demo_latency_us_window_p95 gauge\n"
      "rc_demo_latency_us_window_p95 100\n"
      "# TYPE rc_demo_latency_us_window_p99 gauge\n"
      "rc_demo_latency_us_window_p99 100\n";
  EXPECT_EQ(PrometheusText(reg), expected);
}

TEST(JsonTextTest, GoldenSnapshot) {
  MetricsRegistry reg;
  FillDemoRegistry(reg);
  const std::string expected =
      "{\n"
      "  \"metrics\": {\n"
      "    \"rc_demo_requests{path=\\\"/x\\\"}\": {\"type\":\"counter\",\"value\":3},\n"
      "    \"rc_demo_queue\": {\"type\":\"gauge\",\"value\":1.5},\n"
      "    \"rc_demo_latency_us\": {\"type\":\"histogram\",\"count\":3,\"sum\":1005.5,"
      "\"mean\":335.1666667,\"p50\":10,\"p95\":100,\"p99\":100,\"p999\":100,"
      "\"window_count\":3,\"window_p50\":10,\"window_p95\":100,\"window_p99\":100}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(JsonText(reg), expected);
}

TEST(JsonTextTest, EmptyRegistryRendersEmptyObject) {
  MetricsRegistry reg;
  EXPECT_EQ(JsonText(reg), "{\n  \"metrics\": {}\n}\n");
}

class TempFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test case: ctest runs the cases concurrently.
    path_ = ::testing::TempDir() + "rc_obs_export_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string ReadFile() const {
    std::ifstream in(path_);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string path_;
};

TEST_F(TempFileTest, WriteTextFileRoundTrips) {
  ASSERT_TRUE(WriteTextFile(path_, "hello\n"));
  EXPECT_EQ(ReadFile(), "hello\n");
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir-xyz/file", "x"));
}

TEST_F(TempFileTest, MergePreservesOtherSeriesAndUpdatesOwn) {
  MetricsRegistry first;
  first.GetCounter("rc_x_total").Increment(1);
  first.GetGauge("rc_keep").Set(5.0);
  ASSERT_TRUE(MergeJsonMetricsFile(path_, first));

  MetricsRegistry second;
  second.GetCounter("rc_x_total").Increment(7);
  ASSERT_TRUE(MergeJsonMetricsFile(path_, second));

  std::string text = ReadFile();
  // rc_x_total overwritten by the second registry; rc_keep untouched.
  EXPECT_NE(text.find("\"rc_x_total\": {\"type\":\"counter\",\"value\":7}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"rc_keep\": {\"type\":\"gauge\",\"value\":5}"), std::string::npos)
      << text;
}

TEST_F(TempFileTest, MergeOverwritesUnparseableFile) {
  ASSERT_TRUE(WriteTextFile(path_, "not json at all"));
  MetricsRegistry reg;
  reg.GetCounter("rc_x_total").Increment(2);
  ASSERT_TRUE(MergeJsonMetricsFile(path_, reg));
  EXPECT_NE(ReadFile().find("\"rc_x_total\""), std::string::npos);
}

TEST_F(TempFileTest, PeriodicDumperWritesFinalSnapshotOnStop) {
  MetricsRegistry reg;
  reg.GetCounter("rc_dumped_total").Increment(9);
  {
    PeriodicDumper dumper(reg, path_, PeriodicDumper::Format::kPrometheus,
                          std::chrono::milliseconds(60000));
    // Destructor stops the thread and writes a final snapshot even though
    // the interval never elapsed.
  }
  std::string text = ReadFile();
  EXPECT_NE(text.find("rc_dumped_total 9"), std::string::npos) << text;
}

}  // namespace
}  // namespace rc::obs
