#include "src/obs/export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace rc::obs {
namespace {

// One instrument of each kind with fully determined values, so the
// exposition text can be matched verbatim.
void FillDemoRegistry(MetricsRegistry& reg) {
  reg.GetCounter("rc_demo_requests", {{"path", "/x"}}, "requests served").Increment(3);
  reg.GetGauge("rc_demo_queue", {}, "queue depth").Set(1.5);
  Histogram& h = reg.GetHistogram("rc_demo_latency_us", {}, "demo latency (us)");
  h.Record(0.5);  // bucket le=0.5623413252
  h.Record(5.0);  // bucket le=5.623413252
  h.Record(2e7);  // overflow
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
      "rc_demo_latency_us_bucket{le=\"0.5623413252\"} 1\n"
      "rc_demo_latency_us_bucket{le=\"5.623413252\"} 2\n"
      "rc_demo_latency_us_bucket{le=\"+Inf\"} 3\n"
      "rc_demo_latency_us_sum 20000005.5\n"
      "rc_demo_latency_us_count 3\n"
      "# TYPE rc_demo_latency_us_window_count gauge\n"
      "rc_demo_latency_us_window_count 3\n"
      "# TYPE rc_demo_latency_us_window_p50 gauge\n"
      "rc_demo_latency_us_window_p50 5.623413252\n"
      "# TYPE rc_demo_latency_us_window_p95 gauge\n"
      "rc_demo_latency_us_window_p95 10000000\n"
      "# TYPE rc_demo_latency_us_window_p99 gauge\n"
      "rc_demo_latency_us_window_p99 10000000\n";
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
      "    \"rc_demo_latency_us\": {\"type\":\"histogram\",\"count\":3,"
      "\"sum\":20000005.5,\"mean\":6666668.5,\"p50\":5.623413252,\"p95\":10000000,"
      "\"p99\":10000000,\"p999\":10000000,\"window_count\":3,"
      "\"window_p50\":5.623413252,\"window_p95\":10000000,\"window_p99\":10000000}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(JsonText(reg), expected);
}

// Label values can come from outside the process (a model name read from an
// ingested store key). A quote, backslash or newline in one must be escaped
// so it cannot end the series early or forge another series line.
TEST(PrometheusTextTest, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.GetGauge("rc_client_model_bytes", {{"model", "a\"b\\c\nd"}}).Set(1.0);
  reg.GetGauge("rc_client_model_bytes", {{"model", "x\"} 0\nrc_forged 1\n#"}}).Set(2.0);
  const std::string text = PrometheusText(reg);
  EXPECT_EQ(text,
            "# TYPE rc_client_model_bytes gauge\n"
            "rc_client_model_bytes{model=\"a\\\"b\\\\c\\nd\"} 1\n"
            "rc_client_model_bytes{model=\"x\\\"} 0\\nrc_forged 1\\n#\"} 2\n");
  EXPECT_EQ(text.find("\nrc_forged"), std::string::npos) << text;
}

// NaN and the infinities are legal sample values. Gauges hold them directly;
// a histogram's sum and mean pick them up from its samples, while its
// quantiles are bucket bounds and stay finite.
void FillNonFiniteRegistry(MetricsRegistry& reg) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  reg.GetGauge("rc_g1").Set(kNaN);
  reg.GetGauge("rc_g2").Set(kInf);
  reg.GetGauge("rc_g3").Set(-kInf);
  reg.GetHistogram("rc_h1").Record(kNaN);
  reg.GetHistogram("rc_h2").Record(kInf);
  reg.GetHistogram("rc_h3").Record(-kInf);
}

// The Prometheus text format spells non-finite values NaN, +Inf and -Inf;
// every other sample value must be a finite number.
TEST(PrometheusTextTest, NonFiniteValuesUsePrometheusSpelling) {
  MetricsRegistry reg;
  FillNonFiniteRegistry(reg);
  const std::string text = PrometheusText(reg);
  for (const char* line : {"rc_g1 NaN\n", "rc_g2 +Inf\n", "rc_g3 -Inf\n", "rc_h1_sum NaN\n",
                           "rc_h2_sum +Inf\n", "rc_h3_sum -Inf\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << " missing from\n" << text;
  }
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.starts_with("#")) continue;
    const std::string value = line.substr(line.rfind(' ') + 1);
    if (value == "NaN" || value == "+Inf" || value == "-Inf") continue;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    EXPECT_TRUE(*end == '\0' && std::isfinite(v)) << line;
  }
}

// JSON has no NaN or infinity: /varz and the JSON snapshot write null.
TEST(JsonTextTest, NonFiniteValuesRenderAsNull) {
  MetricsRegistry reg;
  FillNonFiniteRegistry(reg);
  const std::string text = JsonText(reg);
  for (const char* entry : {"\"rc_g1\": {\"type\":\"gauge\",\"value\":null}",
                            "\"rc_g2\": {\"type\":\"gauge\",\"value\":null}",
                            "\"rc_g3\": {\"type\":\"gauge\",\"value\":null}",
                            "\"rc_h1\": {\"type\":\"histogram\",\"count\":1,\"sum\":null,"
                            "\"mean\":null,\"p50\":0.1,",
                            "\"rc_h2\": {\"type\":\"histogram\",\"count\":1,\"sum\":null,"
                            "\"mean\":null,\"p50\":10000000,",
                            "\"rc_h3\": {\"type\":\"histogram\",\"count\":1,\"sum\":null,"
                            "\"mean\":null,\"p50\":0.1,"}) {
    EXPECT_NE(text.find(entry), std::string::npos) << entry << " missing from\n" << text;
  }
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
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

TEST_F(TempFileTest, MergeFailsOnUnwritablePath) {
  MetricsRegistry reg;
  reg.GetCounter("rc_x_total").Increment(1);
  EXPECT_FALSE(MergeJsonMetricsFile("/nonexistent-dir-xyz/file", reg));
  ASSERT_TRUE(MergeJsonMetricsFile(path_, reg));
  EXPECT_EQ(ReadFile(), JsonText(reg));
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

// A null written for a non-finite value must survive the re-parse of the
// next merge.
TEST_F(TempFileTest, MergeKeepsNonFiniteValuesAsNull) {
  MetricsRegistry first;
  FillNonFiniteRegistry(first);
  ASSERT_TRUE(MergeJsonMetricsFile(path_, first));
  MetricsRegistry second;
  second.GetCounter("rc_x_total").Increment(1);
  ASSERT_TRUE(MergeJsonMetricsFile(path_, second));
  const std::string text = ReadFile();
  EXPECT_NE(text.find("\"rc_g1\": {\"type\":\"gauge\",\"value\":null}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"rc_x_total\": {\"type\":\"counter\",\"value\":1}"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

TEST_F(TempFileTest, MergeOverwritesUnparseableFile) {
  std::ofstream(path_) << "not json at all";
  MetricsRegistry reg;
  reg.GetCounter("rc_x_total").Increment(2);
  ASSERT_TRUE(MergeJsonMetricsFile(path_, reg));
  EXPECT_NE(ReadFile().find("\"rc_x_total\""), std::string::npos);
}

}  // namespace
}  // namespace rc::obs
