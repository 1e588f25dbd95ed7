// Pins the default histogram layout and its exposition: the 65 finite
// bucket bounds (0.1 us to 10 s, 8 per decade) and a golden Prometheus and
// JSON rendering of one histogram, including the sliding-window companions.
// Dashboards and rcbench read these bounds, so any change here is a change
// to the wire format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/metrics.h"

namespace rc::obs {
namespace {

TEST(DefaultLayoutTest, SixtyFiveLogSpacedBounds) {
  Histogram h;
  const std::vector<double>& bounds = h.bounds();
  ASSERT_EQ(bounds.size(), 65u);
  std::string rendered;
  for (size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], 0.1 * std::pow(10.0, static_cast<double>(i) / 8.0)) << i;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.10g", i == 0 ? "" : ",", bounds[i]);
    rendered += buf;
  }
  EXPECT_EQ(rendered,
            "0.1,0.1333521432,0.177827941,0.2371373706,0.316227766,0.4216965034,"
            "0.5623413252,0.7498942093,1,1.333521432,1.77827941,2.371373706,3.16227766,"
            "4.216965034,5.623413252,7.498942093,10,13.33521432,17.7827941,23.71373706,"
            "31.6227766,42.16965034,56.23413252,74.98942093,100,133.3521432,177.827941,"
            "237.1373706,316.227766,421.6965034,562.3413252,749.8942093,1000,1333.521432,"
            "1778.27941,2371.373706,3162.27766,4216.965034,5623.413252,7498.942093,10000,"
            "13335.21432,17782.7941,23713.73706,31622.7766,42169.65034,56234.13252,"
            "74989.42093,100000,133352.1432,177827.941,237137.3706,316227.766,421696.5034,"
            "562341.3252,749894.2093,1000000,1333521.432,1778279.41,2371373.706,3162277.66,"
            "4216965.034,5623413.252,7498942.093,10000000");
  EXPECT_EQ(h.TakeSnapshot().buckets.size(), 66u);  // plus overflow
}

// Four samples: one at the bottom bound, one on a decade bound, one inside a
// bucket and one in the overflow bucket. All are recorded now, so the window
// (one minute) holds them when Collect() runs.
void FillPinnedHistogram(MetricsRegistry& reg) {
  Histogram& h = reg.GetHistogram("rc_pin_latency_us");
  h.Record(0.05);   // le=0.1
  h.Record(1.0);    // le=1
  h.Record(250.0);  // le=316.227766
  h.Record(2e7);    // overflow
}

TEST(DefaultLayoutTest, GoldenPrometheusExposition) {
  MetricsRegistry reg;
  FillPinnedHistogram(reg);
  const std::string expected =
      "# TYPE rc_pin_latency_us histogram\n"
      "rc_pin_latency_us_bucket{le=\"0.1\"} 1\n"
      "rc_pin_latency_us_bucket{le=\"1\"} 2\n"
      "rc_pin_latency_us_bucket{le=\"316.227766\"} 3\n"
      "rc_pin_latency_us_bucket{le=\"+Inf\"} 4\n"
      "rc_pin_latency_us_sum 20000251.05\n"
      "rc_pin_latency_us_count 4\n"
      "# TYPE rc_pin_latency_us_window_count gauge\n"
      "rc_pin_latency_us_window_count 4\n"
      "# TYPE rc_pin_latency_us_window_p50 gauge\n"
      "rc_pin_latency_us_window_p50 1\n"
      "# TYPE rc_pin_latency_us_window_p95 gauge\n"
      "rc_pin_latency_us_window_p95 10000000\n"
      "# TYPE rc_pin_latency_us_window_p99 gauge\n"
      "rc_pin_latency_us_window_p99 10000000\n";
  EXPECT_EQ(PrometheusText(reg), expected);
}

TEST(DefaultLayoutTest, GoldenJsonSnapshot) {
  MetricsRegistry reg;
  FillPinnedHistogram(reg);
  const std::string expected =
      "{\n"
      "  \"metrics\": {\n"
      "    \"rc_pin_latency_us\": {\"type\":\"histogram\",\"count\":4,"
      "\"sum\":20000251.05,\"mean\":5000062.763,\"p50\":1,\"p95\":10000000,"
      "\"p99\":10000000,\"p999\":10000000,\"window_count\":4,\"window_p50\":1,"
      "\"window_p95\":10000000,\"window_p99\":10000000}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(JsonText(reg), expected);
}

}  // namespace
}  // namespace rc::obs
