// Property-based tests for CategoricalHistogram: counts and fraction
// normalization across many seeded random inputs.
#include "src/common/histogram.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rc {
namespace {

TEST(CategoricalHistogramPropertyTest, CountsAndFractionsAreConsistent) {
  Rng rng(75);
  const std::vector<std::string> keys = {"small", "medium", "large", "xlarge"};
  for (int trial = 0; trial < 20; ++trial) {
    CategoricalHistogram h;
    std::map<std::string, double> expected;
    double total = 0.0;
    int n = 1 + static_cast<int>(rng.UniformInt(0, 200));
    for (int i = 0; i < n; ++i) {
      const std::string& key =
          keys[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))];
      double w = 0.1 + rng.NextDouble();
      h.Add(key, w);
      expected[key] += w;
      total += w;
    }
    ASSERT_NEAR(h.total(), total, 1e-9);
    double frac_sum = 0.0;
    for (const auto& [key, want] : expected) {
      ASSERT_NEAR(h.count(key), want, 1e-9);
      frac_sum += h.Fraction(key);
    }
    ASSERT_NEAR(frac_sum, 1.0, 1e-9);
    EXPECT_EQ(h.count("never_added"), 0.0);
  }
}

}  // namespace
}  // namespace rc
