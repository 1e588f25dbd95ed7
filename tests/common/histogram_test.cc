#include "src/common/histogram.h"

#include <gtest/gtest.h>

namespace rc {
namespace {

TEST(CategoricalHistogramTest, CountsAndFractions) {
  CategoricalHistogram h;
  h.Add("a");
  h.Add("a", 2.0);
  h.Add("b");
  EXPECT_DOUBLE_EQ(h.count("a"), 3.0);
  EXPECT_DOUBLE_EQ(h.count("b"), 1.0);
  EXPECT_DOUBLE_EQ(h.count("missing"), 0.0);
  EXPECT_DOUBLE_EQ(h.Fraction("a"), 0.75);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(CategoricalHistogramTest, EmptyFractionIsZero) {
  CategoricalHistogram h;
  EXPECT_DOUBLE_EQ(h.Fraction("x"), 0.0);
}

}  // namespace
}  // namespace rc
