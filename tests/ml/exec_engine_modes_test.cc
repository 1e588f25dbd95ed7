// Mode-dispatch and AVX2 suites for ExecEngine.
//
//  * kScalar vs kAvx2 must be EXACTLY equal (EXPECT_EQ on doubles) for every
//    batch size around the SIMD block boundaries and for NaN / infinity /
//    denormal inputs — the AVX2 kernel only selects leaves, it performs no
//    arithmetic, so any drift is a kernel bug, not rounding.
//
// Suites are named ExecEngine* so tools/check_all.sh's --gtest_filter
// ('ExecEngine*') and the sanitizer scripts pick them up automatically.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/ml/exec_engine.h"
#include "src/ml/gbt.h"
#include "src/ml/random_forest.h"

namespace rc::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

Dataset RandomDataset(size_t rows, size_t features, int classes, Rng& rng) {
  std::vector<std::string> names;
  for (size_t f = 0; f < features; ++f) names.push_back("f" + std::to_string(f));
  Dataset data(std::move(names));
  std::vector<double> row(features);
  for (size_t i = 0; i < rows; ++i) {
    double signal = 0.0;
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Uniform(-5.0, 5.0);
      if (f % 3 == 0) signal += row[f];
    }
    int label = static_cast<int>(std::fmod(std::fabs(signal), classes));
    if (rng.Bernoulli(0.1)) label = static_cast<int>(rng.UniformInt(0, classes - 1));
    data.AddRow(row, label);
  }
  for (int c = 0; c < classes; ++c) {
    for (size_t f = 0; f < features; ++f) row[f] = static_cast<double>(c);
    data.AddRow(row, c);
  }
  return data;
}

// Row-major batch with adversarial rows mixed in: every fourth row is all
// NaN / +inf / -inf / denormal so SIMD blocks contain special lanes next to
// ordinary ones, not just whole-batch specials.
std::vector<double> AdversarialBatch(size_t n, size_t stride, size_t features,
                                     Rng& rng) {
  std::vector<double> X(n * stride, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double* row = X.data() + i * stride;
    switch (i % 8) {
      case 3:
        for (size_t f = 0; f < features; ++f) row[f] = kNaN;
        break;
      case 5:
        for (size_t f = 0; f < features; ++f) row[f] = (f % 2) ? kInf : -kInf;
        break;
      case 7:
        for (size_t f = 0; f < features; ++f) row[f] = (f % 2) ? kDenorm : -kDenorm;
        break;
      default:
        for (size_t f = 0; f < features; ++f) row[f] = rng.Uniform(-6.0, 6.0);
    }
  }
  return X;
}

TEST(ExecEngineModesTest, ModeNames) {
  using Mode = ExecEngine::Mode;
  EXPECT_STREQ(ExecEngine::ModeName(Mode::kAuto), "auto");
  EXPECT_STREQ(ExecEngine::ModeName(Mode::kScalar), "scalar");
  EXPECT_STREQ(ExecEngine::ModeName(Mode::kAvx2), "avx2");
}

TEST(ExecEngineModesTest, ResolveHonoursHostAndModel) {
  using Mode = ExecEngine::Mode;
  Rng rng(11);
  Dataset data = RandomDataset(300, 6, 2, rng);
  RandomForestConfig config;
  config.num_trees = 4;
  RandomForest forest = RandomForest::Fit(data, config);
  const ExecEngine& engine = *forest.engine();

  const Mode fastest_exact =
      ExecEngine::Avx2Available() ? Mode::kAvx2 : Mode::kScalar;
  EXPECT_EQ(engine.Resolve(Mode::kAuto), fastest_exact);
  EXPECT_EQ(engine.Resolve(Mode::kScalar), Mode::kScalar);
  EXPECT_EQ(engine.Resolve(Mode::kAvx2), fastest_exact);
}

// Scalar and AVX2 walks must agree bit-for-bit at every batch size spanning
// the 32-row SIMD block, the 16-lane half block, and ragged tails on both
// sides — with special-value rows landing inside full SIMD blocks. When the
// host has no AVX2 kernel, kAvx2 resolves to kScalar and the test still
// (trivially) holds, so it runs everywhere.
TEST(ExecEngineModesTest, Avx2BitExactAcrossBlockBoundaries) {
  Rng rng(22);
  const size_t features = 19;
  Dataset data = RandomDataset(700, features, 3, rng);
  RandomForestConfig rf_config;
  rf_config.num_trees = 9;
  rf_config.tree.max_depth = 9;
  RandomForest forest = RandomForest::Fit(data, rf_config);
  GbtConfig gbt_config;
  gbt_config.num_rounds = 7;
  gbt_config.tree.max_depth = 5;
  GradientBoostedTrees gbt = GradientBoostedTrees::Fit(data, gbt_config);

  for (const Classifier* model : {static_cast<const Classifier*>(&forest),
                                  static_cast<const Classifier*>(&gbt)}) {
    const ExecEngine& engine = *model->engine();
    const size_t k = static_cast<size_t>(model->num_classes());
    for (size_t n : {size_t{1}, size_t{8}, size_t{15}, size_t{16}, size_t{17},
                     size_t{31}, size_t{32}, size_t{33}, size_t{48}, size_t{64},
                     size_t{65}, size_t{100}}) {
      for (size_t stride : {features, features + 5}) {
        std::vector<double> X = AdversarialBatch(n, stride, features, rng);
        std::vector<double> scalar_out(n * k), avx2_out(n * k, -1.0);
        engine.PredictBatch(X.data(), n, stride, scalar_out.data(),
                            ExecEngine::Mode::kScalar);
        engine.PredictBatch(X.data(), n, stride, avx2_out.data(),
                            ExecEngine::Mode::kAvx2);
        for (size_t i = 0; i < n * k; ++i) {
          // EXPECT_EQ, not NEAR: zero ULP of tolerance.
          EXPECT_EQ(scalar_out[i], avx2_out[i])
              << model->type_name() << " n=" << n << " stride=" << stride
              << " slot=" << i;
        }
      }
    }
  }
}

TEST(ExecEngineModesTest, BytesAccountsForEveryPoolArray) {
  Rng rng(66);
  Dataset data = RandomDataset(500, 10, 3, rng);
  RandomForestConfig config;
  config.num_trees = 5;
  config.tree.max_depth = 7;
  RandomForest forest = RandomForest::Fit(data, config);
  const ExecEngine& engine = *forest.engine();
  // Per internal node: i32 feature + f64 threshold + packed i64 child pair;
  // per forest leaf: num_classes() f32 probabilities.
  const size_t expected =
      engine.internal_node_count() * (sizeof(int32_t) + sizeof(double) + sizeof(int64_t)) +
      engine.leaf_payload_count() * static_cast<size_t>(engine.num_classes()) *
          sizeof(float);
  EXPECT_EQ(engine.bytes(), expected);
}

}  // namespace
}  // namespace rc::ml
