// Linear-model tests: linear algebra kernels, standardization, OLS against
// closed-form expectations, logistic regression on separable data, and the
// feature encoding of sweep samples.

#include <gtest/gtest.h>

#include <cmath>

#include "ml/features.hpp"
#include "ml/linalg.hpp"
#include "ml/logistic_regression.hpp"
#include "ml/scaler.hpp"
#include "util/rng.hpp"

namespace omptune::ml {
namespace {

TEST(Linalg, SolveKnownSystem) {
  Matrix m(2, 2);
  m.at(0, 0) = 2;
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 3;
  const auto x = solve_linear_system(m, {5, 10});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linalg, SolveRequiresPivoting) {
  Matrix m(2, 2);
  m.at(0, 0) = 0;  // zero pivot without row exchange
  m.at(0, 1) = 1;
  m.at(1, 0) = 1;
  m.at(1, 1) = 0;
  const auto x = solve_linear_system(m, {2, 3});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Linalg, SingularSystemThrows) {
  Matrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(1, 1) = 4;
  EXPECT_THROW(solve_linear_system(m, {1, 2}), std::runtime_error);
}

TEST(Linalg, GramAndTransposeTimes) {
  Matrix a(3, 2);
  // [[1,2],[3,4],[5,6]]
  a.at(0, 0) = 1; a.at(0, 1) = 2;
  a.at(1, 0) = 3; a.at(1, 1) = 4;
  a.at(2, 0) = 5; a.at(2, 1) = 6;
  const Matrix g = a.gram();
  EXPECT_DOUBLE_EQ(g.at(0, 0), 35.0);
  EXPECT_DOUBLE_EQ(g.at(0, 1), 44.0);
  EXPECT_DOUBLE_EQ(g.at(1, 0), 44.0);
  EXPECT_DOUBLE_EQ(g.at(1, 1), 56.0);
  const auto v = a.transpose_times({1, 1, 1});
  EXPECT_DOUBLE_EQ(v[0], 9.0);
  EXPECT_DOUBLE_EQ(v[1], 12.0);
  const auto w = a.times({1.0, 0.5});
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[2], 8.0);
}

TEST(Scaler, StandardizesColumns) {
  Matrix x(4, 2);
  x.at(0, 0) = 1; x.at(1, 0) = 2; x.at(2, 0) = 3; x.at(3, 0) = 4;
  for (int r = 0; r < 4; ++r) x.at(static_cast<std::size_t>(r), 1) = 7.0;  // constant column
  StandardScaler scaler;
  const Matrix z = scaler.fit_transform(x);
  double mean0 = 0, var0 = 0;
  for (int r = 0; r < 4; ++r) mean0 += z.at(static_cast<std::size_t>(r), 0);
  mean0 /= 4;
  for (int r = 0; r < 4; ++r) {
    var0 += (z.at(static_cast<std::size_t>(r), 0) - mean0) * (z.at(static_cast<std::size_t>(r), 0) - mean0);
  }
  var0 /= 4;
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(var0, 1.0, 1e-12);
  // Constant column standardizes to zeros, not NaNs.
  for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(z.at(static_cast<std::size_t>(r), 1), 0.0);
}

TEST(Scaler, RequiresFitBeforeTransform) {
  StandardScaler scaler;
  EXPECT_THROW(scaler.transform(Matrix(1, 1)), std::logic_error);
}

TEST(LogisticRegressionTest, SeparatesLinearlySeparableData) {
  util::Xoshiro256 rng(9);
  Matrix x(300, 2);
  std::vector<int> y(300);
  for (int r = 0; r < 300; ++r) {
    const double a = rng.normal();
    const double b = rng.normal();
    x.at(static_cast<std::size_t>(r), 0) = a;
    x.at(static_cast<std::size_t>(r), 1) = b;
    y[static_cast<std::size_t>(r)] = (2.0 * a - b > 0.0) ? 1 : 0;
  }
  LogisticRegression model;
  model.fit(x, y);
  EXPECT_GT(model.accuracy(x, y), 0.97);
  // Influence proportions reflect the planted 2:1 weight ratio.
  const auto influence = model.normalized_influence();
  EXPECT_NEAR(influence[0] + influence[1], 1.0, 1e-12);
  EXPECT_GT(influence[0], influence[1]);
}

TEST(LogisticRegressionTest, IrrelevantFeatureGetsLowInfluence) {
  util::Xoshiro256 rng(21);
  Matrix x(400, 2);
  std::vector<int> y(400);
  for (int r = 0; r < 400; ++r) {
    const double signal = rng.normal();
    x.at(static_cast<std::size_t>(r), 0) = signal;
    x.at(static_cast<std::size_t>(r), 1) = rng.normal();  // noise
    y[static_cast<std::size_t>(r)] = signal > 0 ? 1 : 0;
  }
  LogisticRegression model;
  model.fit(x, y);
  const auto influence = model.normalized_influence();
  EXPECT_GT(influence[0], 0.85);
  EXPECT_LT(influence[1], 0.15);
}

TEST(LogisticRegressionTest, ProbabilitiesAreCalibratedlyMonotone) {
  Matrix x(100, 1);
  std::vector<int> y(100);
  for (int r = 0; r < 100; ++r) {
    x.at(static_cast<std::size_t>(r), 0) = -2.0 + 4.0 * r / 99.0;
    y[static_cast<std::size_t>(r)] = x.at(static_cast<std::size_t>(r), 0) > 0 ? 1 : 0;
  }
  LogisticRegression model;
  model.fit(x, y);
  const auto proba = model.predict_proba(x);
  for (std::size_t i = 1; i < proba.size(); ++i) {
    EXPECT_GE(proba[i], proba[i - 1] - 1e-12);
  }
}

TEST(LogisticRegressionTest, RejectsBadLabels) {
  Matrix x(2, 1);
  LogisticRegression model;
  EXPECT_THROW(model.fit(x, {0, 2}), std::invalid_argument);
  EXPECT_THROW(model.fit(x, {0}), std::invalid_argument);
  EXPECT_THROW(model.predict(x), std::logic_error);
}

/// Norm of the fitted objective's gradient — mean log-loss plus
/// l2/2 * |coef|^2, intercept unpenalized — computed here, independently of
/// the solver's chunked accumulation.
double objective_gradient_norm(const LogisticRegression& model, const Matrix& x,
                               const std::vector<int>& y, double l2) {
  const std::size_t d = x.cols();
  const double n = static_cast<double>(x.rows());
  std::vector<double> grad(d + 1, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double z = model.intercept();
    for (std::size_t c = 0; c < d; ++c) z += model.coefficients()[c] * x.at(r, c);
    const double err = sigmoid(z) - y[r];
    for (std::size_t c = 0; c < d; ++c) grad[c] += err * x.at(r, c) / n;
    grad[d] += err / n;
  }
  double norm2 = 0.0;
  for (std::size_t c = 0; c <= d; ++c) {
    if (c < d) grad[c] += l2 * model.coefficients()[c];
    norm2 += grad[c] * grad[c];
  }
  return std::sqrt(norm2);
}

/// Fit with default options; the returned weights must be finite and a
/// stationary point of the objective to within the tolerance.
void expect_converged_fit(const Matrix& x, const std::vector<int>& y) {
  const LogisticOptions options;
  LogisticRegression model(options);
  ASSERT_NO_THROW(model.fit(x, y));
  for (const double c : model.coefficients()) EXPECT_TRUE(std::isfinite(c));
  EXPECT_TRUE(std::isfinite(model.intercept()));
  EXPECT_LT(objective_gradient_norm(model, x, y, options.l2), options.tolerance);
}

TEST(LogisticRegressionTest, ReturnsAStationaryPointOfTheObjective) {
  // Noisy labels: no separating plane, a genuine interior optimum.
  util::Xoshiro256 rng(5);
  Matrix x(2500, 3);
  std::vector<int> y(2500);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) x.at(r, c) = rng.normal();
    const double z = 1.5 * x.at(r, 0) - 0.5 * x.at(r, 2) + 0.3;
    y[r] = rng.uniform() < sigmoid(z) ? 1 : 0;
  }
  expect_converged_fit(x, y);
}

TEST(LogisticRegressionTest, SeparableLabelsConvergeToFiniteWeights) {
  // Without the penalty the weights would grow without bound.
  Matrix x(200, 2);
  std::vector<int> y(200);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x.at(r, 0) = static_cast<double>(r) / 10.0 - 10.0;
    x.at(r, 1) = static_cast<double>(r % 7);
    y[r] = x.at(r, 0) > 0.0 ? 1 : 0;
  }
  expect_converged_fit(x, y);
}

TEST(LogisticRegressionTest, ConstantColumnConvergesWithZeroWeight) {
  // A standardized constant column is all zeros; one left raw duplicates
  // the intercept. Both must leave the Newton system solvable.
  util::Xoshiro256 rng(8);
  for (const double constant : {0.0, 3.0}) {
    Matrix x(500, 2);
    std::vector<int> y(500);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      x.at(r, 0) = rng.normal();
      x.at(r, 1) = constant;
      y[r] = x.at(r, 0) + 0.5 * rng.normal() > 0.0 ? 1 : 0;
    }
    expect_converged_fit(x, y);
    if (constant == 0.0) {
      LogisticRegression model;
      model.fit(x, y);
      EXPECT_EQ(model.coefficients()[1], 0.0);
    }
  }
}

TEST(LogisticRegressionTest, OneVersusRestLabelsConverge) {
  // A single positive among many: the intercept heads far negative.
  util::Xoshiro256 rng(13);
  Matrix x(1000, 2);
  std::vector<int> y(1000, 0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x.at(r, 0) = rng.normal();
    x.at(r, 1) = rng.normal();
  }
  y[417] = 1;
  expect_converged_fit(x, y);
}

TEST(LogisticRegressionTest, RejectsNonPositivePenalty) {
  Matrix x(2, 1);
  x.at(0, 0) = -1.0;
  x.at(1, 0) = 1.0;
  LogisticOptions options;
  options.l2 = 0.0;
  LogisticRegression model(options);
  EXPECT_THROW(model.fit(x, {0, 1}), std::invalid_argument);
}

TEST(Sigmoid, StableAtExtremes) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(800.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-800.0), 0.0, 1e-12);
  EXPECT_FALSE(std::isnan(sigmoid(-1000.0)));
}

TEST(Features, EncodingIsInjectivePerVariable) {
  EXPECT_NE(encode_places(arch::PlacesKind::Cores),
            encode_places(arch::PlacesKind::Sockets));
  EXPECT_NE(encode_bind(arch::BindKind::Master), encode_bind(arch::BindKind::Spread));
  EXPECT_NE(encode_blocktime(0), encode_blocktime(200));
  EXPECT_NE(encode_blocktime(200), encode_blocktime(rt::kBlocktimeInfinite));
  EXPECT_DOUBLE_EQ(encode_align(64), 6.0);
  EXPECT_DOUBLE_EQ(encode_align(512), 9.0);
  EXPECT_LT(encode_input("S"), encode_input("A"));
  EXPECT_NE(encode_arch("a64fx"), encode_arch("milan"));
  EXPECT_NE(encode_app("cg"), encode_app("mg"));
}

TEST(Features, EncoderColumnsFollowOptions) {
  const FeatureEncoder plain{FeatureOptions{}};
  EXPECT_EQ(plain.names().front(), "Input Size");
  EXPECT_EQ(plain.num_features(), 9u);

  FeatureOptions with_arch;
  with_arch.include_architecture = true;
  const FeatureEncoder arch_encoder{with_arch};
  EXPECT_EQ(arch_encoder.names().front(), "Architecture");
  EXPECT_EQ(arch_encoder.num_features(), 10u);

  FeatureOptions with_app;
  with_app.include_application = true;
  const FeatureEncoder app_encoder{with_app};
  EXPECT_EQ(app_encoder.names().front(), "Application");
}

TEST(Features, EncodeSampleAndLabels) {
  sweep::Sample s;
  s.arch = "milan";
  s.app = "xsbench";
  s.input = "large";
  s.threads = 96;
  s.config.places = arch::PlacesKind::Cores;
  s.config.bind = arch::BindKind::Spread;
  s.config.schedule = rt::ScheduleKind::Guided;
  s.config.library = rt::LibraryMode::Turnaround;
  s.config.blocktime_ms = rt::kBlocktimeInfinite;
  s.config.reduction = rt::ReductionMethod::Atomic;
  s.config.align_alloc = 128;
  s.speedup = 1.5;

  FeatureOptions options;
  options.include_architecture = true;
  const FeatureEncoder encoder(options);
  const auto row = encoder.encode_sample(s);
  ASSERT_EQ(row.size(), encoder.num_features());
  EXPECT_DOUBLE_EQ(row[0], encode_arch("milan"));
  EXPECT_DOUBLE_EQ(row[1], encode_input("large"));
  EXPECT_DOUBLE_EQ(row[2], 96.0);  // OMP_NUM_THREADS column
  EXPECT_DOUBLE_EQ(row[3], encode_places(arch::PlacesKind::Cores));

  sweep::Dataset dataset;
  dataset.add(s);
  s.speedup = 1.0;
  dataset.add(s);
  const auto labels = FeatureEncoder::labels(dataset);
  EXPECT_EQ(labels, (std::vector<int>{1, 0}));
  const Matrix x = encoder.encode(dataset);
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.cols(), encoder.num_features());
}

}  // namespace
}  // namespace omptune::ml
