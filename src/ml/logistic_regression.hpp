#pragma once

// L2-regularized logistic regression fitted by Newton's method (IRLS) —
// the paper's analysis workhorse: samples are labelled optimal
// (speedup > 1.01) vs sub-optimal, the model is fitted per grouping, and
// the weight-normalized |coefficients| become the feature-influence heat
// maps (Figs 2, 3, 4).

#include <cstdint>
#include <vector>

#include "ml/linalg.hpp"

namespace omptune::util {
class ThreadPool;
}

namespace omptune::ml {

struct LogisticOptions {
  /// Cap on Newton passes over the data; a fit normally converges in < 10.
  int max_iterations = 50;
  /// Weight of the l2/2 * |coef|^2 penalty (the intercept is unpenalized);
  /// must be positive.
  double l2 = 1e-3;
  /// Converged once the objective's gradient norm falls below this.
  double tolerance = 1e-7;
};

class LogisticRegression {
 public:
  explicit LogisticRegression(LogisticOptions options = {})
      : options_(options) {}

  /// Fit on features x and binary labels y (0/1) by minimizing the mean
  /// log-loss plus l2/2 * |coef|^2. Inputs should be standardized (see
  /// StandardScaler) so coefficients are comparable.
  ///
  /// Each Newton pass accumulates the loss, the gradient and the Hessian's
  /// upper triangle over [x, 1] per chunk, merges the chunks in ascending
  /// order and solves the (d+1)^2 system for the step; a step that raises
  /// the objective is halved instead. The chunk layout is fixed by the row
  /// count alone, so the fitted weights are bit-identical at any thread
  /// count (including no pool at all). All per-chunk scratch is allocated
  /// once up front, never per pass.
  void fit(const Matrix& x, const std::vector<int>& y,
           const util::ThreadPool* pool = nullptr);

  /// P(y=1 | x) into a caller-owned buffer (resized to x.rows()) — the
  /// allocation-free form for callers scoring in a loop.
  void predict_proba_into(const Matrix& x, std::vector<double>& out,
                          const util::ThreadPool* pool = nullptr) const;

  /// P(y=1 | x) per row.
  std::vector<double> predict_proba(const Matrix& x,
                                    const util::ThreadPool* pool = nullptr) const;

  /// Hard predictions at threshold 0.5.
  std::vector<int> predict(const Matrix& x,
                           const util::ThreadPool* pool = nullptr) const;

  /// Classification accuracy on (x, y).
  double accuracy(const Matrix& x, const std::vector<int>& y,
                  const util::ThreadPool* pool = nullptr) const;

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  bool fitted() const { return !coef_.empty(); }

  /// |coefficients|, normalized to sum to 1 — the influence vector the heat
  /// maps display (darker = larger share).
  std::vector<double> normalized_influence() const;

 private:
  LogisticOptions options_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

/// Numerically-stable logistic sigmoid.
double sigmoid(double z);

}  // namespace omptune::ml
