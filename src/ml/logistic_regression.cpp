#include "ml/logistic_regression.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"

namespace omptune::ml {

namespace {

/// Rows per chunk. Fixed — the chunk layout (and therefore the summation
/// order of the loss, gradient and Hessian) must depend only on the row
/// count, never on the thread count, or fits would stop being
/// bit-reproducible.
constexpr std::size_t kRowGrain = 1024;

}  // namespace

double sigmoid(double z) {
  if (z >= 0.0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

void LogisticRegression::fit(const Matrix& x, const std::vector<int>& y,
                             const util::ThreadPool* pool) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("LogisticRegression::fit: dimension mismatch");
  }
  for (const int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("LogisticRegression::fit: labels must be 0/1");
    }
  }
  // The penalty is what keeps the Newton system nonsingular (constant
  // columns, separable labels).
  if (!(options_.l2 > 0.0)) {
    throw std::invalid_argument("LogisticRegression::fit: l2 must be positive");
  }

  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t k = d + 1;  // unknowns: d coefficients, then the intercept
  const double inv_n = 1.0 / static_cast<double>(n);

  // All scratch for the whole fit, allocated once. One slab per chunk:
  // [loss | gradient (k) | Hessian upper triangle, row-major (k(k+1)/2)].
  // Slabs sit a cache line apart: every row updates its whole slab, and
  // chunks running on different lanes must not share a line.
  const std::size_t chunks = util::ThreadPool::chunk_count(n, kRowGrain);
  const std::size_t slab = 1 + k + k * (k + 1) / 2;
  const std::size_t stride = slab + 64 / sizeof(double);
  std::vector<double> partials(chunks * stride);
  std::vector<double> sums(slab);
  std::vector<double> w(k, 0.0);         // point of this pass
  std::vector<double> accepted(k, 0.0);  // last point whose objective fell
  std::vector<double> step(k, 0.0);
  std::vector<double> neg_grad(k);
  Matrix hessian(k, k);
  double accepted_objective = std::numeric_limits<double>::infinity();

  for (int pass = 0; pass < options_.max_iterations; ++pass) {
    std::fill(partials.begin(), partials.end(), 0.0);
    util::parallel_for(
        pool, n, kRowGrain,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          double* p = partials.data() + chunk * stride;
          double* g = p + 1;
          double* h = g + k;
          for (std::size_t r = begin; r < end; ++r) {
            const double* xr = x.row(r);
            double z = w[d];
            for (std::size_t c = 0; c < d; ++c) z += w[c] * xr[c];
            // One exp serves the probability, its curvature p(1-p) =
            // e/(1+e)^2 (no cancellation when p nears 0 or 1) and the
            // stable log-loss log(1 + e^z) - y*z.
            const double e = std::exp(-std::abs(z));
            const double prob = z >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e);
            const double weight = e / ((1.0 + e) * (1.0 + e));
            const double label = static_cast<double>(y[r]);
            p[0] += std::max(z, 0.0) + std::log1p(e) - label * z;
            const double err = prob - label;
            std::size_t t = 0;
            for (std::size_t i = 0; i < d; ++i) {
              g[i] += err * xr[i];
              const double wi = weight * xr[i];
              for (std::size_t j = i; j < d; ++j) h[t++] += wi * xr[j];
              h[t++] += wi;  // (i, intercept)
            }
            g[d] += err;
            h[t] += weight;
          }
        });
    // Merge partials in ascending chunk order — the fixed association that
    // keeps the fit independent of how chunks were scheduled.
    std::fill(sums.begin(), sums.end(), 0.0);
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const double* p = partials.data() + chunk * stride;
      for (std::size_t s = 0; s < slab; ++s) sums[s] += p[s];
    }

    double objective = sums[0] * inv_n;
    double grad_norm2 = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      double gi = sums[1 + i] * inv_n;
      if (i < d) {
        gi += options_.l2 * w[i];
        objective += 0.5 * options_.l2 * w[i] * w[i];
      }
      neg_grad[i] = -gi;
      grad_norm2 += gi * gi;
    }
    if (grad_norm2 < options_.tolerance * options_.tolerance) {
      accepted = w;
      break;
    }
    if (objective > accepted_objective) {
      // The full step overshot: retry half of it from the accepted point.
      for (std::size_t i = 0; i < k; ++i) {
        step[i] *= 0.5;
        w[i] = accepted[i] + step[i];
      }
      continue;
    }
    accepted = w;
    accepted_objective = objective;

    const double* h = sums.data() + 1 + k;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i; j < k; ++j) {
        const double v = *h++ * inv_n;
        hessian.at(i, j) = v;
        hessian.at(j, i) = v;
      }
      if (i < d) hessian.at(i, i) += options_.l2;
    }
    step = solve_linear_system(hessian, neg_grad);
    for (std::size_t i = 0; i < k; ++i) w[i] += step[i];
  }
  // Out of passes without converging: keep the best point evaluated.
  intercept_ = accepted[d];
  accepted.pop_back();
  coef_ = std::move(accepted);
}

void LogisticRegression::predict_proba_into(const Matrix& x,
                                            std::vector<double>& out,
                                            const util::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("LogisticRegression: not fitted");
  if (x.cols() != coef_.size()) {
    throw std::invalid_argument("LogisticRegression::predict_proba: width mismatch");
  }
  out.resize(x.rows());
  const std::size_t d = coef_.size();
  util::parallel_for(pool, x.rows(), kRowGrain,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t r = begin; r < end; ++r) {
                         const double* xr = x.row(r);
                         double z = intercept_;
                         for (std::size_t c = 0; c < d; ++c) z += coef_[c] * xr[c];
                         out[r] = sigmoid(z);
                       }
                     });
}

std::vector<double> LogisticRegression::predict_proba(
    const Matrix& x, const util::ThreadPool* pool) const {
  std::vector<double> out;
  predict_proba_into(x, out, pool);
  return out;
}

std::vector<int> LogisticRegression::predict(const Matrix& x,
                                             const util::ThreadPool* pool) const {
  const std::vector<double> proba = predict_proba(x, pool);
  std::vector<int> out(proba.size());
  for (std::size_t i = 0; i < proba.size(); ++i) out[i] = proba[i] >= 0.5 ? 1 : 0;
  return out;
}

double LogisticRegression::accuracy(const Matrix& x, const std::vector<int>& y,
                                    const util::ThreadPool* pool) const {
  const std::vector<int> pred = predict(x, pool);
  if (pred.size() != y.size() || y.empty()) {
    throw std::invalid_argument("LogisticRegression::accuracy: size mismatch");
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += (pred[i] == y[i]);
  return static_cast<double>(correct) / static_cast<double>(y.size());
}

std::vector<double> LogisticRegression::normalized_influence() const {
  if (!fitted()) throw std::logic_error("LogisticRegression: not fitted");
  std::vector<double> influence(coef_.size());
  double total = 0.0;
  for (std::size_t c = 0; c < coef_.size(); ++c) {
    influence[c] = std::abs(coef_[c]);
    total += influence[c];
  }
  if (total > 0.0) {
    for (double& v : influence) v /= total;
  }
  return influence;
}

}  // namespace omptune::ml
