#pragma once
// Periodic (cyclic) tridiagonal systems.
//
// Spectral Poisson solvers and ocean models on periodic domains (both in
// the paper's motivation list) produce "tridiagonal" systems with two
// corner entries: equation 0 couples to x[n-1] and equation n-1 couples
// to x[0]. The Sherman-Morrison formula reduces such a system to two
// solves of an ordinary tridiagonal system, so ANY solver in this library
// (CPU Thomas/gtsv or the multi-stage GPU solver) can serve as the inner
// engine:
//
//   A_cyclic = A + u v^T,   u = (-b0*gamma_scale, 0, .., a0?),  classic
//   construction: choose gamma, modify b[0] and b[n-1], solve A y = d and
//   A z = u, then x = y - (v^T y / (1 + v^T z)) z.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

/// A periodic tridiagonal system: `alpha` couples equation 0 to x[n-1]
/// (top-right corner) and `beta` couples equation n-1 to x[0]
/// (bottom-left corner). The a/b/c/d arrays describe the ordinary
/// tridiagonal part with the usual a[0] = c[n-1] = 0 convention.
template <typename T>
struct PeriodicSystem {
  std::vector<T> a, b, c, d;
  T alpha{};  ///< A[0][n-1]
  T beta{};   ///< A[n-1][0]

  [[nodiscard]] std::size_t size() const { return b.size(); }
};

/// Batch of periodic systems sharing one size.
template <typename T>
struct PeriodicBatch {
  TridiagBatch<T> core;        ///< the tridiagonal parts
  std::vector<T> alpha, beta;  ///< corner entries, one per system

  PeriodicBatch(std::size_t m, std::size_t n)
      : core(m, n), alpha(m, T{}), beta(m, T{}) {}
};

/// Solves a batch of periodic systems given a callback that solves an
/// ordinary TridiagBatch in place (results in batch.x()). The callback is
/// invoked exactly twice with a batch of the same shape (Sherman-Morrison
/// needs the pair of solves); this is how the GPU multi-stage solver or
/// the CPU baseline plugs in.
///
/// Returns the solutions (m*n, system-major). Requires n >= 3 and
/// non-singular modified systems (diagonally dominant periodic systems
/// with |b| > |a|+|c|+|corner| are always safe).
template <typename T>
std::vector<T> solve_periodic_batch(
    PeriodicBatch<T>& batch,
    const std::function<void(TridiagBatch<T>&)>& solve_tridiag) {
  const std::size_t m = batch.core.num_systems();
  const std::size_t n = batch.core.system_size();
  TDA_REQUIRE(n >= 3, "periodic solve needs at least 3 equations");

  // Build the modified system A' = A - u v^T with
  //   u = (gamma, 0, ..., 0, beta)^T, v = (1, 0, ..., 0, alpha/gamma)^T,
  // which zeroes the corners when gamma is chosen per system. We use the
  // classic choice gamma = -b[0].
  TridiagBatch<T> modified(m, n);
  std::copy(batch.core.a().begin(), batch.core.a().end(),
            modified.a().begin());
  std::copy(batch.core.b().begin(), batch.core.b().end(),
            modified.b().begin());
  std::copy(batch.core.c().begin(), batch.core.c().end(),
            modified.c().begin());
  std::copy(batch.core.d().begin(), batch.core.d().end(),
            modified.d().begin());

  std::vector<T> gamma(m);
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    const T g = -modified.b()[off];
    TDA_REQUIRE(g != T{0}, "periodic solve: b[0] must be nonzero");
    gamma[s] = g;
    modified.b()[off] -= g;  // b0' = b0 - gamma (= 2 b0)
    modified.b()[off + n - 1] -=
        batch.alpha[s] * batch.beta[s] / g;  // b_{n-1}' -= alpha*beta/gamma
  }

  // First solve: A' y = d.
  solve_tridiag(modified);
  std::vector<T> y(modified.x().begin(), modified.x().end());

  // Second solve: A' z = u.
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    for (std::size_t i = 0; i < n; ++i) modified.d()[off + i] = T{0};
    modified.d()[off] = gamma[s];
    modified.d()[off + n - 1] = batch.beta[s];
  }
  solve_tridiag(modified);
  std::span<const T> z = modified.x();

  // Combine: x = y - ((y0 + alpha/gamma * y_{n-1}) /
  //                   (1 + z0 + alpha/gamma * z_{n-1})) * z.
  std::vector<T> x(m * n);
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    const T va = batch.alpha[s] / gamma[s];
    const T num = y[off] + va * y[off + n - 1];
    const T den = T{1} + z[off] + va * z[off + n - 1];
    TDA_REQUIRE(den != T{0}, "periodic solve: singular correction");
    const T factor = num / den;
    for (std::size_t i = 0; i < n; ++i) {
      x[off + i] = y[off + i] - factor * z[off + i];
    }
  }
  return x;
}

/// Normwise backward error of a periodic batch against a candidate
/// solution: tridiag::relative_residual with the alpha/beta corners in
/// both A x and ||A||_inf, maximised over the systems. Returns +inf when
/// x, d, a coefficient or a corner is NaN or Inf.
template <typename T>
double periodic_relative_residual(const PeriodicBatch<T>& batch,
                                  std::span<const T> x) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t m = batch.core.num_systems();
  const std::size_t n = batch.core.system_size();
  TDA_REQUIRE(x.size() == m * n, "periodic residual: size mismatch");
  auto a = batch.core.a();
  auto b = batch.core.b();
  auto c = batch.core.c();
  auto d = batch.core.d();
  double worst = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    double max_r = 0.0, norm_a = 0.0, norm_x = 0.0, norm_d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = off + i;
      const double xi = static_cast<double>(x[k]);
      const double ai = i > 0 ? static_cast<double>(a[k]) : 0.0;
      const double bi = static_cast<double>(b[k]);
      const double ci = i + 1 < n ? static_cast<double>(c[k]) : 0.0;
      const double di = static_cast<double>(d[k]);
      double ax = bi * xi;
      double row = std::abs(ai) + std::abs(bi) + std::abs(ci);
      if (i > 0) ax += ai * static_cast<double>(x[k - 1]);
      if (i + 1 < n) ax += ci * static_cast<double>(x[k + 1]);
      if (i == 0) {
        const double alpha = static_cast<double>(batch.alpha[s]);
        ax += alpha * static_cast<double>(x[off + n - 1]);
        row += std::abs(alpha);
      }
      if (i == n - 1) {
        const double beta = static_cast<double>(batch.beta[s]);
        ax += beta * static_cast<double>(x[off]);
        row += std::abs(beta);
      }
      // As in relative_residual: a non-finite factor of any product in
      // row i, or an overflowing A x, leaves ax non-finite.
      if (!std::isfinite(ax) || !std::isfinite(di)) return kInf;
      max_r = std::max(max_r, std::abs(di - ax));
      norm_a = std::max(norm_a, row);
      norm_x = std::max(norm_x, std::abs(xi));
      norm_d = std::max(norm_d, std::abs(di));
    }
    const double scale = norm_a * norm_x + norm_d;
    if (scale == 0.0) continue;
    const double err = max_r / scale;
    if (std::isnan(err)) return kInf;
    worst = std::max(worst, err);
  }
  return worst;
}

}  // namespace tda::tridiag
