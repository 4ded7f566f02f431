#pragma once
// Solution verification: the normwise backward error every solution
// check uses, its acceptance bound, and a dense Gaussian-elimination
// reference for small systems.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/strided_view.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

/// Normwise backward error of a candidate solution x of one system,
/// accumulated in double:
///   ||A x - d||_inf / (||A||_inf * ||x||_inf + ||d||_inf).
/// It is the one solution check of the repository: the guards' postcheck,
/// the tests, the benches and the examples all call it
/// (docs/ROBUSTNESS.md, "Verifying a solution").
///
/// Returns +inf when x, d or a coefficient of A is NaN or Inf, or when
/// A x overflows, so that no `err <= tol` test can accept a non-finite
/// answer. a[0] and c[n-1] lie outside A and are not read.
template <typename T>
[[nodiscard]] double relative_residual(const SystemView<T>& sys,
                                       const StridedView<T>& x) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "residual: solution size mismatch");
  double max_r = 0.0, norm_a = 0.0, norm_x = 0.0, norm_d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = static_cast<double>(x[i]);
    const double ai = i > 0 ? static_cast<double>(sys.a[i]) : 0.0;
    const double bi = static_cast<double>(sys.b[i]);
    const double ci = i + 1 < n ? static_cast<double>(sys.c[i]) : 0.0;
    const double di = static_cast<double>(sys.d[i]);
    double ax = bi * xi;
    if (i > 0) ax += ai * static_cast<double>(x[i - 1]);
    if (i + 1 < n) ax += ci * static_cast<double>(x[i + 1]);
    // A NaN or Inf factor makes its product non-finite (Inf * 0 is NaN),
    // and row i holds a[i], b[i], c[i] and x[i]: this test covers every
    // coefficient and every x, and an A x that overflows as well.
    if (!std::isfinite(ax) || !std::isfinite(di)) return kInf;
    max_r = std::max(max_r, std::abs(di - ax));
    norm_a = std::max(norm_a, std::abs(ai) + std::abs(bi) + std::abs(ci));
    norm_x = std::max(norm_x, std::abs(xi));
    norm_d = std::max(norm_d, std::abs(di));
  }
  const double scale = norm_a * norm_x + norm_d;
  if (scale == 0.0) return max_r;
  const double err = max_r / scale;
  return std::isnan(err) ? kInf : err;  // Inf / Inf after an overflow
}

/// Largest relative_residual over the systems of a batch, for the
/// solution x stored in the batch's layout (like batch.x()). The
/// coefficients must still hold the ORIGINAL systems: pass a pristine
/// copy when the solver overwrote them.
template <typename T>
[[nodiscard]] double relative_residual(
    const TridiagBatch<T>& original,
    std::type_identity_t<std::span<const T>> x) {
  const std::size_t m = original.num_systems();
  const std::size_t n = original.system_size();
  TDA_REQUIRE(x.size() == m * n, "batch residual: size mismatch");
  const bool system_major = original.layout() == BatchLayout::SystemMajor;
  double worst = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    const auto lane = [&](std::span<const T> v) {
      return system_major ? StridedView<const T>(v.data() + s * n, n, 1)
                          : StridedView<const T>(v.data() + s, n, m);
    };
    const SystemView<const T> sys{lane(original.a()), lane(original.b()),
                                  lane(original.c()), lane(original.d())};
    worst = std::max(worst, relative_residual(sys, lane(x)));
  }
  return worst;
}

/// Repository-wide constant c of the acceptance bound c * n * eps(T).
inline constexpr double kResidualC = 1.0;

/// The bound every test, bench and example holds a solution of n
/// equations in T to: relative_residual(...) <= residual_bound<T>(n).
template <typename T>
[[nodiscard]] constexpr double residual_bound(std::size_t n) {
  using E = std::remove_const_t<T>;
  return kResidualC * static_cast<double>(n) *
         static_cast<double>(std::numeric_limits<E>::epsilon());
}

/// Dense Gaussian elimination with partial pivoting — an algorithm-
/// independent reference for small n (O(n^3), tests only).
template <typename T>
std::vector<double> dense_solve(const SystemView<const T>& sys) {
  const std::size_t n = sys.size();
  std::vector<double> mat(n * n, 0.0);
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) mat[i * n + i - 1] = static_cast<double>(sys.a[i]);
    mat[i * n + i] = static_cast<double>(sys.b[i]);
    if (i + 1 < n) mat[i * n + i + 1] = static_cast<double>(sys.c[i]);
    rhs[i] = static_cast<double>(sys.d[i]);
  }
  // Forward elimination with partial pivoting.
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(mat[r * n + k]) > std::abs(mat[piv * n + k])) piv = r;
    }
    if (piv != k) {
      for (std::size_t col = 0; col < n; ++col)
        std::swap(mat[k * n + col], mat[piv * n + col]);
      std::swap(rhs[k], rhs[piv]);
    }
    const double p = mat[k * n + k];
    TDA_REQUIRE(p != 0.0, "dense_solve: singular matrix");
    for (std::size_t r = k + 1; r < n; ++r) {
      const double f = mat[r * n + k] / p;
      if (f == 0.0) continue;
      for (std::size_t col = k; col < n; ++col)
        mat[r * n + col] -= f * mat[k * n + col];
      rhs[r] -= f * rhs[k];
    }
  }
  // Back substitution.
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = rhs[i];
    for (std::size_t col = i + 1; col < n; ++col)
      acc -= mat[i * n + col] * x[col];
    x[i] = acc / mat[i * n + i];
  }
  return x;
}

}  // namespace tda::tridiag
