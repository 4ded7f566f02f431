#pragma once
// Parallel cyclic reduction (PCR).
//
// One PCR step with shift s rewrites every equation i by eliminating its
// couplings to i-s and i+s using those equations, leaving i coupled to
// i-2s and i+2s instead. After one shift-1 step the even and odd equations
// form two independent interleaved subsystems; this is the splitting
// primitive behind every stage of the multi-stage solver. Running steps
// with shifts 1, 2, 4, ... ⌈log2 n⌉ times decouples every unknown:
// x[i] = d[i] / b[i].
//
// pcr_step operates on SystemView (strided), so the same code serves the
// CPU reference and the shared-memory stage; pcr_step_range is the
// unit-stride sweep behind the global-memory splitting kernels.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "tridiag/batch.hpp"

namespace tda::tridiag {

/// One PCR step with the given shift (in view-local index space).
/// Reads src, writes dst; src and dst must not alias and must have the
/// same size. Boundary neighbours (i-s < 0, i+s >= n) are treated as
/// absent, which makes the step valid for any n, power of two or not.
template <typename T>
void pcr_step(const SystemView<const T>& src, const SystemView<T>& dst,
              std::size_t shift) {
  const std::size_t n = src.size();
  TDA_REQUIRE(dst.size() == n, "pcr_step: size mismatch");
  TDA_REQUIRE(shift >= 1, "pcr_step: shift must be >= 1");
  const auto s = static_cast<std::ptrdiff_t>(shift);
  const auto nn = static_cast<std::ptrdiff_t>(n);

  for (std::ptrdiff_t i = 0; i < nn; ++i) {
    const std::ptrdiff_t im = i - s;
    const std::ptrdiff_t ip = i + s;
    const auto ui = static_cast<std::size_t>(i);

    T alpha{0}, gamma{0};
    T nb = src.b[ui];
    T na{0}, nc{0};
    T nd = src.d[ui];

    if (im >= 0) {
      const auto uim = static_cast<std::size_t>(im);
      alpha = -src.a[ui] / src.b[uim];
      nb += alpha * src.c[uim];
      na = alpha * src.a[uim];
      nd += alpha * src.d[uim];
    }
    if (ip < nn) {
      const auto uip = static_cast<std::size_t>(ip);
      gamma = -src.c[ui] / src.b[uip];
      nb += gamma * src.a[uip];
      nc = gamma * src.c[uip];
      nd += gamma * src.d[uip];
    }
    dst.a[ui] = na;
    dst.b[ui] = nb;
    dst.c[ui] = nc;
    dst.d[ui] = nd;
  }
}

namespace detail {

/// Rows [i0, i1) of a unit-stride PCR step whose neighbours i±shift all
/// exist: branch-free, in pcr_step's exact operation order. The lanes are
/// restrict-qualified parameters (src and dst never alias), which is what
/// lets the compiler vectorize the loop without run-time alias checks.
template <typename T>
void pcr_interior_rows(const T* __restrict a, const T* __restrict b,
                       const T* __restrict c, const T* __restrict d,
                       T* __restrict oa, T* __restrict ob, T* __restrict oc,
                       T* __restrict od, std::size_t shift, std::size_t i0,
                       std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const std::size_t im = i - shift;
    const std::size_t ip = i + shift;
    const T alpha = -a[i] / b[im];
    const T gamma = -c[i] / b[ip];
    T nb = b[i];
    nb += alpha * c[im];
    nb += gamma * a[ip];
    T nd = d[i];
    nd += alpha * d[im];
    nd += gamma * d[ip];
    oa[i] = alpha * a[im];
    ob[i] = nb;
    oc[i] = gamma * c[ip];
    od[i] = nd;
  }
}

}  // namespace detail

/// PCR step restricted to equations [begin, end) of a unit-stride view —
/// the work a single cooperating block contributes to a grid-wide split
/// (Stage 1), and one row of a Stage-2 tile. Neighbour reads may fall
/// outside [begin, end); they read `src`, which holds pre-step values, so
/// chunked execution equals a full pcr_step bit for bit.
///
/// One sweep over raw lane pointers: rows in the boundary bands (i < shift,
/// i >= n - shift) take pcr_step's branches, interior rows run branch-free
/// (detail::pcr_interior_rows), so every output bit equals pcr_step's.
template <typename T>
void pcr_step_range(const SystemView<const T>& src, const SystemView<T>& dst,
                    std::size_t shift, std::size_t begin, std::size_t end) {
  const std::size_t n = src.size();
  TDA_REQUIRE(dst.size() == n, "pcr_step_range: size mismatch");
  TDA_REQUIRE(begin <= end && end <= n, "pcr_step_range: bad range");
  TDA_REQUIRE(shift >= 1, "pcr_step_range: shift must be >= 1");
  TDA_REQUIRE(src.stride() == 1 && dst.stride() == 1,
              "pcr_step_range: views must be unit-stride");
  const T* a = src.a.data();
  const T* b = src.b.data();
  const T* c = src.c.data();
  const T* d = src.d.data();

  const auto boundary_row = [&](std::size_t i) {
    T nb = b[i];
    T na{0}, nc{0};
    T nd = d[i];
    if (i >= shift) {
      const std::size_t im = i - shift;
      const T alpha = -a[i] / b[im];
      nb += alpha * c[im];
      na = alpha * a[im];
      nd += alpha * d[im];
    }
    if (i + shift < n) {
      const std::size_t ip = i + shift;
      const T gamma = -c[i] / b[ip];
      nb += gamma * a[ip];
      nc = gamma * c[ip];
      nd += gamma * d[ip];
    }
    dst.a.data()[i] = na;
    dst.b.data()[i] = nb;
    dst.c.data()[i] = nc;
    dst.d.data()[i] = nd;
  };

  // Interior rows [i0, i1) have both neighbours.
  const std::size_t i0 = std::clamp(shift, begin, end);
  const std::size_t i1 = std::clamp(n - std::min(shift, n), i0, end);
  for (std::size_t i = begin; i < i0; ++i) boundary_row(i);
  detail::pcr_interior_rows(a, b, c, d, dst.a.data(), dst.b.data(),
                            dst.c.data(), dst.d.data(), shift, i0, i1);
  for (std::size_t i = i1; i < end; ++i) boundary_row(i);
}

/// Number of PCR steps with doubling shifts needed to fully decouple a
/// system of size n (⌈log2 n⌉; 0 for n <= 1).
inline std::size_t pcr_steps_to_decouple(std::size_t n) {
  std::size_t steps = 0;
  std::size_t shift = 1;
  while (shift < n) {
    shift *= 2;
    ++steps;
  }
  return steps;
}

/// Flop count of one PCR step over n equations (for cost accounting).
inline std::size_t pcr_step_flops(std::size_t n) { return 14 * n; }

/// Full PCR solve of a single system using caller-visible scratch of the
/// same shape. Overwrites both sys and scratch; writes unknowns to x.
/// This is the CPU reference for the pure-PCR GPU kernel.
template <typename T>
void pcr_solve(SystemView<T> sys, SystemView<T> scratch, StridedView<T> x) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(scratch.size() == n, "pcr_solve: scratch size mismatch");
  TDA_REQUIRE(x.size() == n, "pcr_solve: solution size mismatch");

  SystemView<T>* src = &sys;
  SystemView<T>* dst = &scratch;
  for (std::size_t shift = 1; shift < n; shift *= 2) {
    pcr_step(SystemView<const T>{src->a.as_const(), src->b.as_const(),
                                 src->c.as_const(), src->d.as_const()},
             *dst, shift);
    std::swap(src, dst);
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = src->d[i] / src->b[i];
}

}  // namespace tda::tridiag
