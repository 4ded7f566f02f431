// Unit & property tests for the tridiagonal algorithm core: Thomas, PCR,
// CR, the two hybrids, generators and verification, against the dense
// Gaussian-elimination reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/cr.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/hybrid.hpp"
#include "tridiag/pcr.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/verify.hpp"

namespace {

using namespace tda;
using namespace tda::tridiag;

// Helper: wrap contiguous vectors in a SystemView.
template <typename T>
SystemView<T> view_of(std::vector<T>& a, std::vector<T>& b, std::vector<T>& c,
                      std::vector<T>& d) {
  const std::size_t n = b.size();
  return SystemView<T>{StridedView<T>(a.data(), n, 1),
                       StridedView<T>(b.data(), n, 1),
                       StridedView<T>(c.data(), n, 1),
                       StridedView<T>(d.data(), n, 1)};
}

template <typename T>
SystemView<const T> const_view(const SystemView<T>& v) {
  return SystemView<const T>{v.a.as_const(), v.b.as_const(), v.c.as_const(),
                             v.d.as_const()};
}

// Scratch of the same shape as a system of size n.
template <typename T>
struct Scratch {
  explicit Scratch(std::size_t n) : buf(4 * n), n_(n) {}
  SystemView<T> view() {
    return SystemView<T>{StridedView<T>(buf.data(), n_, 1),
                         StridedView<T>(buf.data() + n_, n_, 1),
                         StridedView<T>(buf.data() + 2 * n_, n_, 1),
                         StridedView<T>(buf.data() + 3 * n_, n_, 1)};
  }
  AlignedBuffer<T> buf;
  std::size_t n_;
};

// ---------- batch container ----------

TEST(TridiagBatch, ShapeAndLayout) {
  TridiagBatch<double> batch(3, 5);
  EXPECT_EQ(batch.num_systems(), 3u);
  EXPECT_EQ(batch.system_size(), 5u);
  EXPECT_EQ(batch.total_equations(), 15u);
  batch.b()[7] = 4.0;  // system 1, equation 2
  auto sys = batch.system(1);
  EXPECT_EQ(sys.b[2], 4.0);
}

TEST(TridiagBatch, NormalizeBoundaries) {
  TridiagBatch<double> batch(2, 4);
  for (auto& v : batch.a()) v = 1.0;
  for (auto& v : batch.c()) v = 1.0;
  batch.normalize_boundaries();
  EXPECT_EQ(batch.a()[0], 0.0);
  EXPECT_EQ(batch.a()[4], 0.0);
  EXPECT_EQ(batch.c()[3], 0.0);
  EXPECT_EQ(batch.c()[7], 0.0);
  EXPECT_EQ(batch.a()[1], 1.0);
}

TEST(TridiagBatch, RejectsEmpty) {
  EXPECT_THROW(TridiagBatch<float>(0, 4), ContractError);
  EXPECT_THROW(TridiagBatch<float>(4, 0), ContractError);
}

// ---------- generators ----------

TEST(Generators, DiagDominantIsDominant) {
  auto batch = make_diag_dominant<double>(4, 64, 42);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  for (std::size_t k = 0; k < batch.total_equations(); ++k) {
    EXPECT_GT(std::abs(b[k]), std::abs(a[k]) + std::abs(c[k]));
  }
}

TEST(Generators, BoundariesAreZero) {
  auto batch = make_diag_dominant<double>(3, 16, 1);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(batch.a()[s * 16], 0.0);
    EXPECT_EQ(batch.c()[s * 16 + 15], 0.0);
  }
}

TEST(Generators, DeterministicInSeed) {
  auto b1 = make_diag_dominant<float>(2, 32, 777);
  auto b2 = make_diag_dominant<float>(2, 32, 777);
  for (std::size_t k = 0; k < b1.total_equations(); ++k) {
    EXPECT_EQ(b1.b()[k], b2.b()[k]);
    EXPECT_EQ(b1.d()[k], b2.d()[k]);
  }
}

TEST(Generators, SeedChangesData) {
  auto b1 = make_diag_dominant<float>(1, 32, 1);
  auto b2 = make_diag_dominant<float>(1, 32, 2);
  bool any_diff = false;
  for (std::size_t k = 0; k < 32; ++k) {
    if (b1.d()[k] != b2.d()[k]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, PoissonStencil) {
  auto batch = make_poisson<double>(1, 8, 3);
  EXPECT_EQ(batch.b()[3], 2.0);
  EXPECT_EQ(batch.a()[3], -1.0);
  EXPECT_EQ(batch.c()[3], -1.0);
  EXPECT_EQ(batch.a()[0], 0.0);
  EXPECT_EQ(batch.c()[7], 0.0);
}

TEST(Generators, ToeplitzStencil) {
  auto batch = make_toeplitz<double>(1, 6, -1.0, 4.0, -2.0, 5);
  EXPECT_EQ(batch.a()[2], -1.0);
  EXPECT_EQ(batch.b()[2], 4.0);
  EXPECT_EQ(batch.c()[2], -2.0);
}

TEST(Generators, KnownSolutionRoundTrip) {
  std::vector<double> x_true;
  auto batch = make_with_known_solution<double>(2, 33, 11, &x_true);
  ASSERT_EQ(x_true.size(), 66u);
  // d was built as A*x: residual of x_true must be ~0.
  EXPECT_LE(relative_residual(batch, x_true), residual_bound<double>(33));
}

// ---------- dense reference sanity ----------

TEST(DenseSolve, Solves2x2) {
  std::vector<double> a{0, 1}, b{2, 3}, c{1, 0}, d{3, 4};
  auto v = view_of(a, b, c, d);
  auto x = dense_solve(const_view(v));
  // [2 1; 1 3] x = [3;4] -> x = [1;1]
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(DenseSolve, HandlesPivoting) {
  // b[0] = 0 forces a row swap.
  std::vector<double> a{0, 1}, b{0, 1}, c{2, 0}, d{2, 2};
  auto v = view_of(a, b, c, d);
  auto x = dense_solve(const_view(v));
  // [0 2; 1 1] x = [2;2] -> x = [1;1]
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

// ---------- Thomas ----------

TEST(Thomas, MatchesDenseOnSmallSystem) {
  auto batch = make_diag_dominant<double>(1, 9, 5);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(sys));
  auto x = batch.solution(0);
  ASSERT_TRUE(thomas_solve_inplace(sys, x));
  for (std::size_t i = 0; i < 9; ++i) EXPECT_NEAR(x[i], ref[i], 1e-10);
}

TEST(Thomas, SizeOne) {
  std::vector<double> a{0}, b{4}, c{0}, d{8};
  std::vector<double> x(1);
  auto v = view_of(a, b, c, d);
  ASSERT_TRUE(thomas_solve_inplace(v, StridedView<double>(x.data(), 1, 1)));
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Thomas, DetectsZeroPivot) {
  std::vector<double> a{0, 1}, b{0, 1}, c{1, 0}, d{1, 1};
  std::vector<double> x(2);
  auto v = view_of(a, b, c, d);
  EXPECT_FALSE(thomas_solve_inplace(v, StridedView<double>(x.data(), 2, 1)));
}

TEST(Thomas, NonDestructiveVariantPreservesInput) {
  auto batch = make_diag_dominant<double>(1, 16, 6);
  auto sys = batch.system(0);
  std::vector<double> c_before(16), cs(16), ds(16), x(16);
  for (std::size_t i = 0; i < 16; ++i) c_before[i] = sys.c[i];
  ASSERT_TRUE(thomas_solve(const_view(sys),
                           StridedView<double>(x.data(), 16, 1),
                           StridedView<double>(cs.data(), 16, 1),
                           StridedView<double>(ds.data(), 16, 1)));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(sys.c[i], c_before[i]);
  EXPECT_LE(relative_residual(const_view(sys),
                              StridedView<const double>(x.data(), 16, 1)),
            residual_bound<double>(16));
}

TEST(Thomas, WorksOnStridedViews) {
  // Solve the even-indexed half of an interleaved layout.
  auto batch = make_diag_dominant<double>(1, 16, 7);
  // Copy system into a stride-2 arrangement.
  std::vector<double> a(32), b(32), c(32), d(32), x(32);
  auto sys = batch.system(0);
  for (std::size_t i = 0; i < 16; ++i) {
    a[2 * i] = sys.a[i];
    b[2 * i] = sys.b[i];
    c[2 * i] = sys.c[i];
    d[2 * i] = sys.d[i];
  }
  SystemView<double> sv{StridedView<double>(a.data(), 16, 2),
                        StridedView<double>(b.data(), 16, 2),
                        StridedView<double>(c.data(), 16, 2),
                        StridedView<double>(d.data(), 16, 2)};
  ASSERT_TRUE(thomas_solve_inplace(sv, StridedView<double>(x.data(), 16, 2)));
  auto fresh = make_diag_dominant<double>(1, 16, 7);
  auto ref_sys = fresh.system(0);
  auto ref = dense_solve(const_view(ref_sys));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_NEAR(x[2 * i], ref[i], 1e-10);
}

// ---------- PCR ----------

TEST(Pcr, StepsToDecouple) {
  EXPECT_EQ(pcr_steps_to_decouple(1), 0u);
  EXPECT_EQ(pcr_steps_to_decouple(2), 1u);
  EXPECT_EQ(pcr_steps_to_decouple(8), 3u);
  EXPECT_EQ(pcr_steps_to_decouple(9), 4u);
  EXPECT_EQ(pcr_steps_to_decouple(1024), 10u);
}

TEST(Pcr, OneStepDecouplesEvenOdd) {
  // After a shift-1 step, even equations must not reference odd unknowns:
  // solve the even subsystem alone and check against the full solution.
  const std::size_t n = 10;
  auto batch = make_diag_dominant<double>(1, n, 9);
  auto sys = batch.system(0);
  auto full_ref = dense_solve(const_view(sys));

  Scratch<double> scratch(n);
  auto dst = scratch.view();
  pcr_step(const_view(sys), dst, 1);

  // Even subsystem of the POST-step coefficients, solved independently.
  auto even = dst.subsystem(1, 0);
  auto even_ref = dense_solve(const_view(even));
  for (std::size_t i = 0; i < even.size(); ++i) {
    EXPECT_NEAR(even_ref[i], full_ref[2 * i], 1e-9);
  }
  // Odd subsystem too.
  auto odd = dst.subsystem(1, 1);
  auto odd_ref = dense_solve(const_view(odd));
  for (std::size_t i = 0; i < odd.size(); ++i) {
    EXPECT_NEAR(odd_ref[i], full_ref[2 * i + 1], 1e-9);
  }
}

TEST(Pcr, TwoStepsQuarterTheSystemAndPreserveSolutions) {
  // After shift-1 then shift-2 steps the equations couple at distance 4:
  // the four interleaved residue-class subsystems are independent
  // tridiagonal systems whose solutions must equal the original's.
  const std::size_t n = 13;
  auto batch = make_diag_dominant<double>(1, n, 21);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(sys));
  Scratch<double> s1(n), s2(n);
  auto mid = s1.view();
  auto fin = s2.view();
  pcr_step(const_view(sys), mid, 1);
  pcr_step(const_view(mid), fin, 2);
  for (std::size_t p = 0; p < 4; ++p) {
    auto sub = fin.subsystem(2, p);
    auto sub_ref = dense_solve(const_view(sub));
    for (std::size_t i = 0; i < sub.size(); ++i) {
      EXPECT_NEAR(sub_ref[i], ref[p + 4 * i], 1e-9)
          << "p=" << p << " i=" << i;
    }
  }
}

TEST(Pcr, FullSolveMatchesDense) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 16u, 31u, 64u, 100u}) {
    auto batch = make_diag_dominant<double>(1, n, 100 + n);
    auto pristine = make_diag_dominant<double>(1, n, 100 + n);
    auto sys = batch.system(0);
    auto ref = dense_solve(const_view(pristine.system(0)));
    Scratch<double> scratch(n);
    auto x = batch.solution(0);
    pcr_solve(sys, scratch.view(), x);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " i=" << i;
  }
}

// Chunked pcr_step_range must reproduce pcr_step bit for bit on all four
// outputs: across systems no longer than the shift, and with chunk edges
// inside the head (i < shift) and tail (i >= n - shift) boundary bands.
template <typename T>
void expect_range_steps_match_full_step() {
  for (std::size_t n : {1u, 2u, 3u, 8u, 17u, 40u, 100u}) {
    for (std::size_t shift : {1u, 2u, 3u, 8u, 16u}) {
      auto batch = make_diag_dominant<T>(1, n, 31 + n);
      const auto src = const_view(batch.system(0));
      Scratch<T> full(n), chunked(n);
      // NaN-fill so a row the chunks never write cannot compare equal.
      std::fill(chunked.buf.data(), chunked.buf.data() + 4 * n,
                std::numeric_limits<T>::quiet_NaN());
      pcr_step(src, full.view(), shift);

      const auto sn = static_cast<std::ptrdiff_t>(n);
      const auto ss = static_cast<std::ptrdiff_t>(shift);
      std::vector<std::ptrdiff_t> cuts{0, sn};
      for (std::ptrdiff_t e : {ss / 2, ss - 1, ss, ss + 1, sn - ss - 1,
                               sn - ss, sn - ss + 1, sn - 1}) {
        if (e > 0 && e < sn) cuts.push_back(e);
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      auto dst = chunked.view();
      for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
        pcr_step_range(src, dst, shift, static_cast<std::size_t>(cuts[k]),
                       static_cast<std::size_t>(cuts[k + 1]));
      }
      EXPECT_EQ(std::memcmp(full.buf.data(), chunked.buf.data(),
                            4 * n * sizeof(T)),
                0)
          << "sizeof(T)=" << sizeof(T) << " n=" << n << " shift=" << shift;
    }
  }
}

TEST(Pcr, RangeStepEqualsFullStep) {
  expect_range_steps_match_full_step<float>();
  expect_range_steps_match_full_step<double>();
}

TEST(Pcr, RangeStepRequiresUnitStride) {
  auto batch = make_diag_dominant<double>(1, 16, 32);
  auto sub = batch.system(0).subsystem(1, 0);  // stride 2
  Scratch<double> out(16);
  auto dst = out.view().subsystem(1, 0);
  EXPECT_THROW(pcr_step_range(const_view(sub), dst, 1, 0, sub.size()),
               ContractError);
}

// ---------- CR ----------

TEST(Cr, MatchesDenseAcrossSizes) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 33u, 128u}) {
    auto batch = make_diag_dominant<double>(1, n, 200 + n);
    auto pristine = make_diag_dominant<double>(1, n, 200 + n);
    auto sys = batch.system(0);
    auto ref = dense_solve(const_view(pristine.system(0)));
    auto x = batch.solution(0);
    cr_solve(sys, x);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " i=" << i;
  }
}

TEST(Cr, PoissonSystemExactlySolvable) {
  const std::size_t n = 64;
  auto batch = make_poisson<double>(1, n, 17);
  auto pristine = make_poisson<double>(1, n, 17);
  auto sys = batch.system(0);
  auto x = batch.solution(0);
  cr_solve(sys, x);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = x[i];
  EXPECT_LE(relative_residual(pristine, xs), residual_bound<double>(n));
}

// ---------- PCR-Thomas hybrid ----------

class PcrThomasSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(PcrThomasSweep, MatchesDense) {
  const auto [n, target] = GetParam();
  auto batch = make_diag_dominant<double>(1, n, 300 + n + target);
  auto pristine = make_diag_dominant<double>(1, n, 300 + n + target);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(pristine.system(0)));
  Scratch<double> scratch(n);
  auto x = batch.solution(0);
  pcr_thomas_solve(sys, scratch.view(), x, target);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " target=" << target;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSwitches, PcrThomasSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 17, 64, 100, 256),
                       ::testing::Values(1, 2, 4, 16, 64, 1024)));

TEST(PcrThomas, SplitStepsCapped) {
  // Never splits below one equation per subsystem.
  EXPECT_EQ(pcr_thomas_split_steps(8, 1024), 3u);
  EXPECT_EQ(pcr_thomas_split_steps(8, 4), 2u);
  EXPECT_EQ(pcr_thomas_split_steps(1, 64), 0u);
  EXPECT_EQ(pcr_thomas_split_steps(1024, 64), 6u);
}

// ---------- CR-PCR hybrid (Zhang et al. baseline) ----------

class CrPcrSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(CrPcrSweep, MatchesDense) {
  const auto [n, threshold] = GetParam();
  auto batch = make_diag_dominant<double>(1, n, 400 + n + threshold);
  auto pristine = make_diag_dominant<double>(1, n, 400 + n + threshold);
  auto sys = batch.system(0);
  auto ref = dense_solve(const_view(pristine.system(0)));
  auto x = batch.solution(0);
  cr_pcr_solve(sys, x, threshold);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x[i], ref[i], 1e-8) << "n=" << n << " thr=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndThresholds, CrPcrSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 17, 64, 100, 255, 256),
                       ::testing::Values(1, 2, 8, 32, 512)));

// ---------- float precision paths ----------

TEST(FloatPath, AllAlgorithmsAgree) {
  const std::size_t n = 128;
  auto make = [&] { return make_diag_dominant<float>(1, n, 555); };

  auto b_thomas = make();
  auto s = b_thomas.system(0);
  ASSERT_TRUE(thomas_solve_inplace(s, b_thomas.solution(0)));

  auto b_pcr = make();
  {
    AlignedBuffer<float> buf(4 * n);
    SystemView<float> scratch{StridedView<float>(buf.data(), n, 1),
                              StridedView<float>(buf.data() + n, n, 1),
                              StridedView<float>(buf.data() + 2 * n, n, 1),
                              StridedView<float>(buf.data() + 3 * n, n, 1)};
    pcr_solve(b_pcr.system(0), scratch, b_pcr.solution(0));
  }

  auto b_cr = make();
  cr_solve(b_cr.system(0), b_cr.solution(0));

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b_pcr.x()[i], b_thomas.x()[i], 2e-4f);
    EXPECT_NEAR(b_cr.x()[i], b_thomas.x()[i], 2e-4f);
  }
}

// ---------- residual / verification ----------

TEST(Verify, ResidualZeroForExactSolution) {
  std::vector<double> x_true;
  auto batch = make_with_known_solution<double>(1, 50, 77, &x_true);
  EXPECT_LE(relative_residual(batch, x_true), residual_bound<double>(50));
}

TEST(Verify, ResidualLargeForWrongSolution) {
  std::vector<double> x_true;
  auto batch = make_with_known_solution<double>(1, 50, 78, &x_true);
  for (auto& v : x_true) v += 1.0;
  EXPECT_GT(relative_residual(batch, x_true), 1e-3);
}

// ---------- property sweep: every solver, random dominant systems ----------

class AllSolversProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllSolversProperty, ResidualTiny) {
  const std::size_t seed = GetParam();
  Rng shape_rng(seed);
  const std::size_t n = 1 + shape_rng.below(300);
  auto pristine = make_diag_dominant<double>(1, n, seed * 13 + 1);

  auto run_and_check = [&](auto solve_fn, const char* name) {
    auto batch = make_diag_dominant<double>(1, n, seed * 13 + 1);
    solve_fn(batch);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) xs[i] = batch.x()[i];
    EXPECT_LE(relative_residual(pristine, xs), residual_bound<double>(n))
        << name << " n=" << n << " seed=" << seed;
  };

  run_and_check(
      [&](auto& b) {
        ASSERT_TRUE(thomas_solve_inplace(b.system(0), b.solution(0)));
      },
      "thomas");
  run_and_check(
      [&](auto& b) {
        Scratch<double> sc(n);
        pcr_solve(b.system(0), sc.view(), b.solution(0));
      },
      "pcr");
  run_and_check([&](auto& b) { cr_solve(b.system(0), b.solution(0)); },
                "cr");
  run_and_check(
      [&](auto& b) {
        Scratch<double> sc(n);
        pcr_thomas_solve(b.system(0), sc.view(), b.solution(0), 16);
      },
      "pcr-thomas");
  run_and_check([&](auto& b) { cr_pcr_solve(b.system(0), b.solution(0), 8); },
                "cr-pcr");
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, AllSolversProperty,
                         ::testing::Range<std::size_t>(1, 21));

}  // namespace
