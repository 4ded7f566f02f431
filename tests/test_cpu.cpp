// Tests for the CPU baseline (MKL substitute): pivoting LU solver, the
// threaded batch driver and the Core-i5 cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cpu/batch_solver.hpp"
#include "cpu/cost_model.hpp"
#include "cpu/gtsv.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/thomas.hpp"
#include "tridiag/verify.hpp"

namespace {

using namespace tda;
using namespace tda::cpu;
using namespace tda::tridiag;

template <typename T>
SystemView<const T> const_view_of(const TridiagBatch<T>& batch,
                                  std::size_t s) {
  const std::size_t n = batch.system_size();
  const std::size_t off = s * n;
  return SystemView<const T>{
      StridedView<const T>(batch.a().data() + off, n, 1),
      StridedView<const T>(batch.b().data() + off, n, 1),
      StridedView<const T>(batch.c().data() + off, n, 1),
      StridedView<const T>(batch.d().data() + off, n, 1)};
}

// ---------- gtsv ----------

TEST(Gtsv, MatchesDenseOnDominantSystems) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 17u, 64u, 257u}) {
    auto batch = make_diag_dominant<double>(1, n, 900 + n);
    auto ref = dense_solve(const_view_of(batch, 0));
    std::vector<double> a(batch.a().begin(), batch.a().end());
    std::vector<double> b(batch.b().begin(), batch.b().end());
    std::vector<double> c(batch.c().begin(), batch.c().end());
    std::vector<double> d(batch.d().begin(), batch.d().end());
    std::vector<double> x(n);
    ASSERT_TRUE(gtsv_solve<double>(a, b, c, d, x));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], ref[i], 1e-9);
  }
}

TEST(Gtsv, SolvesWhereThomasFails) {
  // Zero leading diagonal entry: Thomas hits a zero pivot immediately;
  // gtsv pivots around it.
  std::vector<double> a{0, 1, 0.5}, b{0, 1, 2}, c{2, 0.5, 0}, d{2, 2.5, 3};
  {
    std::vector<double> at = a, bt = b, ct = c, dt = d, x(3);
    SystemView<double> sys{StridedView<double>(at.data(), 3, 1),
                           StridedView<double>(bt.data(), 3, 1),
                           StridedView<double>(ct.data(), 3, 1),
                           StridedView<double>(dt.data(), 3, 1)};
    EXPECT_FALSE(
        thomas_solve_inplace(sys, StridedView<double>(x.data(), 3, 1)));
  }
  std::vector<double> x(3);
  ASSERT_TRUE(gtsv_solve<double>(a, b, c, d, x));
  // Verify against dense reference on fresh copies.
  std::vector<double> a2{0, 1, 0.5}, b2{0, 1, 2}, c2{2, 0.5, 0},
      d2{2, 2.5, 3};
  SystemView<const double> sys{StridedView<const double>(a2.data(), 3, 1),
                               StridedView<const double>(b2.data(), 3, 1),
                               StridedView<const double>(c2.data(), 3, 1),
                               StridedView<const double>(d2.data(), 3, 1)};
  auto ref = dense_solve(sys);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], ref[i], 1e-12);
}

TEST(Gtsv, RobustOnRandomGeneralSystems) {
  // Random non-dominant systems: gtsv must either solve accurately or
  // report singularity — never return garbage silently.
  int solved = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const std::size_t n = 24;
    auto batch = make_random_general<double>(1, n, seed);
    auto sys = const_view_of(batch, 0);
    std::vector<double> a(batch.a().begin(), batch.a().end());
    std::vector<double> b(batch.b().begin(), batch.b().end());
    std::vector<double> c(batch.c().begin(), batch.c().end());
    std::vector<double> d(batch.d().begin(), batch.d().end());
    std::vector<double> x(n);
    if (gtsv_solve<double>(a, b, c, d, x)) {
      ++solved;
      EXPECT_LE(
          relative_residual(sys, StridedView<const double>(x.data(), n, 1)),
          residual_bound<double>(n))
          << "seed=" << seed;
    }
  }
  EXPECT_GT(solved, 30);  // singular draws are rare
}

TEST(Gtsv, SingularMatrixReported) {
  std::vector<double> a{0, 0}, b{0, 0}, c{0, 0}, d{1, 1};
  std::vector<double> x(2);
  EXPECT_FALSE(gtsv_solve<double>(a, b, c, d, x));
}

TEST(Gtsv, SizeOne) {
  std::vector<double> a{0}, b{5}, c{0}, d{10}, x(1);
  ASSERT_TRUE(gtsv_solve<double>(a, b, c, d, x));
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Gtsv, FloatPath) {
  auto batch = make_diag_dominant<float>(1, 100, 31);
  auto ref = dense_solve(const_view_of(batch, 0));
  std::vector<float> a(batch.a().begin(), batch.a().end());
  std::vector<float> b(batch.b().begin(), batch.b().end());
  std::vector<float> c(batch.c().begin(), batch.c().end());
  std::vector<float> d(batch.d().begin(), batch.d().end());
  std::vector<float> x(100);
  ASSERT_TRUE(gtsv_solve<float>(a, b, c, d, x));
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_NEAR(x[i], static_cast<float>(ref[i]), 1e-3f);
}

// ---------- batch driver ----------

TEST(BatchCpuSolver, SolvesBatchCorrectly) {
  auto batch = make_diag_dominant<double>(32, 65, 44);
  auto pristine = batch;
  BatchCpuSolver solver(2);
  auto st = solver.solve(batch);
  EXPECT_EQ(st.failures, 0u);
  EXPECT_EQ(st.threads_used, 2);
  EXPECT_LE(relative_residual(pristine, batch.x()), residual_bound<double>(65));
}

TEST(BatchCpuSolver, PreservesCoefficients) {
  auto batch = make_diag_dominant<double>(4, 32, 45);
  const double b0 = batch.b()[10];
  BatchCpuSolver solver(1);
  solver.solve(batch);
  EXPECT_EQ(batch.b()[10], b0);
}

TEST(BatchCpuSolver, AutoThreadsPaperPolicy) {
  // m == 1 -> single thread (MKL solver is sequential).
  auto single = make_diag_dominant<double>(1, 128, 46);
  BatchCpuSolver solver(0);
  EXPECT_EQ(solver.solve(single).threads_used, 1);
  // m > 1 -> two threads.
  auto many = make_diag_dominant<double>(8, 128, 47);
  EXPECT_EQ(solver.solve(many).threads_used, 2);
}

TEST(BatchCpuSolver, SingleVsMultiThreadSameAnswer) {
  auto b1 = make_diag_dominant<double>(16, 77, 48);
  auto b2 = b1;
  BatchCpuSolver s1(1), s4(4);
  s1.solve(b1);
  s4.solve(b2);
  for (std::size_t k = 0; k < b1.total_equations(); ++k)
    EXPECT_DOUBLE_EQ(b1.x()[k], b2.x()[k]);
}

TEST(BatchCpuSolver, CountsSingularSystems) {
  TridiagBatch<double> batch(3, 4);
  // Leave systems all-zero -> singular; fill one good system.
  auto sys = batch.system(1);
  for (std::size_t i = 0; i < 4; ++i) {
    sys.b[i] = 4.0;
    sys.d[i] = 1.0;
  }
  BatchCpuSolver solver(1);
  auto st = solver.solve(batch);
  EXPECT_EQ(st.failures, 2u);
}

// ---------- cost model ----------

TEST(CpuModel, CalibratedToPaperAnchors) {
  auto spec = paper_core_i5();
  // Fig. 8 CPU anchors: 1K×1K ≈ 10.7 ms (2 threads), 1×2M ≈ 34 ms (1
  // thread), fp32.
  EXPECT_NEAR(mkl_model_ms(spec, 1024, 1024, 4), 10.7, 1.5);
  EXPECT_NEAR(mkl_model_ms(spec, 1, 2 * 1024 * 1024, 4), 34.0, 4.0);
}

TEST(CpuModel, ScalesLinearlyInWork) {
  auto spec = paper_core_i5();
  const double t1 = mkl_model_ms(spec, 1024, 1024, 4);
  const double t4 = mkl_model_ms(spec, 2048, 2048, 4);
  EXPECT_NEAR(t4 / t1, 4.0, 1e-9);
}

TEST(CpuModel, SingleSystemUsesSingleThreadBandwidth) {
  auto spec = paper_core_i5();
  const double many = mkl_model_ms(spec, 2, 1 << 20, 4);
  const double one = mkl_model_ms(spec, 1, 1 << 21, 4);
  EXPECT_GT(one, many);  // same work, lower bandwidth
}

}  // namespace
