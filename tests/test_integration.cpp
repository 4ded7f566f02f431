// Cross-module integration tests: the application patterns from the
// examples (ADI time stepping, spline fitting) run end to end through the
// tuner and the multi-stage solver; CPU and GPU paths cross-validate; the
// full pipeline behaves across precisions and devices.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "cpu/batch_solver.hpp"
#include "gpusim/launch.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"
#include "tuning/cache.hpp"
#include "tuning/dynamic_tuner.hpp"
#include "tuning/tuners.hpp"

namespace {

using namespace tda;

// ---------- GPU vs CPU cross-validation ----------

TEST(Integration, GpuAndCpuAgreeOnSameBatch) {
  auto gpu_batch = tridiag::make_diag_dominant<double>(24, 1500, 2024);
  auto cpu_batch = gpu_batch;

  gpusim::Device dev(gpusim::geforce_gtx_280());
  tuning::DynamicTuner<double> tuner(dev);
  auto tuned = tuner.tune({24, 1500});
  solver::GpuTridiagonalSolver<double> gpu(dev, tuned.points);
  gpu.solve(gpu_batch);

  cpu::BatchCpuSolver host(2);
  host.solve(cpu_batch);

  for (std::size_t k = 0; k < gpu_batch.total_equations(); ++k) {
    EXPECT_NEAR(gpu_batch.x()[k], cpu_batch.x()[k], 1e-8) << "k=" << k;
  }
}

TEST(Integration, AllGeneratorsSolvableByTunedSolver) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  tuning::DynamicTuner<double> tuner(dev);
  auto tuned = tuner.tune({8, 700});
  solver::GpuTridiagonalSolver<double> s(dev, tuned.points);

  auto check = [&](tridiag::TridiagBatch<double> batch, const char* name) {
    auto pristine = batch;
    s.solve(batch);
    EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
              tridiag::residual_bound<double>(batch.system_size()))
        << name;
  };
  check(tridiag::make_diag_dominant<double>(8, 700, 1), "dominant");
  check(tridiag::make_poisson<double>(8, 700, 2), "poisson");
  check(tridiag::make_spline<double>(8, 700, 3), "spline");
  check(tridiag::make_toeplitz<double>(8, 700, -1.0, 4.0, -2.0, 4),
        "toeplitz");
}

TEST(Integration, KnownSolutionRecoveredExactly) {
  std::vector<double> x_true;
  auto batch = tridiag::make_with_known_solution<double>(6, 2048, 77,
                                                         &x_true);
  gpusim::Device dev(gpusim::geforce_8800_gtx());
  solver::GpuTridiagonalSolver<double> s(
      dev, tuning::default_switch_points<double>());
  s.solve(batch);
  double worst = 0.0;
  for (std::size_t k = 0; k < x_true.size(); ++k) {
    worst = std::max(worst, std::abs(batch.x()[k] - x_true[k]));
  }
  EXPECT_LT(worst, 1e-8);
}

// ---------- ADI heat stepping (the adi_heat example's core) ----------

TEST(Integration, AdiHeatStepMatchesEigenmodeDecay) {
  const std::size_t grid = 66;
  const double h = 1.0 / (grid - 1);
  const double dt = 0.25 * h;
  const double r = dt / (2.0 * h * h);
  const double pi = std::numbers::pi;
  const std::size_t inner = grid - 2;

  std::vector<double> u(grid * grid, 0.0);
  for (std::size_t y = 0; y < grid; ++y)
    for (std::size_t x = 0; x < grid; ++x)
      u[y * grid + x] = std::sin(pi * x * h) * std::sin(pi * y * h);

  gpusim::Device dev(gpusim::geforce_gtx_470());
  solver::GpuTridiagonalSolver<double> solver(
      dev, tuning::default_switch_points<double>());

  auto half_step = [&](bool transpose_dir) {
    tridiag::TridiagBatch<double> batch(inner, inner);
    auto a = batch.a();
    auto b = batch.b();
    auto c = batch.c();
    auto d = batch.d();
    for (std::size_t row = 0; row < inner; ++row) {
      for (std::size_t col = 0; col < inner; ++col) {
        const std::size_t y = transpose_dir ? col + 1 : row + 1;
        const std::size_t x = transpose_dir ? row + 1 : col + 1;
        const std::size_t k = row * inner + col;
        a[k] = (col == 0) ? 0.0 : -r;
        c[k] = (col == inner - 1) ? 0.0 : -r;
        b[k] = 1.0 + 2.0 * r;
        const std::size_t ym = transpose_dir ? y : y - 1;
        const std::size_t yp = transpose_dir ? y : y + 1;
        const std::size_t xm = transpose_dir ? x - 1 : x;
        const std::size_t xp = transpose_dir ? x + 1 : x;
        d[k] = (1.0 - 2.0 * r) * u[y * grid + x] +
               r * (u[ym * grid + xm] + u[yp * grid + xp]);
      }
    }
    solver.solve(batch);
    auto xs = batch.x();
    for (std::size_t row = 0; row < inner; ++row) {
      for (std::size_t col = 0; col < inner; ++col) {
        const std::size_t y = transpose_dir ? col + 1 : row + 1;
        const std::size_t x = transpose_dir ? row + 1 : col + 1;
        u[y * grid + x] = xs[row * inner + col];
      }
    }
  };

  const int steps = 5;
  for (int s = 0; s < steps; ++s) {
    half_step(false);
    half_step(true);
  }

  const double t_final = steps * dt;
  const double decay = std::exp(-2.0 * pi * pi * t_final);
  double max_err = 0.0;
  for (std::size_t y = 0; y < grid; ++y) {
    for (std::size_t x = 0; x < grid; ++x) {
      const double exact = decay * std::sin(pi * x * h) *
                           std::sin(pi * y * h);
      max_err = std::max(max_err, std::abs(u[y * grid + x] - exact));
    }
  }
  EXPECT_LT(max_err, 5e-3 * decay);
}

// ---------- spline fitting (the cubic_spline example's core) ----------

TEST(Integration, SplineSecondDerivativesMatchFunction) {
  // Fit a spline through sin(x); interior M values must approximate
  // -sin(x) (the true second derivative).
  const std::size_t knots = 257;
  const double h = 2.0 * std::numbers::pi / (knots - 1);
  const std::size_t inner = knots - 2;

  tridiag::TridiagBatch<double> batch(1, inner);
  auto a = batch.a();
  auto b = batch.b();
  auto c = batch.c();
  auto d = batch.d();
  for (std::size_t i = 0; i < inner; ++i) {
    a[i] = (i == 0) ? 0.0 : 1.0;
    c[i] = (i == inner - 1) ? 0.0 : 1.0;
    b[i] = 4.0;
    const double ym = std::sin(i * h);
    const double y0 = std::sin((i + 1) * h);
    const double yp = std::sin((i + 2) * h);
    d[i] = 6.0 * (ym - 2.0 * y0 + yp) / (h * h);
  }

  gpusim::Device dev(gpusim::geforce_gtx_280());
  solver::GpuTridiagonalSolver<double> s(
      dev, tuning::default_switch_points<double>());
  s.solve(batch);

  // Check interior M values away from the natural-BC boundary layer.
  for (std::size_t i = inner / 4; i < 3 * inner / 4; ++i) {
    const double exact = -std::sin((i + 1) * h);
    EXPECT_NEAR(batch.x()[i], exact, 5e-4) << "i=" << i;
  }
}

// ---------- tuning cache across solver runs ----------

TEST(Integration, CachedTuningReproducesSolvePerformance) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  tuning::TuningCache cache;
  const solver::Workload w{32, 4096};

  tuning::DynamicTuner<float> t1(dev, &cache);
  auto r1 = t1.tune(w);
  solver::GpuTridiagonalSolver<float> s1(dev, r1.points);
  const double ms1 = s1.simulate_ms(w);

  tuning::DynamicTuner<float> t2(dev, &cache);
  auto r2 = t2.tune(w);  // cache hit
  ASSERT_TRUE(r2.from_cache);
  solver::GpuTridiagonalSolver<float> s2(dev, r2.points);
  const double ms2 = s2.simulate_ms(w);

  EXPECT_DOUBLE_EQ(ms1, ms2);
}

// ---------- precision sweep through the whole stack ----------

template <typename T>
class PrecisionPipeline : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(PrecisionPipeline, Precisions);

TYPED_TEST(PrecisionPipeline, TuneSolveVerify) {
  using T = TypeParam;
  for (const auto& spec : gpusim::device_registry()) {
    gpusim::Device dev(spec);
    tuning::DynamicTuner<T> tuner(dev);
    auto tuned = tuner.tune({16, 3000});
    solver::GpuTridiagonalSolver<T> s(dev, tuned.points);
    auto batch = tridiag::make_diag_dominant<T>(16, 3000, 11);
    auto pristine = batch;
    s.solve(batch);
    EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
              tridiag::residual_bound<T>(3000))
        << spec.name;
  }
}

}  // namespace
