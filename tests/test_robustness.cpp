// End-to-end numerical robustness: the guard pipeline (prescreen,
// quarantine bisect, residual postcheck, pivoting fallback) and
// ill-conditioned inputs pushed through every stage of the multi-stage
// solver — stage-1/2 splits and both stage-3 shared-memory variants.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "cpu/batch_solver.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/guards.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"

namespace {

using namespace tda;
using namespace tda::solver;

void poison(tridiag::TridiagBatch<double>& batch, std::size_t s,
            faults::Poison kind) {
  const std::size_t n = batch.system_size();
  faults::poison_system<double>(
      batch.a().subspan(s * n, n), batch.b().subspan(s * n, n),
      batch.c().subspan(s * n, n), batch.d().subspan(s * n, n), kind);
}

// Makes system s singular in its leading 2x2 minor (c[0] = b[0],
// a[1] = b[1]) while keeping it nonsingular, finite and nonzero on the
// diagonal: it passes the prescreen, but a pivot-free Thomas sweep meets
// an exact zero pivot at row 1. Only the pivoting fallback solves it.
void zero_second_pivot(tridiag::TridiagBatch<double>& batch, std::size_t s) {
  const std::size_t n = batch.system_size();
  batch.c()[s * n] = batch.b()[s * n];
  batch.a()[s * n + 1] = batch.b()[s * n + 1];
}

double system_residual(tridiag::TridiagBatch<double>& pristine,
                       tridiag::TridiagBatch<double>& solved,
                       std::size_t s) {
  return relative_residual<double>(pristine.system(s), solved.solution(s));
}

// ---------- prescreen_system ----------

TEST(Prescreen, PassesDominantSystem) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 1);
  const auto r = prescreen_system<double>(batch.system(0));
  EXPECT_EQ(r.verdict, ScreenVerdict::Pass);
  EXPECT_GE(r.dominance, 2.0);
  EXPECT_FALSE(r.zero_diagonal);
}

TEST(Prescreen, FlagsNonFinite) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 2);
  poison(batch, 0, faults::Poison::NaN);
  const auto r = prescreen_system<double>(batch.system(0));
  EXPECT_EQ(r.verdict, ScreenVerdict::NonFinite);
}

TEST(Prescreen, FlagsZeroDiagonal) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 3);
  poison(batch, 0, faults::Poison::ZeroPivot);
  const auto r = prescreen_system<double>(batch.system(0));
  EXPECT_EQ(r.verdict, ScreenVerdict::NeedsPivoting);
  EXPECT_TRUE(r.zero_diagonal);
}

TEST(Prescreen, DominanceFloorRoutesWeakSystems) {
  // dominance = 2.0 by construction; a floor above that routes it away.
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 4);
  EXPECT_EQ(prescreen_system<double>(batch.system(0), 1.5).verdict,
            ScreenVerdict::Pass);
  EXPECT_EQ(prescreen_system<double>(batch.system(0), 3.0).verdict,
            ScreenVerdict::NeedsPivoting);
}

// ---------- relative_residual ----------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Residual, ExactSolutionIsTiny) {
  std::vector<double> x_true;
  auto batch = tridiag::make_with_known_solution<double>(1, 128, 5, &x_true);
  for (std::size_t i = 0; i < x_true.size(); ++i) batch.x()[i] = x_true[i];
  EXPECT_LE(system_residual(batch, batch, 0),
            tridiag::residual_bound<double>(128));
}

TEST(Residual, WrongSolutionIsLarge) {
  auto batch = tridiag::make_diag_dominant<double>(1, 128, 6);
  for (auto& v : batch.x()) v = 1e6;
  EXPECT_GT(system_residual(batch, batch, 0), 1e-3);
}

TEST(Residual, NonFiniteSolutionIsInfinite) {
  auto batch = tridiag::make_diag_dominant<double>(1, 32, 7);
  batch.x()[3] = kNaN;
  EXPECT_TRUE(std::isinf(system_residual(batch, batch, 0)));
}

TEST(Residual, NonFiniteRhsOrCoefficientIsInfinite) {
  for (const double bad : {kNaN, kInf}) {
    for (const int lane : {0, 1, 2, 3}) {  // a, b, c, d
      auto batch = tridiag::make_diag_dominant<double>(1, 16, 8);
      const auto solved = solver::pivoting_fallback<double>(batch.system(0),
                                                            batch.solution(0));
      ASSERT_EQ(solved, SystemStatus::FallbackUsed);
      const std::span<double> lanes[] = {batch.a(), batch.b(), batch.c(),
                                         batch.d()};
      lanes[lane][5] = bad;
      EXPECT_TRUE(std::isinf(system_residual(batch, batch, 0)))
          << "lane " << lane << " value " << bad;
    }
  }
  // a[0] and c[n-1] lie outside the matrix: they are not read.
  auto batch = tridiag::make_diag_dominant<double>(1, 16, 9);
  batch.a()[0] = kNaN;
  batch.c()[15] = kInf;
  EXPECT_TRUE(std::isfinite(system_residual(batch, batch, 0)));
}

TEST(Residual, BatchFormSeesOneNonFiniteSystem) {
  auto batch = tridiag::make_diag_dominant<double>(4, 64, 10);
  auto pristine = batch;
  cpu::BatchCpuSolver(1).solve(batch);
  EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
            tridiag::residual_bound<double>(64));
  batch.x()[2 * 64 + 17] = kNaN;
  EXPECT_TRUE(std::isinf(tridiag::relative_residual(pristine, batch.x())));
}

TEST(Residual, AllZeroSystemIsZero) {
  tridiag::TridiagBatch<double> batch(1, 8);  // a = b = c = d = x = 0
  EXPECT_EQ(system_residual(batch, batch, 0), 0.0);
}

TEST(Residual, HandComputed3x3) {
  // A = [2 1 0; 1 3 1; 0 1 4], x = (1, 2, 3), d = (4, 10, 15):
  // A x = (4, 10, 14), so ||A x - d|| = 1, ||A|| = 5, ||x|| = 3,
  // ||d|| = 15 and the backward error is 1 / (5 * 3 + 15) = 1/30.
  tridiag::TridiagBatch<double> batch(1, 3);
  const double a[] = {0, 1, 1}, b[] = {2, 3, 4}, c[] = {1, 1, 0},
               d[] = {4, 10, 15}, x[] = {1, 2, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    batch.a()[i] = a[i];
    batch.b()[i] = b[i];
    batch.c()[i] = c[i];
    batch.d()[i] = d[i];
    batch.x()[i] = x[i];
  }
  EXPECT_EQ(system_residual(batch, batch, 0), 1.0 / 30.0);
}

// ---------- pivoting_fallback ----------

TEST(PivotingFallback, SolvesZeroLeadingPivot) {
  // b[0] = 0 but the system is solvable with row pivoting.
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 8);
  batch.b()[0] = 0.0;
  batch.c()[0] = 1.0;
  auto pristine = batch;
  const auto st =
      pivoting_fallback<double>(batch.system(0), batch.solution(0));
  EXPECT_EQ(st, SystemStatus::FallbackUsed);
  EXPECT_LE(system_residual(pristine, batch, 0),
            tridiag::residual_bound<double>(batch.system_size()));
}

TEST(PivotingFallback, ReportsSingular) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 9);
  poison(batch, 0, faults::Poison::ZeroPivot);
  const auto st =
      pivoting_fallback<double>(batch.system(0), batch.solution(0));
  EXPECT_EQ(st, SystemStatus::Singular);
}

TEST(PivotingFallback, ReportsNonFinite) {
  auto batch = tridiag::make_diag_dominant<double>(1, 64, 10);
  poison(batch, 0, faults::Poison::NaN);
  const auto st =
      pivoting_fallback<double>(batch.system(0), batch.solution(0));
  EXPECT_EQ(st, SystemStatus::NonFinite);
}

// ---------- GuardedSolver ----------

TEST(GuardedSolver, CleanBatchSolvesOnGpu) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  GpuTridiagonalSolver<double> inner(dev, SwitchPoints{});
  GuardedSolver<double> guard(dev, inner);
  auto batch = tridiag::make_diag_dominant<double>(8, 1024, 11);
  auto pristine = batch;
  const auto r = guard.solve(batch);
  EXPECT_TRUE(r.all_ok());
  EXPECT_EQ(r.gpu_solved, 8u);
  EXPECT_EQ(r.fallback_used, 0u);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
            tridiag::residual_bound<double>(1024));
}

TEST(GuardedSolver, PoisonedSystemsGetTypedStatusAndBatchmatesSolve) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  GpuTridiagonalSolver<double> inner(dev, SwitchPoints{});
  GuardedSolver<double> guard(dev, inner);
  auto batch = tridiag::make_diag_dominant<double>(8, 512, 12);
  poison(batch, 2, faults::Poison::NaN);
  poison(batch, 5, faults::Poison::ZeroPivot);
  auto pristine = batch;

  const auto r = guard.solve(batch);
  EXPECT_EQ(r.status[2], SystemStatus::NonFinite);
  EXPECT_EQ(r.status[5], SystemStatus::Singular);
  EXPECT_EQ(r.nonfinite, 1u);
  EXPECT_EQ(r.singular, 1u);
  EXPECT_EQ(r.gpu_solved, 6u);
  for (std::size_t s : {0u, 1u, 3u, 4u, 6u, 7u}) {
    EXPECT_EQ(r.status[s], SystemStatus::Ok) << "system " << s;
    EXPECT_LE(system_residual(pristine, batch, s),
              tridiag::residual_bound<double>(batch.system_size()))
        << "system " << s;
  }
}

TEST(GuardedSolver, RecoverablePivotProblemUsesFallback) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  GpuTridiagonalSolver<double> inner(dev, SwitchPoints{});
  GuardedSolver<double> guard(dev, inner);
  auto batch = tridiag::make_diag_dominant<double>(4, 256, 13);
  // System 1: zero leading pivot but solvable with pivoting.
  batch.b()[256] = 0.0;
  batch.c()[256] = 1.0;
  auto pristine = batch;

  const auto r = guard.solve(batch);
  EXPECT_EQ(r.status[1], SystemStatus::FallbackUsed);
  EXPECT_EQ(r.fallback_used, 1u);
  EXPECT_EQ(r.prescreen_routed, 1u);
  EXPECT_TRUE(r.all_solved());
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(system_residual(pristine, batch, s),
              tridiag::residual_bound<double>(batch.system_size()))
        << "system " << s;
  }
}

TEST(GuardedSolver, BisectQuarantinesCulpritWithoutPrescreen) {
  // The culprit passes the screen (finite, nonzero diagonal) but has a
  // singular leading 2x2 minor, so the element-major Thomas kernel meets
  // an exact zero pivot and throws ContractError for the whole batch.
  // The bisect must isolate the single culprit, solve it by pivoting,
  // and every batchmate must still solve on the GPU.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints points;
  points.layout = tridiag::BatchLayout::ElementMajor;
  GpuTridiagonalSolver<double> inner(dev, points);
  GuardedSolver<double> guard(dev, inner);

  auto batch = tridiag::make_diag_dominant<double>(8, 64, 15);
  zero_second_pivot(batch, 3);
  auto pristine = batch;
  {
    auto raw = batch;
    EXPECT_THROW(inner.solve(raw), ContractError);
  }

  const auto r = guard.solve(batch);
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.prescreen_routed, 0u);
  EXPECT_EQ(r.status[3], SystemStatus::FallbackUsed);
  EXPECT_LE(system_residual(pristine, batch, 3),
            tridiag::residual_bound<double>(batch.system_size()));
  for (std::size_t s = 0; s < 8; ++s) {
    if (s == 3) continue;
    EXPECT_EQ(r.status[s], SystemStatus::Ok) << "system " << s;
    EXPECT_LE(system_residual(pristine, batch, s),
              tridiag::residual_bound<double>(batch.system_size()))
        << "system " << s;
  }
}

TEST(GuardedSolver, ResidualPostcheckEscalatesToFallback) {
  // The same screen-passing culprit on the system-major pipeline: with
  // thomas_switch = n the base kernel is pure PCR, which does not throw
  // but loses the solution; the residual check must catch it and the
  // fallback must deliver a correct one.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints points;
  points.stage3_system_size = 64;
  points.thomas_switch = 64;
  GpuTridiagonalSolver<double> inner(dev, points);
  GuardedSolver<double> guard(dev, inner);
  auto batch = tridiag::make_diag_dominant<double>(4, 64, 16);
  zero_second_pivot(batch, 2);
  auto pristine = batch;

  const auto r = guard.solve(batch);
  EXPECT_EQ(r.residual_rejects, 1u);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_EQ(r.status[2], SystemStatus::FallbackUsed);
  EXPECT_EQ(r.fallback_used, 1u);
  EXPECT_TRUE(r.all_solved());
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(system_residual(pristine, batch, s),
              tridiag::residual_bound<double>(batch.system_size()))
        << "system " << s;
  }
}

TEST(GuardedSolver, ReportsEveryStatsFieldOfTheRawSolve) {
  // A clean batch runs in place as one GPU solve, so the guarded stats
  // must be the raw solve's, field by field — including the transpose
  // and host timings of the element-major path.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints points;
  points.layout = tridiag::BatchLayout::ElementMajor;
  GpuTridiagonalSolver<double> inner(dev, points);
  auto raw_batch = tridiag::make_diag_dominant<double>(512, 64, 21);
  auto guarded_batch = raw_batch;
  const SolveStats raw = inner.solve(raw_batch);
  GuardedSolver<double> guard(dev, inner);
  const auto r = guard.solve(guarded_batch);
  ASSERT_TRUE(r.all_ok());
  EXPECT_EQ(r.chunks, 1u);
  EXPECT_EQ(r.stats.plan.layout, tridiag::BatchLayout::ElementMajor);
  EXPECT_EQ(r.stats.total_ms, raw.total_ms);
  EXPECT_EQ(r.stats.stage1_ms, raw.stage1_ms);
  EXPECT_EQ(r.stats.stage2_ms, raw.stage2_ms);
  EXPECT_EQ(r.stats.stage3_ms, raw.stage3_ms);
  EXPECT_GT(raw.transpose_ms, 0.0);
  EXPECT_EQ(r.stats.transpose_ms, raw.transpose_ms);
  EXPECT_EQ(r.stats.kernel_launches, raw.kernel_launches);
  EXPECT_GT(r.stats.host_total_ms, 0.0);
  EXPECT_GT(r.stats.host_transpose_ms, 0.0);
}

// ---------- ill-conditioned inputs through every solver stage ----------

// Satellite (c): push poisoned systems through the stage-1/2 splitting
// path (n >> stage3_system_size) and through both stage-3 shared-memory
// variants; statuses must be typed and batchmates must stay correct.

struct StageCase {
  const char* name;
  std::size_t m, n;
  SwitchPoints points;
};

std::vector<StageCase> stage_cases() {
  SwitchPoints strided;
  strided.variant = kernels::LoadVariant::Strided;
  SwitchPoints coalesced;
  coalesced.variant = kernels::LoadVariant::Coalesced;
  SwitchPoints deep = strided;
  deep.stage1_target_systems = 32;  // force extra stage-1 splitting
  return {
      {"stage3_strided_direct", 8, 256, strided},
      {"stage3_coalesced_direct", 8, 256, coalesced},
      {"stage12_strided_large", 4, 4096, strided},
      {"stage12_coalesced_large", 4, 4096, coalesced},
      {"stage1_deep_split", 2, 8192, deep},
  };
}

TEST(IllConditioned, TypedStatusAcrossAllStages) {
  for (const auto& tc : stage_cases()) {
    SCOPED_TRACE(tc.name);
    gpusim::Device dev(gpusim::geforce_gtx_470());
    GpuTridiagonalSolver<double> inner(dev, tc.points);
    GuardedSolver<double> guard(dev, inner);
    auto batch = tridiag::make_diag_dominant<double>(tc.m, tc.n, 18);
    poison(batch, 0, faults::Poison::NaN);
    poison(batch, tc.m - 1, faults::Poison::ZeroPivot);
    auto pristine = batch;

    const auto r = guard.solve(batch);
    EXPECT_EQ(r.status[0], SystemStatus::NonFinite);
    EXPECT_EQ(r.status[tc.m - 1], SystemStatus::Singular);
    for (std::size_t s = 1; s + 1 < tc.m; ++s) {
      EXPECT_EQ(r.status[s], SystemStatus::Ok) << "system " << s;
      EXPECT_LE(system_residual(pristine, batch, s),
                tridiag::residual_bound<double>(batch.system_size()))
          << "system " << s;
    }
  }
}

TEST(IllConditioned, UnguardedSolverThrowsContractError) {
  // Without guards the raw solver keeps its contract behavior: a poisoned
  // pivot surfaces as ContractError, not silent garbage.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  SwitchPoints points;
  points.stage3_system_size = 64;
  points.thomas_switch = 64;
  GpuTridiagonalSolver<double> solver(dev, points);
  auto batch = tridiag::make_diag_dominant<double>(4, 64, 19);
  poison(batch, 1, faults::Poison::ZeroPivot);
  EXPECT_THROW(solver.solve(batch), ContractError);
}

TEST(IllConditioned, NonDominantSolvableSystemPassesPostcheck) {
  // A weakly/non-dominant but well-posed system: the GPU result is kept
  // only if the residual check accepts it; either way the answer must be
  // correct.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  GpuTridiagonalSolver<double> inner(dev, SwitchPoints{});
  GuardedSolver<double> guard(dev, inner);
  auto batch = tridiag::make_random_general<double>(4, 512, 20);
  auto pristine = batch;
  const auto r = guard.solve(batch);
  EXPECT_TRUE(r.all_solved());
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_LE(system_residual(pristine, batch, s),
              tridiag::residual_bound<double>(batch.system_size()))
        << "system " << s;
  }
}

}  // namespace
