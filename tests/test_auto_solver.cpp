// Tests for the AutoSolver facade and ragged (variable-size) batches.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "gpusim/launch.hpp"
#include "solver/auto_solver.hpp"
#include "solver/ragged.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"

namespace {

using namespace tda;
using namespace tda::solver;

// ---------- RaggedBatch ----------

RaggedBatch<double> make_ragged(const std::vector<std::size_t>& sizes,
                                std::uint64_t seed) {
  RaggedBatch<double> rb{std::vector<std::size_t>(sizes)};
  Rng rng(seed);
  auto a = rb.a();
  auto b = rb.b();
  auto c = rb.c();
  auto d = rb.d();
  for (std::size_t s = 0; s < rb.num_systems(); ++s) {
    const std::size_t off = rb.offset(s);
    const std::size_t n = rb.system_size(s);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = off + i;
      a[k] = (i == 0) ? 0.0 : rng.uniform(-1, 1);
      c[k] = (i == n - 1) ? 0.0 : rng.uniform(-1, 1);
      b[k] = (std::abs(a[k]) + std::abs(c[k])) * 2.0 + 0.5;
      d[k] = rng.uniform(-1, 1);
    }
  }
  return rb;
}

// Holds every system of a solved ragged batch to the acceptance bound at
// its own size.
void expect_ragged_solved(const RaggedBatch<double>& rb) {
  for (std::size_t s = 0; s < rb.num_systems(); ++s) {
    const std::size_t off = rb.offset(s);
    const std::size_t n = rb.system_size(s);
    const auto at = [off](std::span<const double> v) {
      return v.data() + off;
    };
    EXPECT_LE(tridiag::relative_residual(
                  tridiag::contiguous_system(at(rb.a()), at(rb.b()),
                                             at(rb.c()), at(rb.d()), n),
                  StridedView<const double>(at(rb.x()), n, 1)),
              tridiag::residual_bound<double>(n))
        << "system " << s << " n=" << n;
  }
}

TEST(RaggedBatch, OffsetsAndSizes) {
  RaggedBatch<double> rb{{3, 5, 2}};
  EXPECT_EQ(rb.num_systems(), 3u);
  EXPECT_EQ(rb.total_equations(), 10u);
  EXPECT_EQ(rb.offset(0), 0u);
  EXPECT_EQ(rb.offset(1), 3u);
  EXPECT_EQ(rb.offset(2), 8u);
  EXPECT_EQ(rb.system_size(1), 5u);
}

TEST(RaggedBatch, RejectsZeroSizes) {
  EXPECT_THROW(RaggedBatch<double>({4, 0, 2}), ContractError);
}

// The service layer materialises ragged views of whatever is pending,
// which may be nothing — zero systems is a valid (empty) batch.
TEST(RaggedBatch, EmptyBatchIsAllowed) {
  RaggedBatch<double> rb{std::vector<std::size_t>{}};
  EXPECT_EQ(rb.num_systems(), 0u);
  EXPECT_EQ(rb.total_equations(), 0u);
  EXPECT_TRUE(rb.groups_by_size().empty());
  EXPECT_TRUE(rb.a().empty());
}

TEST(RaggedBatch, GroupsBySize) {
  RaggedBatch<double> rb{{8, 4, 8, 2, 4, 8}};
  auto groups = rb.groups_by_size();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].first, 2u);
  EXPECT_EQ(groups[0].second, (std::vector<std::size_t>{3}));
  EXPECT_EQ(groups[1].first, 4u);
  EXPECT_EQ(groups[1].second, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(groups[2].first, 8u);
  EXPECT_EQ(groups[2].second, (std::vector<std::size_t>{0, 2, 5}));
}

TEST(RaggedBatch, GatherScatterRoundTrip) {
  auto rb = make_ragged({4, 6, 4}, 55);
  auto groups = rb.groups_by_size();
  auto& [n4, members4] = groups[0];
  ASSERT_EQ(n4, 4u);
  auto batch = rb.gather_group(n4, members4);
  EXPECT_EQ(batch.num_systems(), 2u);
  EXPECT_EQ(batch.b()[0], rb.b()[rb.offset(0)]);
  for (std::size_t k = 0; k < batch.x().size(); ++k)
    batch.x()[k] = static_cast<double>(k + 1);
  rb.scatter_group(batch, members4);
  EXPECT_EQ(rb.x()[rb.offset(0)], 1.0);
  EXPECT_EQ(rb.x()[rb.offset(2)], 5.0);
  EXPECT_EQ(rb.x()[rb.offset(1)], 0.0);  // untouched group
}

// ---------- AutoSolver ----------

TEST(AutoSolver, SolvesUniformBatchAndTunesOnce) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  AutoSolver<double> solver(dev);
  auto batch = tridiag::make_diag_dominant<double>(16, 2048, 303);
  auto pristine = batch;
  solver.solve(batch);
  EXPECT_EQ(solver.tunes_performed(), 1u);
  EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
            tridiag::residual_bound<double>(2048));

  // Same shape again: no new tuning run.
  auto batch2 = tridiag::make_diag_dominant<double>(16, 2048, 304);
  solver.solve(batch2);
  EXPECT_EQ(solver.tunes_performed(), 1u);

  // New shape: one more.
  auto batch3 = tridiag::make_diag_dominant<double>(4, 512, 305);
  solver.solve(batch3);
  EXPECT_EQ(solver.tunes_performed(), 2u);
}

TEST(AutoSolver, SolvesRaggedBatch) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  AutoSolver<double> solver(dev);
  auto rb = make_ragged({100, 2048, 100, 37, 2048, 513}, 808);
  const double ms = solver.solve(rb);
  EXPECT_GT(ms, 0.0);
  expect_ragged_solved(rb);
  // 4 distinct sizes -> 4 tuning runs.
  EXPECT_EQ(solver.tunes_performed(), 4u);
}

// ---------- ragged edge cases the service layer exercises ----------

TEST(AutoSolver, SolvesEmptyRaggedBatch) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  AutoSolver<double> solver(dev);
  RaggedBatch<double> rb{std::vector<std::size_t>{}};
  EXPECT_EQ(solver.solve(rb), 0.0);
  EXPECT_EQ(solver.tunes_performed(), 0u);
}

TEST(AutoSolver, SolvesSingleOneEquationSystem) {
  gpusim::Device dev(gpusim::geforce_gtx_470());
  AutoSolver<double> solver(dev);
  RaggedBatch<double> rb{{1}};
  rb.a()[0] = 0.0;
  rb.b()[0] = 4.0;
  rb.c()[0] = 0.0;
  rb.d()[0] = 2.0;
  solver.solve(rb);
  EXPECT_NEAR(rb.x()[0], 0.5, 1e-12);
}

TEST(AutoSolver, SolvesMixedSizesSpanningSwitchPoints) {
  // Sizes straddle every regime of the tuned pipeline: trivial (1),
  // sub-Thomas-switch tails (3, 17), on-chip stage-3 sizes (64, 300),
  // and systems large enough to need stage-1/2 splitting first (4096,
  // 10000) — on the device whose tuned stage-3 size they must cross.
  gpusim::Device dev(gpusim::geforce_gtx_470());
  AutoSolver<double> solver(dev);
  auto rb = make_ragged({1, 3, 17, 64, 300, 1, 4096, 10000, 64}, 606);
  const double ms = solver.solve(rb);
  EXPECT_GT(ms, 0.0);
  expect_ragged_solved(rb);
  // 7 distinct sizes -> 7 tuning runs; repeats hit the cache.
  EXPECT_EQ(solver.tunes_performed(), 7u);
}

TEST(AutoSolver, PersistsCacheAcrossInstances) {
  const std::string path = "/tmp/tda_auto_cache_test.txt";
  std::remove(path.c_str());
  gpusim::Device dev(gpusim::geforce_gtx_470());
  {
    AutoSolver<float> solver(dev, path);
    auto batch = tridiag::make_diag_dominant<float>(8, 1024, 1);
    solver.solve(batch);
    EXPECT_EQ(solver.tunes_performed(), 1u);
  }  // destructor saves
  {
    AutoSolver<float> solver(dev, path);
    auto batch = tridiag::make_diag_dominant<float>(8, 1024, 2);
    solver.solve(batch);
    EXPECT_EQ(solver.tunes_performed(), 0u);  // cache hit from disk
  }
  std::remove(path.c_str());
}

TEST(AutoSolver, PrecisionsAreCachedSeparately) {
  gpusim::Device dev(gpusim::geforce_gtx_280());
  const std::string path = "/tmp/tda_auto_cache_prec.txt";
  std::remove(path.c_str());
  {
    AutoSolver<float> sf(dev, path);
    auto bf = tridiag::make_diag_dominant<float>(8, 1024, 3);
    sf.solve(bf);
  }
  {
    AutoSolver<double> sd(dev, path);
    auto bd = tridiag::make_diag_dominant<double>(8, 1024, 4);
    sd.solve(bd);
    EXPECT_EQ(sd.tunes_performed(), 1u);  // fp32 entry must not match
  }
  std::remove(path.c_str());
}

}  // namespace
