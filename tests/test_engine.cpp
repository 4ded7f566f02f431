// Tests for the parallel block-execution engine (gpusim::ThreadPool +
// EngineScratch), the arena-hygiene guarantees of BlockContext, the
// pooled buffer allocator, and — most importantly — the determinism
// contract: simulated time, solutions, launch counts and fault-site
// decision counters must be bitwise identical at every thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/buffer_pool.hpp"
#include "faults/faults.hpp"
#include "gpusim/device.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/thread_pool.hpp"
#include "kernels/device_batch.hpp"
#include "kernels/pcr_thomas_kernel.hpp"
#include "service/solve_service.hpp"
#include "solver/gpu_solver.hpp"
#include "tridiag/generators.hpp"
#include "tridiag/verify.hpp"

namespace {

using namespace tda;
using namespace tda::gpusim;
using tridiag::make_diag_dominant;

/// Restores the global pool's lane count when a test is done, so thread
/// sweeps cannot leak into later tests.
class PoolLanesGuard {
 public:
  PoolLanesGuard() : saved_(ThreadPool::global().lanes()) {}
  ~PoolLanesGuard() { ThreadPool::global().resize(saved_); }

 private:
  int saved_;
};

// ---------- ThreadPool mechanics ----------

TEST(ThreadPool, SingleLaneSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.lanes(), 1);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<int> hits(64, 0);
  pool.run(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(pool.inline_runs(), 1u);
  EXPECT_EQ(pool.parallel_runs(), 0u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 3);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.parallel_runs(), 1u);
}

TEST(ThreadPool, SingleItemRunsInline) {
  ThreadPool pool(4);
  std::thread::id ran_on;
  pool.run(1, [&](std::size_t, std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.inline_runs(), 1u);
}

TEST(ThreadPool, ReentrantRunExecutesInline) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.run(8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // A kernel body that itself tries to parallelize must not
      // deadlock on the shared workers.
      pool.run(4, [&](std::size_t ib, std::size_t ie) {
        inner_total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

TEST(ThreadPool, ResizeChangesWorkerCount) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.workers(), 1);
  pool.resize(5);
  EXPECT_EQ(pool.lanes(), 5);
  EXPECT_EQ(pool.workers(), 4);
  std::atomic<int> total{0};
  pool.run(100, [&](std::size_t b, std::size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 100);
  pool.resize(1);
  EXPECT_EQ(pool.workers(), 0);
}

TEST(ThreadPool, ConcurrentCallersShareWorkers) {
  ThreadPool pool(4);
  std::atomic<int> a{0}, b{0};
  std::thread other([&] {
    pool.run(500, [&](std::size_t lo, std::size_t hi) {
      a.fetch_add(static_cast<int>(hi - lo));
    });
  });
  pool.run(500, [&](std::size_t lo, std::size_t hi) {
    b.fetch_add(static_cast<int>(hi - lo));
  });
  other.join();
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 500);
}

TEST(ThreadPool, LanesFromEnvParsesAndFallsBack) {
  const char* saved = std::getenv("TDA_THREADS");
  const std::string saved_val = saved != nullptr ? saved : "";
  ::setenv("TDA_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::lanes_from_env(), 3);
  ::setenv("TDA_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::lanes_from_env(), 1);
  ::setenv("TDA_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::lanes_from_env(), 1);
  if (saved != nullptr) {
    ::setenv("TDA_THREADS", saved_val.c_str(), 1);
  } else {
    ::unsetenv("TDA_THREADS");
  }
}

// ---------- EngineScratch ----------

TEST(EngineScratch, AllocationsAreStableAcrossGrowth) {
  EngineScratch& es = EngineScratch::local();
  es.reset_scratch();
  auto* first = static_cast<double*>(es.scratch_alloc(8 * sizeof(double),
                                                      alignof(double)));
  for (int i = 0; i < 8; ++i) first[i] = 41.0 + i;
  // Force chunk growth well past the first chunk's capacity; the first
  // allocation must not move (kernels hold spans across allocations).
  for (int k = 0; k < 64; ++k) {
    void* p = es.scratch_alloc(256 * 1024, 64);
    ASSERT_NE(p, nullptr);
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(first[i], 41.0 + i);
  es.reset_scratch();
}

TEST(EngineScratch, ResetReusesCapacity) {
  EngineScratch& es = EngineScratch::local();
  es.reset_scratch();
  (void)es.scratch_alloc(1024, 64);
  (void)es.scratch_alloc(2048, 64);
  const std::size_t cap = es.scratch_capacity();
  es.reset_scratch();
  (void)es.scratch_alloc(1024, 64);
  (void)es.scratch_alloc(2048, 64);
  EXPECT_EQ(es.scratch_capacity(), cap);  // no new chunks in steady state
  es.reset_scratch();
}

TEST(EngineScratch, RespectsAlignment) {
  EngineScratch& es = EngineScratch::local();
  es.reset_scratch();
  (void)es.scratch_alloc(1, 1);
  void* p = es.scratch_alloc(64, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  es.reset_scratch();
}

// ---------- arena hygiene (the cross-block stale-data fix) ----------

TEST(ArenaHygiene, BlocksNeverSeePriorBlockSharedData) {
  PoolLanesGuard guard;
  ThreadPool::global().resize(1);  // serial: blocks share one lane arena
  Device dev(geforce_gtx_470());
  dev.set_arena_poison(false);
  LaunchConfig cfg;
  cfg.blocks = 8;
  cfg.threads_per_block = 32;
  cfg.shared_bytes = 1024;
  std::atomic<int> leaks{0};
  dev.launch(cfg, [&](BlockContext& ctx) {
    auto s = ctx.shared_alloc<float>(64);
    for (float v : s) {
      if (v != 0.0f) leaks.fetch_add(1);
    }
    // Plant a sentinel the NEXT block must not observe.
    for (auto& v : s) v = 1234.5f;
  });
  EXPECT_EQ(leaks.load(), 0);
}

TEST(ArenaHygiene, PoisonMakesUninitializedReadsFailLoudly) {
  PoolLanesGuard guard;
  ThreadPool::global().resize(1);
  Device dev(geforce_gtx_470());
  dev.set_arena_poison(true);
  LaunchConfig cfg;
  cfg.blocks = 2;
  cfg.threads_per_block = 32;
  cfg.shared_bytes = 1024;
  std::atomic<int> nans{0};
  dev.launch(cfg, [&](BlockContext& ctx) {
    // A buggy kernel that READS shared memory it never wrote: with
    // poison on it must compute NaN, not a silently-stale value.
    auto s = ctx.shared_alloc<float>(16);
    auto r = ctx.scratch_alloc<float>(16);
    for (std::size_t i = 0; i < 16; ++i) {
      if (std::isnan(s[i]) && std::isnan(r[i])) nans.fetch_add(1);
    }
  });
  EXPECT_EQ(nans.load(), 2 * 16);
}

TEST(ArenaHygiene, PoisonedSolveStillCorrect) {
  // The full pipeline must write every shared/scratch word before
  // reading it — poison every allocation and demand a tiny residual.
  PoolLanesGuard guard;
  for (int lanes : {1, 4}) {
    ThreadPool::global().resize(lanes);
    Device dev(geforce_gtx_470());
    dev.set_arena_poison(true);
    solver::GpuTridiagonalSolver<double> solver(dev, solver::SwitchPoints{});
    auto batch = make_diag_dominant<double>(6, 1024, 42);
    const auto pristine = batch;
    solver.solve(batch);
    EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
              tridiag::residual_bound<double>(1024))
        << "lanes=" << lanes;
  }
}

// ---------- determinism: the engine's core contract ----------

struct SolveSnapshot {
  std::vector<double> x;
  double elapsed = 0.0;
  std::size_t launches = 0;
  std::uint64_t decisions[faults::kSiteCount] = {};
};

SolveSnapshot run_solve(int lanes, std::size_t m, std::size_t n,
                        kernels::LoadVariant variant) {
  ThreadPool::global().resize(lanes);
  auto& inj = faults::FaultInjector::global();
  inj.reset_counters();
  Device dev(geforce_gtx_470());
  dev.arm_faults();  // exercise the decision draws, not the faults
  solver::SwitchPoints sp;
  sp.variant = variant;
  solver::GpuTridiagonalSolver<double> solver(dev, sp);
  auto batch = make_diag_dominant<double>(m, n, 7 * m + n);
  solver.solve(batch);
  SolveSnapshot snap;
  snap.x.assign(batch.x().begin(), batch.x().end());
  snap.elapsed = dev.elapsed_seconds();
  snap.launches = dev.kernels_launched();
  for (int s = 0; s < faults::kSiteCount; ++s) {
    snap.decisions[s] = inj.decisions(static_cast<faults::Site>(s));
  }
  return snap;
}

class EngineDeterminism
    : public ::testing::TestWithParam<kernels::LoadVariant> {};

TEST_P(EngineDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  PoolLanesGuard guard;
  // Tiny rate so every decision is still drawn and counted.
  faults::FaultConfig fc;
  fc.rate_of(faults::Site::DeviceLaunch) = 1e-12;
  fc.rate_of(faults::Site::DeviceAlloc) = 1e-12;
  fc.rate_of(faults::Site::DeviceOOM) = 1e-12;
  faults::ScopedFaultConfig scoped(fc);

  // m=4, n=4096 engages all of stage 1 (to reach 16 systems), stage 2
  // (down to 256 on-chip) and stage 3/4.
  const auto ref = run_solve(1, 4, 4096, GetParam());
  ASSERT_GT(ref.launches, 3u);
  for (int lanes : {2, 8}) {
    const auto got = run_solve(lanes, 4, 4096, GetParam());
    ASSERT_EQ(got.x.size(), ref.x.size());
    EXPECT_EQ(std::memcmp(got.x.data(), ref.x.data(),
                          ref.x.size() * sizeof(double)),
              0)
        << "solutions differ at lanes=" << lanes;
    EXPECT_EQ(got.elapsed, ref.elapsed)
        << "simulated time differs at lanes=" << lanes;
    EXPECT_EQ(got.launches, ref.launches);
    for (int s = 0; s < faults::kSiteCount; ++s) {
      EXPECT_EQ(got.decisions[s], ref.decisions[s])
          << "fault decision count differs at site " << s
          << " lanes=" << lanes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LoadVariants, EngineDeterminism,
                         ::testing::Values(kernels::LoadVariant::Strided,
                                           kernels::LoadVariant::Coalesced));

TEST(EngineDeterminism, ParallelRethrowsLowestFailingBlock) {
  PoolLanesGuard guard;
  LaunchConfig cfg;
  cfg.blocks = 64;
  cfg.threads_per_block = 32;
  cfg.shared_bytes = 256;
  for (int lanes : {1, 2, 8}) {
    ThreadPool::global().resize(lanes);
    Device dev(geforce_gtx_470());
    try {
      dev.launch(cfg, [&](BlockContext& ctx) {
        const std::size_t b = ctx.block_index();
        if (b == 11 || b == 37 || b == 60) {
          throw std::runtime_error("block " + std::to_string(b));
        }
      });
      FAIL() << "launch should have thrown (lanes=" << lanes << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "block 11") << "lanes=" << lanes;
    }
  }
}

TEST(EngineDeterminism, ParallelPathActuallyRuns) {
  PoolLanesGuard guard;
  ThreadPool::global().resize(4);
  const auto before = ThreadPool::global().parallel_runs();
  Device dev(geforce_gtx_470());
  LaunchConfig cfg;
  cfg.blocks = 256;
  cfg.threads_per_block = 64;
  cfg.shared_bytes = 0;
  std::set<std::thread::id> seen;
  std::mutex mu;
  dev.launch(cfg, [&](BlockContext&) {
    std::lock_guard lk(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ThreadPool::global().parallel_runs(), before);
  EXPECT_GE(seen.size(), 1u);
}

// ---------- BufferPool ----------

TEST(BufferPool, ReusesReleasedBuffer) {
  BufferPool pool;
  std::byte* raw = nullptr;
  {
    PoolBlock b = pool.acquire(100 * 1024);
    raw = b.data();
    ASSERT_NE(raw, nullptr);
    EXPECT_GE(b.capacity(), 100u * 1024);
  }
  PoolBlock again = pool.acquire(100 * 1024);
  EXPECT_EQ(again.data(), raw);  // warm hit, same slab
  const auto st = pool.stats();
  EXPECT_EQ(st.acquires, 2u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
}

TEST(BufferPool, SizeClassRounding) {
  EXPECT_EQ(BufferPool::size_class(1), 4096u);
  EXPECT_EQ(BufferPool::size_class(4096), 4096u);
  EXPECT_EQ(BufferPool::size_class(4097), 8192u);
  // Same class => reuse even for slightly different requests.
  BufferPool pool;
  std::byte* raw = nullptr;
  {
    PoolBlock b = pool.acquire(5000);
    raw = b.data();
  }
  PoolBlock again = pool.acquire(6000);
  EXPECT_EQ(again.data(), raw);
}

TEST(BufferPool, TrimFreesCachedBuffers) {
  BufferPool pool;
  { PoolBlock b = pool.acquire(64 * 1024); }
  EXPECT_GT(pool.stats().cached_bytes, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  EXPECT_EQ(pool.stats().cached_buffers, 0u);
}

TEST(BufferPool, ZeroCapEvictsOnRelease) {
  BufferPool pool(0);
  { PoolBlock b = pool.acquire(8 * 1024); }
  const auto st = pool.stats();
  EXPECT_EQ(st.cached_bytes, 0u);
  EXPECT_EQ(st.evictions, 1u);
}

TEST(BufferPool, PoisonFillsAcquiredBlocks) {
  BufferPool pool;
  pool.set_poison(true);
  PoolBlock b = pool.acquire(4096);
  const auto* f = reinterpret_cast<const float*>(b.data());
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(std::isnan(f[i]));
}

TEST(BufferPool, OutstandingBytesTracked) {
  BufferPool pool;
  PoolBlock a = pool.acquire(4096);
  EXPECT_EQ(pool.stats().outstanding_bytes, 4096u);
  a.reset();
  EXPECT_EQ(pool.stats().outstanding_bytes, 0u);
}

// ---------- pooled DeviceBatch ----------

TEST(PooledDeviceBatch, SteadyStateSolvePerformsNoHostAllocations) {
  // Serial lane: with one execution lane the scratch warm-up is
  // deterministic, so the steady state must be EXACTLY allocation-free.
  // (At higher lane counts a worker that loses every chunk race can warm
  // its thread-local arena on a later solve — bounded, but racy.)
  PoolLanesGuard guard;
  ThreadPool::global().resize(1);
  Device dev(geforce_gtx_470());
  solver::GpuTridiagonalSolver<double> solver(dev, solver::SwitchPoints{});
  auto batch = make_diag_dominant<double>(8, 1024, 3);
  solver.solve(batch);  // warms pool slab + the lane's scratch arena
  const auto before = host_alloc_count();
  solver.solve(batch);
  solver.solve(batch);
  EXPECT_EQ(host_alloc_count(), before)
      << "repeat solves of one shape must be allocation-free";
}

TEST(PooledDeviceBatch, ParallelSolvesReuseThePooledSlab) {
  PoolLanesGuard guard;
  ThreadPool::global().resize(4);
  Device dev(geforce_gtx_470());
  solver::GpuTridiagonalSolver<double> solver(dev, solver::SwitchPoints{});
  auto batch = make_diag_dominant<double>(8, 1024, 3);
  solver.solve(batch);
  const auto st0 = BufferPool::global().stats();
  solver.solve(batch);
  solver.solve(batch);
  const auto st1 = BufferPool::global().stats();
  EXPECT_EQ(st1.misses, st0.misses) << "device-batch slab must be a warm hit";
  EXPECT_EQ(st1.hits, st0.hits + 2);
}

TEST(PooledDeviceBatch, PoisonedPoolSolveIsCorrect) {
  // DeviceBatch deliberately skips zero-filling its pooled slab; prove
  // the pipeline overwrites everything it reads even when the slab
  // starts as all-NaN.
  auto& pool = BufferPool::global();
  pool.trim();
  pool.set_poison(true);
  Device dev(geforce_gtx_470());
  solver::GpuTridiagonalSolver<double> solver(dev, solver::SwitchPoints{});
  auto batch = make_diag_dominant<double>(4, 2048, 11);
  const auto pristine = batch;
  solver.solve(batch);
  pool.set_poison(false);
  EXPECT_LE(tridiag::relative_residual(pristine, batch.x()),
            tridiag::residual_bound<double>(2048));
}

TEST(PooledDeviceBatch, ShapeOnlyBatchStillInertWithPoisonedPool) {
  auto& pool = BufferPool::global();
  pool.trim();
  pool.set_poison(true);
  kernels::DeviceBatch<float> b(2, 8);
  pool.set_poison(false);
  auto sys = b.cur_system(0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sys.a[i], 0.0f);
    EXPECT_EQ(sys.b[i], 1.0f);
    EXPECT_EQ(sys.c[i], 0.0f);
    EXPECT_EQ(sys.d[i], 0.0f);
  }
}

// ---------- service integration ----------

TEST(ServiceEngine, EngineThreadsKnobResizesSharedPool) {
  PoolLanesGuard guard;
  service::ServiceConfig cfg;
  cfg.engine_threads = 2;
  cfg.flush_systems = 1;
  {
    service::SolveService<double> svc({geforce_gtx_470()}, cfg);
    EXPECT_EQ(ThreadPool::global().lanes(), 2);
    service::SolveRequest<double> req;
    const std::size_t n = 64;
    req.a.assign(n, -1.0);
    req.b.assign(n, 4.0);
    req.c.assign(n, -1.0);
    req.d.assign(n, 2.0);
    req.a.front() = req.c.back() = 0.0;
    auto fut = svc.submit(std::move(req));
    auto resp = fut.get();
    EXPECT_EQ(resp.status, service::SolveStatus::Ok);
  }
}

}  // namespace
