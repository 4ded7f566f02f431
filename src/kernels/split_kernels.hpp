#pragma once
// Global-memory splitting kernels (paper Stages 1 and 2).
//
// Both stages perform PCR steps with doubling shifts over the original
// contiguous arrays; neither reorders data, so subsystems stay interleaved
// and accesses stay coalesced until strides grow. They differ in launch
// structure and therefore cost:
//
//  * Stage 1 (cooperative split): ONE split per kernel launch. The grid
//    covers all equations with many small blocks, so even a single system
//    saturates the memory system — but every split pays a kernel-launch
//    (grid synchronization) overhead. Used while there are too few
//    independent systems to keep the machine busy.
//
//  * Stage 2 (independent split): each block owns one current subsystem
//    and performs ALL remaining splits in one launch with cheap block-
//    level syncs. Parallelism equals the number of independent
//    subsystems, and accesses inherit the subsystem stride at entry.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "gpusim/launch.hpp"
#include "kernels/config.hpp"
#include "kernels/device_batch.hpp"
#include "tridiag/pcr.hpp"

namespace tda::kernels {

/// Tracks how many split steps a batch has undergone. After `splits`
/// steps every original system consists of 2^splits independent
/// interleaved subsystems.
struct SplitState {
  std::size_t splits = 0;

  [[nodiscard]] std::size_t parts() const { return std::size_t{1} << splits; }
  /// Size of the largest subsystem of an original system of size n.
  [[nodiscard]] std::size_t max_sub_size(std::size_t n) const {
    return (n + parts() - 1) / parts();
  }
};

/// Flops per equation of one PCR step (warp instructions, incl. address
/// arithmetic and shared/global moves).
inline constexpr double kPcrStepWarpInsts = 16.0;
/// Global traffic per equation per split step, in coefficient values:
/// 12 reads (self + both neighbour windows, 4 arrays — uncached on these
/// parts, so the overlapping windows hit DRAM separately) + 4 writes.
inline constexpr double kPcrStepValuesPerEq = 16.0;

/// Stage 1: one cooperative split of every system in the batch (one
/// kernel launch; the caller loops). Advances `st` by one split.
template <typename T>
gpusim::KernelStats stage1_split_step(gpusim::Device& dev,
                                      DeviceBatch<T>& batch, SplitState& st,
                                      ExecMode mode = ExecMode::Full) {
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::size_t shift = st.parts();  // global-index shift of this step
  TDA_REQUIRE(shift < n, "system is already fully decoupled");

  const int threads = 256;
  const std::size_t total = m * n;
  gpusim::LaunchConfig cfg;
  cfg.blocks = (total + threads - 1) / threads;
  cfg.blocks = std::min<std::size_t>(
      cfg.blocks, static_cast<std::size_t>(dev.spec().max_grid_blocks));
  cfg.threads_per_block = threads;
  cfg.shared_bytes = 0;
  cfg.regs_per_thread = split_kernel_regs_per_thread(dev.query());

  const std::size_t chunk = (total + cfg.blocks - 1) / cfg.blocks;
  auto stats = dev.launch(cfg, [&](gpusim::BlockContext& ctx) {
    const std::size_t g0 = ctx.block_index() * chunk;
    const std::size_t g1 = std::min(total, g0 + chunk);
    if (g0 >= g1) return;
    // Work through every system this chunk overlaps.
    for (std::size_t s = g0 / n; s * n < g1 && s < m; ++s) {
      const std::size_t lo = (g0 > s * n) ? g0 - s * n : 0;
      const std::size_t hi = std::min(n, g1 - s * n);
      if (lo >= hi) continue;
      if (mode == ExecMode::Full) {
        auto src = batch.cur_system_const(s);
        auto dst = batch.alt_system(s);
        tridiag::pcr_step_range(src, dst, shift, lo, hi);
      }

      const double len = static_cast<double>(hi - lo);
      // Grid-wide synchronization penalty: every Stage-1 split is a
      // dependent full-array pass bounded by coop_sync_efficiency of
      // peak bandwidth.
      ctx.charge_global(kPcrStepValuesPerEq * len * sizeof(T) /
                            ctx.device().coop_sync_efficiency,
                        1, sizeof(T));
      ctx.charge_phase(ctx.threads(),
                       std::ceil(len / ctx.threads()),
                       kPcrStepWarpInsts);
    }
  }, "stage1_coop_split");
  batch.swap_buffers();
  ++st.splits;
  return stats;
}

/// Subsystems one Stage-2 host tile sweeps together (see stage2_split).
inline constexpr std::size_t kStage2TileParts = 64;

/// Stage 2: every current subsystem gets its own block, which performs
/// `steps` further splits in a single launch. Advances `st` by `steps`.
///
/// Host traversal: local row i of subsystem p is global row p + i*P
/// (P = entry parts) and a local shift 2^t is the global shift 2^t*P with
/// the same boundary conditions, so Q = min(P, kStage2TileParts) adjacent
/// subsystems form a tile whose rows are Q contiguous elements. The
/// tile's first block runs every step of the whole tile as unit-stride
/// pcr_step_range sweeps (one sweep over the system when Q = P). Tiles
/// are aligned and disjoint, so they never race, and every output bit
/// equals the per-subsystem pcr_step walk. Each block still charges
/// exactly its own subsystem, so simulated cost is unchanged.
template <typename T>
gpusim::KernelStats stage2_split(gpusim::Device& dev, DeviceBatch<T>& batch,
                                 SplitState& st, std::size_t steps,
                                 ExecMode mode = ExecMode::Full) {
  TDA_REQUIRE(steps >= 1, "stage 2 must perform at least one step");
  const std::size_t m = batch.num_systems();
  const std::size_t n = batch.system_size();
  const std::size_t entry_parts = st.parts();
  const std::size_t entry_stride = entry_parts;
  const std::size_t tile = std::min(entry_parts, kStage2TileParts);
  TDA_REQUIRE((entry_parts << steps) <= n,
              "stage 2 would split below one equation per subsystem");

  gpusim::LaunchConfig cfg;
  cfg.blocks = m * entry_parts;
  cfg.threads_per_block = 256;
  cfg.shared_bytes = 0;
  cfg.regs_per_thread = split_kernel_regs_per_thread(dev.query());

  auto stats = dev.launch(cfg, [&](gpusim::BlockContext& ctx) {
    const std::size_t s = ctx.block_index() / entry_parts;
    const std::size_t p = ctx.block_index() % entry_parts;
    if (mode == ExecMode::Full && p % tile == 0) {
      // Ping-pong locally: the tile is disjoint from every other tile,
      // so flipping buffers per step is hazard-free.
      tridiag::SystemView<T> views[2] = {batch.cur_system(s),
                                         batch.alt_system(s)};
      int cur = 0;
      for (std::size_t t = 0; t < steps; ++t) {
        const std::size_t shift = entry_parts << t;  // global index space
        const tridiag::SystemView<const T> src{
            views[cur].a.as_const(), views[cur].b.as_const(),
            views[cur].c.as_const(), views[cur].d.as_const()};
        if (tile == entry_parts) {  // the tile is the whole system
          tridiag::pcr_step_range(src, views[1 - cur], shift, 0, n);
        } else {
          for (std::size_t row = p; row < n; row += entry_parts) {
            tridiag::pcr_step_range(src, views[1 - cur], shift, row,
                                    std::min(n, row + tile));
          }
        }
        cur = 1 - cur;
      }
    }

    // Length of this block's subsystem p (rows p, p+P, ... below n).
    const double len =
        static_cast<double>((n - p + entry_parts - 1) / entry_parts);
    for (std::size_t t = 0; t < steps; ++t) {
      ctx.charge_global(kPcrStepValuesPerEq * len * sizeof(T),
                        entry_stride, sizeof(T));
      ctx.charge_phase(ctx.threads(), std::ceil(len / ctx.threads()),
                       kPcrStepWarpInsts);
      if (t + 1 < steps) ctx.sync();
    }
  }, "stage2_independent_split");
  if (steps % 2 == 1) batch.swap_buffers();
  st.splits += steps;
  return stats;
}

}  // namespace tda::kernels
