#pragma once
// Numerical guards and memory-budget chunking around the multi-stage GPU
// solver (docs/ROBUSTNESS.md).
//
// The paper's PCR/Thomas chain is pivot-free: it is fast and exact on
// diagonally dominant systems and silently wrong (or worse, throwing from
// a zero pivot mid-batch) outside that envelope. GuardedSolver wraps
// GpuTridiagonalSolver in the one execution path a production service
// needs, and turns "exception or garbage" into a typed per-system
// SystemStatus:
//
//   1. pre-solve screening — finiteness and diagonal-dominance
//      classification per system; non-finite systems are rejected
//      outright, zero-diagonal systems are routed to the pivoting CPU
//      fallback before they can poison a GPU batch;
//   2. budget-sized chunks — a batched solve needs 9 device arrays of
//      m*n elements (kernels::DeviceBatch); the systems that passed the
//      screen are cut into chunks the device's currently available
//      memory can hold, so a batch larger than the budget degrades to
//      sequential sub-batches instead of a non-retryable OutOfMemory;
//   3. one recursive bisect — when a chunk still throws, either a
//      numerical ContractError (PCR can manufacture a zero pivot from
//      nonzero input) or gpusim::OutOfMemory (a shared budget, or the
//      `oom` fault site), it is halved and retried; at one system the
//      culprit goes to the CPU fallback, so only it is quarantined and
//      every batchmate completes;
//   4. post-solve residual check — each GPU solution is verified against
//      a relative residual tolerance; failures escalate to the CPU
//      fallback (cpu/gtsv.hpp: LU with partial pivoting).
//
// Infrastructure failures (faults::DeviceFault) and cooperative
// cancellation (SolveCancelled) are deliberately NOT handled here: they
// are retryable and the service owns retry/failover.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/strided_view.hpp"
#include "cpu/gtsv.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "kernels/device_batch.hpp"
#include "solver/gpu_solver.hpp"
#include "telemetry/telemetry.hpp"
#include "tridiag/batch.hpp"
#include "tridiag/verify.hpp"

namespace tda::solver {

/// Per-system outcome of a guarded solve.
enum class SystemStatus {
  Ok,            ///< GPU solution accepted
  FallbackUsed,  ///< solved correctly, but by the pivoting CPU fallback
  Singular,      ///< numerically singular; no finite solution produced
  NonFinite,     ///< input contained NaN/Inf coefficients
};

inline const char* to_string(SystemStatus s) {
  switch (s) {
    case SystemStatus::Ok: return "ok";
    case SystemStatus::FallbackUsed: return "fallback_used";
    case SystemStatus::Singular: return "singular";
    case SystemStatus::NonFinite: return "nonfinite";
  }
  return "?";
}

/// The default residual tolerance for element type T. Generous enough
/// for legitimate weakly-dominant systems, tight enough that a PCR chain
/// that lost the solution cannot pass.
template <typename T>
[[nodiscard]] constexpr double auto_residual_tol() {
  return 1e4 * static_cast<double>(std::numeric_limits<T>::epsilon());
}

/// Pre-solve classification of one system.
enum class ScreenVerdict {
  Pass,           ///< safe for the pivot-free GPU chain
  NeedsPivoting,  ///< finite but zero-diagonal / below the dominance floor
  NonFinite,      ///< contains NaN or Inf
};

template <typename T>
struct ScreenResult {
  ScreenVerdict verdict = ScreenVerdict::Pass;
  double dominance = 0.0;  ///< min_i |b_i| / (|a_i| + |c_i|)
  bool zero_diagonal = false;
};

/// One O(n) pass over a system: finiteness, zero pivots, dominance.
template <typename T>
[[nodiscard]] ScreenResult<T> prescreen_system(
    const tridiag::SystemView<T>& sys, double dominance_floor = 0.0) {
  ScreenResult<T> r;
  r.dominance = std::numeric_limits<double>::infinity();
  const std::size_t n = sys.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = i > 0 ? static_cast<double>(sys.a[i]) : 0.0;
    const double bi = static_cast<double>(sys.b[i]);
    const double ci = i + 1 < n ? static_cast<double>(sys.c[i]) : 0.0;
    const double di = static_cast<double>(sys.d[i]);
    if (!std::isfinite(ai) || !std::isfinite(bi) || !std::isfinite(ci) ||
        !std::isfinite(di)) {
      r.verdict = ScreenVerdict::NonFinite;
      return r;
    }
    if (bi == 0.0) r.zero_diagonal = true;
    const double offsum = std::abs(ai) + std::abs(ci);
    const double ratio = offsum == 0.0
                             ? std::numeric_limits<double>::infinity()
                             : std::abs(bi) / offsum;
    if (ratio < r.dominance) r.dominance = ratio;
  }
  if (r.zero_diagonal || r.dominance < dominance_floor) {
    r.verdict = ScreenVerdict::NeedsPivoting;
  }
  return r;
}

/// The postcheck's residual is the repository's one solution check
/// (tridiag/verify.hpp), compared against auto_residual_tol<T>().
using tridiag::relative_residual;

/// Solves one system with the pivoting CPU solver (cpu/gtsv.hpp). The
/// inputs are copied (gtsv consumes its coefficients); the solution is
/// written to x only on success. Never returns Ok: a solution produced
/// here is by definition FallbackUsed.
template <typename T>
SystemStatus pivoting_fallback(const tridiag::SystemView<T>& sys,
                               StridedView<T> x) {
  const std::size_t n = sys.size();
  TDA_REQUIRE(x.size() == n, "fallback: solution size mismatch");
  std::vector<T> a(n), b(n), c(n), d(n), xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = sys.a[i];
    b[i] = sys.b[i];
    c[i] = sys.c[i];
    d[i] = sys.d[i];
    if (!std::isfinite(static_cast<double>(a[i])) ||
        !std::isfinite(static_cast<double>(b[i])) ||
        !std::isfinite(static_cast<double>(c[i])) ||
        !std::isfinite(static_cast<double>(d[i]))) {
      return SystemStatus::NonFinite;
    }
  }
  const bool ok = cpu::gtsv_solve(std::span<T>(a), std::span<T>(b),
                                  std::span<T>(c), std::span<T>(d),
                                  std::span<T>(xs));
  if (!ok) return SystemStatus::Singular;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(xs[i]))) {
      return SystemStatus::Singular;
    }
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = xs[i];
  return SystemStatus::FallbackUsed;
}

/// Sends systems [first, last) of the batch to pivoting_fallback and
/// records each outcome in `status`. The one CPU escape hatch: the
/// prescreen, the bisect floor, the residual postcheck and the service's
/// last-resort CPU failover all go through it.
template <typename T>
void fallback_range(tridiag::TridiagBatch<T>& batch, std::size_t first,
                    std::size_t last, std::vector<SystemStatus>& status) {
  for (std::size_t s = first; s < last; ++s) {
    status[s] = pivoting_fallback<T>(batch.system(s), batch.solution(s));
  }
}

/// Outcome of one guarded batch solve.
template <typename T>
struct GuardedSolveResult {
  SolveStats stats;  ///< aggregate GPU timing (zero when nothing ran on GPU)
  std::vector<SystemStatus> status;  ///< one entry per system
  std::size_t gpu_solved = 0;        ///< systems whose GPU result was kept
  std::size_t fallback_used = 0;
  std::size_t singular = 0;
  std::size_t nonfinite = 0;
  std::size_t prescreen_routed = 0;   ///< routed to CPU before the GPU ran
  std::size_t quarantined = 0;        ///< isolated by a numerical bisect
  std::size_t residual_rejects = 0;   ///< GPU solutions failing the check
  std::size_t chunks = 0;  ///< GPU sub-batch solves that completed
  std::size_t planned_chunk_systems = 0;  ///< initial budget-derived size
  std::size_t max_chunk_systems = 0;      ///< largest chunk that ran
  std::size_t oom_events = 0;             ///< OutOfMemory throws absorbed
  std::size_t oom_fallback_systems = 0;   ///< CPU-solved at the OOM floor

  /// Recounts gpu_solved / fallback_used / singular / nonfinite from
  /// the per-system statuses.
  void tally() {
    gpu_solved = fallback_used = singular = nonfinite = 0;
    for (const SystemStatus s : status) {
      switch (s) {
        case SystemStatus::Ok: ++gpu_solved; break;
        case SystemStatus::FallbackUsed: ++fallback_used; break;
        case SystemStatus::Singular: ++singular; break;
        case SystemStatus::NonFinite: ++nonfinite; break;
      }
    }
  }

  [[nodiscard]] bool all_ok() const {
    for (const SystemStatus s : status) {
      if (s != SystemStatus::Ok) return false;
    }
    return true;
  }
  /// True when every system has a correct solution (Ok or FallbackUsed).
  [[nodiscard]] bool all_solved() const {
    for (const SystemStatus s : status) {
      if (s != SystemStatus::Ok && s != SystemStatus::FallbackUsed) {
        return false;
      }
    }
    return true;
  }
};

/// GpuTridiagonalSolver behind the guard pipeline: prescreen, budget-
/// sized chunks, one bisect, residual postcheck. Non-owning: the device
/// and the inner solver must outlive the guard.
template <typename T>
class GuardedSolver {
 public:
  GuardedSolver(gpusim::Device& dev, GpuTridiagonalSolver<T>& inner)
      : dev_(&dev), inner_(&inner) {}

  /// Solves every system of the batch, routing through the guards.
  /// batch.x() holds the solution of every system whose status is Ok or
  /// FallbackUsed; other systems' x rows are untouched. Never throws a
  /// numerical ContractError or OutOfMemory — those are always reported
  /// through the per-system status; faults::DeviceFault and
  /// SolveCancelled propagate.
  GuardedSolveResult<T> solve(tridiag::TridiagBatch<T>& batch) {
    const std::size_t m = batch.num_systems();
    const std::size_t n = batch.system_size();
    GuardedSolveResult<T> result;
    result.status.assign(m, SystemStatus::Ok);
    if (m == 0) return result;

    telemetry::Telemetry* tel = dev_->telemetry();
    telemetry::ScopedSpan span(telemetry::tracer_of(tel), "chunked_solve",
                               "solver");
    span.attr("m", static_cast<double>(m));
    span.attr("n", static_cast<double>(n));

    std::vector<std::size_t> gpu_list;
    gpu_list.reserve(m);
    for (std::size_t s = 0; s < m; ++s) {
      switch (prescreen_system<T>(batch.system(s)).verdict) {
        case ScreenVerdict::Pass:
          gpu_list.push_back(s);
          break;
        case ScreenVerdict::NonFinite:
          result.status[s] = SystemStatus::NonFinite;
          break;
        case ScreenVerdict::NeedsPivoting:
          ++result.prescreen_routed;
          fallback_range(batch, s, s + 1, result.status);
          break;
      }
    }

    if (!gpu_list.empty()) {
      const std::size_t per_sys = std::max<std::size_t>(
          1, kernels::DeviceBatch<T>::footprint_bytes(1, n));
      const std::size_t planned = std::clamp<std::size_t>(
          dev_->memory().available() / per_sys, 1, gpu_list.size());
      result.planned_chunk_systems = planned;
      // Host-side staging for partial chunks, rebuilt only when the chunk
      // size changes — steady-state chunking reuses one allocation.
      tridiag::TridiagBatch<T> scratch;
      const std::span<const std::size_t> list(gpu_list);
      for (std::size_t start = 0; start < list.size(); start += planned) {
        const std::size_t take = std::min(planned, list.size() - start);
        solve_group(batch, list.subspan(start, take), result, scratch);
      }
    }

    const double tol = auto_residual_tol<T>();
    for (std::size_t s = 0; s < m; ++s) {
      if (result.status[s] != SystemStatus::Ok) continue;
      if (relative_residual<T>(batch.system(s), batch.solution(s)) <= tol) {
        continue;
      }
      ++result.residual_rejects;
      fallback_range(batch, s, s + 1, result.status);
    }
    result.tally();

    span.attr("chunks", static_cast<double>(result.chunks));
    span.attr("oom_events", static_cast<double>(result.oom_events));
    if (tel != nullptr && tel->metrics.enabled()) {
      auto& mx = tel->metrics;
      mx.add("solver.chunked_solves");
      mx.add("solver.chunks", static_cast<double>(result.chunks));
      if (result.chunks > 1) mx.add("solver.split_solves");
      if (result.oom_events > 0) {
        mx.add("solver.chunk_oom", static_cast<double>(result.oom_events));
      }
      if (result.oom_fallback_systems > 0) {
        mx.add("solver.oom_fallback_systems",
               static_cast<double>(result.oom_fallback_systems));
      }
    }
    return result;
  }

 private:
  /// Solves the listed systems on the GPU: in place when the list is the
  /// whole batch (the common case), otherwise packed into `scratch`. A
  /// numerical ContractError or an OutOfMemory bisects the list; at one
  /// system the culprit goes to the pivoting fallback, counted as
  /// quarantined or oom_fallback_systems by the error that sent it
  /// there. Systems solved on the GPU keep status Ok (the residual check
  /// runs later).
  void solve_group(tridiag::TridiagBatch<T>& batch,
                   std::span<const std::size_t> list,
                   GuardedSolveResult<T>& result,
                   tridiag::TridiagBatch<T>& scratch) {
    bool oom = false;
    try {
      if (list.size() == batch.num_systems()) {
        // Common case: everything passed the screen and fits the
        // budget — solve in place.
        result.stats += inner_->solve(batch);
      } else {
        const std::size_t n = batch.system_size();
        if (scratch.num_systems() != list.size() ||
            scratch.system_size() != n) {
          scratch = tridiag::TridiagBatch<T>(list.size(), n);
        }
        pack(batch, list, scratch);
        result.stats += inner_->solve(scratch);
        unpack_solutions(scratch, list, batch);
      }
      ++result.chunks;
      result.max_chunk_systems = std::max(result.max_chunk_systems,
                                          list.size());
      return;
    } catch (const ContractError&) {
      // Numerical failure somewhere in this group — bisect.
    } catch (const gpusim::OutOfMemory&) {
      // The group does not fit the budget (or `oom` fired) — bisect.
      ++result.oom_events;
      oom = true;
    }
    if (list.size() == 1) {
      ++(oom ? result.oom_fallback_systems : result.quarantined);
      fallback_range(batch, list.front(), list.front() + 1, result.status);
      return;
    }
    const std::size_t half = list.size() / 2;
    solve_group(batch, list.subspan(0, half), result, scratch);
    solve_group(batch, list.subspan(half), result, scratch);
  }

  static void pack(tridiag::TridiagBatch<T>& from,
                   std::span<const std::size_t> list,
                   tridiag::TridiagBatch<T>& to) {
    const std::size_t n = from.system_size();
    for (std::size_t j = 0; j < list.size(); ++j) {
      const std::size_t src = list[j] * n;
      const std::size_t dst = j * n;
      for (std::size_t i = 0; i < n; ++i) {
        to.a()[dst + i] = from.a()[src + i];
        to.b()[dst + i] = from.b()[src + i];
        to.c()[dst + i] = from.c()[src + i];
        to.d()[dst + i] = from.d()[src + i];
      }
    }
  }

  static void unpack_solutions(tridiag::TridiagBatch<T>& from,
                               std::span<const std::size_t> list,
                               tridiag::TridiagBatch<T>& to) {
    const std::size_t n = from.system_size();
    for (std::size_t j = 0; j < list.size(); ++j) {
      const std::size_t src = j * n;
      const std::size_t dst = list[j] * n;
      for (std::size_t i = 0; i < n; ++i) {
        to.x()[dst + i] = from.x()[src + i];
      }
    }
  }

  gpusim::Device* dev_;
  GpuTridiagonalSolver<T>* inner_;
};

}  // namespace tda::solver
