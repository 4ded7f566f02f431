#pragma once
// The three benchmark workloads and what they share: options, the
// backward-error check every output goes through, and the metric names
// BENCHMARK.json lists.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/strided_view.hpp"
#include "kernels/device_batch.hpp"
#include "ledger.hpp"
#include "solver/guards.hpp"
#include "tridiag/batch.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Engine lanes and device count are fixed per workload and capped at
/// the host's core count.
int engine_lanes(int wanted);

/// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;

/// Backward-error bound c * n * eps(T). The service's own postcheck
/// computes the same quantity against a fixed 1e4 * eps(T).
inline constexpr double kBackwardErrorC = 4.0;
template <typename T>
double backward_error_bound(std::size_t n) {
  return kBackwardErrorC * static_cast<double>(n) *
         static_cast<double>(std::numeric_limits<T>::epsilon());
}

/// Normwise backward error of x for the system (a, b, c, d) of size n,
/// via solver::relative_residual — the quantity the service checks.
template <typename T>
double backward_error(const T* a, const T* b, const T* c, const T* d,
                      const T* x, std::size_t n) {
  using V = tda::StridedView<const T>;
  const tda::tridiag::SystemView<const T> sys{V(a, n, 1), V(b, n, 1),
                                              V(c, n, 1), V(d, n, 1)};
  return tda::solver::relative_residual<const T>(sys, V(x, n, 1));
}

/// Running tally of verified outputs.
struct Verdicts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double max_backward_error = 0.0;

  /// Books one output: ok = the solve reported success.
  template <typename T>
  bool check(bool ok, double be, std::size_t n) {
    ++attempted;
    if (ok) max_backward_error = std::max(max_backward_error, be);
    const bool good = ok && be <= backward_error_bound<T>(n);
    if (!good) ++failed;
    return good;
  }
  void merge(const Verdicts& o) {
    attempted += o.attempted;
    failed += o.failed;
    max_backward_error = std::max(max_backward_error, o.max_backward_error);
  }
};

/// Checks every system of a system-major batch against its solution x.
template <typename T>
void verify_batch(const tda::tridiag::TridiagBatch<T>& host, Verdicts& v) {
  const std::size_t m = host.num_systems(), n = host.system_size();
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t off = s * n;
    const double be = backward_error<T>(
        host.a().data() + off, host.b().data() + off, host.c().data() + off,
        host.d().data() + off, host.x().data() + off, n);
    v.check<T>(true, be, n);
  }
}

/// Fills the device's and the host's solution with NaN before a solve.
/// Device buffers come from a pool that hands slabs back dirty, and a
/// benchmark solves the same inputs again and again, so without this a
/// solve that never wrote x would still download the last pass's
/// correct answer and pass verify_batch.
template <typename T>
void poison_solution(tda::kernels::DeviceBatch<T>& db,
                     tda::tridiag::TridiagBatch<T>& host) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  std::fill(db.x().begin(), db.x().end(), nan);
  std::fill(host.x().begin(), host.x().end(), nan);
}

/// End-to-end metrics (untraced runs) and per-layer metrics (traced
/// runs), in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// Fills the metrics every workload reports the same way.
void finish_common(Report& r, const Verdicts& v);

Report run_batch_paper(const Options& opt);
Report run_serve_small(const Options& opt);
Report run_wire_adi(const Options& opt);

}  // namespace perfbench
