#pragma once
// What serve_small and wire_adi share: the in-process service they both
// drive, host-side counters sampled around a measured phase, and the
// per-layer figures read back from the service's own spans and registry.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "service/solve_service.hpp"
#include "tridiag/batch.hpp"
#include "workloads.hpp"

namespace perfbench {

using Service = tda::service::SolveService<double>;

/// One GTX 470 worker with `lanes` engine lanes, default coalescing
/// (size 64, interval 2 ms), no cache file, admission that rejects
/// rather than blocks (an open-loop generator must never stall).
std::unique_ptr<Service> make_service(int lanes);

/// Host-side counters sampled at the start and end of a phase.
struct HostCounters {
  std::uint64_t allocs = 0;
  tda::BufferPool::Stats pool;
  double lane_busy_ms = 0.0;
  Clock::time_point at;
  static HostCounters now();
};

/// Diagonally dominant systems of one size; requests cycle through them.
struct SystemPool {
  std::size_t n = 0;
  tda::tridiag::TridiagBatch<double> batch;
  /// Copy of lane k (0=a 1=b 2=c 3=d) of system s.
  [[nodiscard]] std::vector<double> lane(int k, std::size_t s) const;
  /// Lane k of system s in place.
  [[nodiscard]] const double* data(int k, std::size_t s) const;
};
SystemPool make_pool(std::size_t count, std::size_t n, std::uint64_t seed);

/// Simulated GTX 470 ms of one pass over `shapes` (m, n), each tuned
/// cold and run once through the cost model.
double sim_pass_ms(const std::vector<std::pair<std::size_t, std::size_t>>& shapes);

/// Single-threaded pivoting LU throughput over the pools (Meq/s).
double gtsv_meq_s(const std::vector<SystemPool>& pools);

/// Per-layer figures from a traced phase: the span-tree ledger (whose
/// roots are the service's "request" spans) and the service registry,
/// plus host-counter deltas. `requests` is the phase's request count.
void service_layers(Report& r, Service& svc, const Ledger& ledger,
                    const HostCounters& before, const HostCounters& after,
                    std::size_t requests, int lanes);

/// Switches the service telemetry on for a traced phase (clearing what
/// set-up recorded).
void start_tracing(Service& svc);

}  // namespace perfbench
