#pragma once
// Request/response types of the solve service. A request is one
// tridiagonal system (the service coalesces many of them into batched
// solves); the response carries the solution plus enough scheduling
// detail — wait time, batch occupancy, device — for callers and benches
// to see what the service did with it.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/tracer.hpp"
#include "tridiag/verify.hpp"

namespace tda::service {

/// Terminal state of a submitted request.
enum class SolveStatus {
  Ok,         ///< solved; x holds the solution
  Rejected,   ///< refused at admission (queue full, or service shut down)
  Shed,       ///< evicted from the queue by BackpressurePolicy::ShedOldest
  TimedOut,   ///< deadline lapsed — in the queue, or cancelled mid-flight
              ///< by the watchdog (see SolveResponse::timeout_scope)
  Failed,     ///< the solve itself threw; `error` holds the message
  Singular,   ///< this system is numerically singular (batchmates solved)
  NonFinite   ///< this system carried NaN/Inf coefficients
};

const char* to_string(SolveStatus s);

/// Where a TimedOut request's deadline lapsed.
enum class TimeoutScope {
  None,     ///< the request did not time out
  Queue,    ///< lapsed before a worker picked the request up
  InFlight  ///< lapsed mid-solve; the watchdog cancelled the batch
};

const char* to_string(TimeoutScope s);

/// One tridiagonal system: diagonals a/b/c and right-hand side d, all of
/// equal length n >= 1 (a[0] and c[n-1] are 0 by convention).
template <typename T>
struct SolveRequest {
  std::vector<T> a, b, c, d;
  /// Per-request deadline in ms from admission; 0 = use the config
  /// default (which may itself be "none").
  double deadline_ms = 0.0;
  /// Optional caller-provided trace context: a non-zero trace_id joins
  /// the request to an existing trace (e.g. a front door that already
  /// minted one); zero lets the service mint a fresh id at admission.
  telemetry::TraceContext trace;
  /// Tenant label of the submitting client (the wire front door stamps
  /// it after auth). Non-empty adds a tenant="..." label to the
  /// request-latency histogram and an attr on the request root span;
  /// empty (in-process callers) keeps the label set unchanged.
  std::string tenant;

  [[nodiscard]] std::size_t size() const { return b.size(); }
};

/// Normwise backward error (tridiag::relative_residual) of x as a
/// solution of the request's system; +inf when x has the wrong size, so a
/// client can check any answer it was sent.
template <typename T>
[[nodiscard]] double backward_error(
    const SolveRequest<T>& req, std::type_identity_t<std::span<const T>> x) {
  const std::size_t n = req.size();
  if (x.size() != n) return std::numeric_limits<double>::infinity();
  return tridiag::relative_residual(
      tridiag::contiguous_system(req.a.data(), req.b.data(), req.c.data(),
                                 req.d.data(), n),
      StridedView<const T>(x.data(), n, 1));
}

template <typename T>
struct SolveResponse {
  SolveStatus status = SolveStatus::Ok;
  std::vector<T> x;  ///< solution (empty unless status == Ok)

  // --- scheduling detail ---
  /// Trace id the service stamped on (or adopted for) this request; 0
  /// when tracing was disabled. Matches the "request" root span and the
  /// latency-histogram exemplars, so a slow response can be looked up
  /// in the exported trace directly.
  std::uint64_t trace_id = 0;
  std::size_t batch_systems = 0;  ///< systems coalesced into the solve
  double wait_ms = 0.0;           ///< admission -> dispatch wall time
  double solve_ms = 0.0;          ///< simulated ms of the whole batch
  std::string device;             ///< worker device that ran the batch
  std::string error;              ///< diagnostic for Failed

  // --- resilience detail ---
  /// True when the solution came from the pivoting CPU fallback (the
  /// result is still correct; status stays Ok).
  bool fallback_used = false;
  /// Device-fault retries spent on the batch that carried this request.
  std::size_t retries = 0;
  /// For TimedOut: whether the deadline lapsed in the queue or mid-solve.
  TimeoutScope timeout_scope = TimeoutScope::None;
  /// Sub-batches the solve was split into under memory pressure (1 = the
  /// batch fit the device budget whole; 0 = it never reached a device).
  std::size_t chunks = 0;

  [[nodiscard]] bool ok() const { return status == SolveStatus::Ok; }
};

}  // namespace tda::service
