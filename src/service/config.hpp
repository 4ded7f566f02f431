#pragma once
// Solve-service configuration: admission control (bounded queue +
// backpressure policy), flush triggers for shape-bucketed coalescing,
// deadlines, memory budgets and the resilience timings tests tune.
// Everything else the service does on a timer or a threshold is a named
// constant below.

#include <cstddef>
#include <cstdint>
#include <string>

namespace tda::service {

/// What submit() does when the admission queue is full.
enum class BackpressurePolicy {
  Block,      ///< caller blocks until a slot frees (or shutdown)
  Reject,     ///< the new request is refused immediately
  ShedOldest  ///< the oldest queued request is shed to admit the new one
};

const char* to_string(BackpressurePolicy p);

/// One decorrelated-jitter backoff step (AWS-style): a uniform draw
/// from [base_ms, 3 * prev_ms] capped at max_ms. Pass the previous
/// return value back in as prev_ms (or 0 on the first attempt); `state`
/// is the caller-owned RNG stream. Exposed for tests.
double decorrelated_backoff_ms(double base_ms, double prev_ms,
                               double max_ms, std::uint64_t& state);

/// Device-fault retries on the same worker before failing over.
inline constexpr int kMaxRetries = 2;
/// Ceiling of a single jittered retry backoff sleep (wall-clock ms).
inline constexpr double kRetryBackoffMaxMs = 8.0;
/// Consecutive device failures that open a worker's circuit breaker.
inline constexpr int kBreakerThreshold = 3;
/// Supervisor tick (wall-clock ms): while any worker is busy, or metrics
/// are enabled, the supervisor samples workers and publishes gauges at
/// least this often.
inline constexpr double kSuperviseIntervalMs = 1.0;
/// Consecutive stall strikes that open a worker's circuit breaker.
inline constexpr int kStallStrikes = 3;

/// Fault-tolerance timings of the service (docs/ROBUSTNESS.md). Every
/// solve goes through solver::GuardedSolver (prescreen, chunking,
/// quarantine bisect, residual postcheck, pivoting CPU fallback); a
/// device fault is retried kMaxRetries times with decorrelated-jitter
/// backoff, then the batch fails over to up to (num_workers - 1) other
/// workers, then to the pivoting CPU solver. The TDA_FAULTS device
/// sites are always armed on service devices: the service has a
/// recovery story, bare solver runs stay unarmed.
struct ResilienceConfig {
  /// Base of the retry backoff (wall-clock ms): attempt k sleeps a draw
  /// from [base, 3 * previous sleep] capped at kRetryBackoffMaxMs.
  /// Jitter keeps workers hit by one correlated fault from retrying in
  /// lockstep.
  double retry_backoff_ms = 0.25;
  /// How long an open breaker keeps the worker out of dispatch before a
  /// half-open probe is allowed (wall-clock ms).
  double breaker_cooldown_ms = 25.0;
};

/// In-flight supervision (docs/ROBUSTNESS.md). Every kSuperviseIntervalMs
/// the supervisor samples each busy worker: a job past its deadline is
/// cancelled cooperatively (the solver throws at its next stage boundary
/// and the expired members finish as TimedOut/in-flight, unexpired
/// members are requeued); a worker whose heartbeat stops advancing
/// collects strikes and, after kStallStrikes, opens its circuit breaker.
struct WatchdogConfig {
  /// A busy worker whose solve heartbeat has not advanced for this long
  /// earns a stall strike. Generous by default: simulated solves beat at
  /// stage boundaries many times per wall millisecond, so only a
  /// genuinely stuck worker (injected stall, runaway kernel) trips it.
  double stall_threshold_ms = 50.0;
};

struct ServiceConfig {
  /// Max requests admitted but not yet dispatched to a device.
  std::size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::Block;

  /// Size trigger: a (n, dtype) bucket flushes once it holds this many
  /// systems. 1 disables coalescing (one solve per request).
  std::size_t flush_systems = 64;
  /// Deadline trigger: a bucket flushes once its oldest request has
  /// waited this long, however few systems it holds.
  double flush_interval_ms = 2.0;

  /// Deadline applied to requests that don't carry their own
  /// (milliseconds from admission; 0 = no deadline). A request whose
  /// deadline lapses before its bucket is picked up by a worker
  /// completes with SolveStatus::TimedOut (scope Queue); one that lapses
  /// mid-solve is cancelled by the supervisor at the next stage boundary
  /// and completes as TimedOut (scope InFlight).
  double default_deadline_ms = 0.0;

  /// Lanes of the process-wide block-execution engine
  /// (gpusim::ThreadPool::global()): the service resizes the shared pool
  /// to this many lanes at construction. 0 keeps the pool's current
  /// size (its $TDA_THREADS / hardware default). The pool is shared by
  /// every worker — workers queue blocks into one engine rather than
  /// spinning up pools of their own, so total CPU use stays bounded by
  /// the engine width however many devices the service drives
  /// (docs/PERFORMANCE.md).
  int engine_threads = 0;

  /// Per-worker device memory budget override in bytes; 0 keeps each
  /// device's own default (its spec / $TDA_MEM_BUDGET). Solves that
  /// exceed the budget are chunked (solver::GuardedSolver).
  std::size_t mem_budget_bytes = 0;
  /// Memory-aware admission: reject/shed a request when the projected
  /// device-resident footprint of everything admitted-but-unfinished
  /// would exceed this fraction of the summed worker budgets. <= 0
  /// disables the check; 1.0 admits up to the full budget (chunking
  /// absorbs transient overshoot).
  double mem_admission_fraction = 0.0;

  WatchdogConfig watchdog;

  /// Shared persistent tuning cache: loaded at start-up, merge-saved on
  /// shutdown. Empty = in-memory only.
  std::string cache_path;

  ResilienceConfig resilience;
};

}  // namespace tda::service
