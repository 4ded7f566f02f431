#pragma once
// SolveService — the serving layer in front of the auto-tuned solver.
//
// The paper's deployment model (tune once per shape, amortize the tuned
// switch points over many solves) pays off at scale when many
// independent callers funnel their systems through one warm solver.
// This service is that funnel:
//
//   * callers submit() single systems (or ragged batches, one request
//     per system) and get std::futures back;
//   * one supervisor thread buckets pending requests by (n, dtype) shape
//     and coalesces each bucket into ONE batched solve per flush —
//     triggered by size (flush_systems) or deadline (flush_interval_ms);
//   * flushed buckets go to the least-loaded of one or more simulated
//     devices, each owned by a worker thread;
//   * all workers share a single thread-safe tuning cache, so a shape
//     tuned on one device/worker is a cache hit for every later solve;
//   * admission is bounded (queue_capacity) with a configurable
//     backpressure policy: Block / Reject / ShedOldest;
//   * per-request deadlines produce TimedOut responses instead of
//     unbounded queueing; shutdown() drains in-flight work.
//
// Resilience (docs/ROBUSTNESS.md): solves run through the numerical
// guards (solver/guards.hpp), so one singular or NaN system returns a
// typed Singular/NonFinite response while its batchmates complete.
// Device faults (faults::DeviceFault, injectable via TDA_FAULTS) are
// retried with jittered backoff, then failed over to another worker
// and finally to the pivoting CPU path; each worker carries a circuit
// breaker (consecutive-failure threshold, cooldown, half-open probe)
// that steers dispatch away from a sick device. The same supervisor
// thread watches in-flight work: it cancels jobs past their deadline,
// strikes workers whose heartbeat stalls, and revives a worker thread
// that died mid-shift with its job requeued — a dead worker never
// strands its queue. A service over k devices runs k + 1 threads.
//
// Telemetry: the service owns a session. Every admitted request gets a
// trace id (minted here, or adopted from SolveRequest::trace) and a
// "request" root span that stays open until the request reaches a
// terminal state; the batch/solver/kernel spans a solve emits — across
// worker threads, retries, failover, chunk splits and the CPU fallback
// — all nest under that root, so the Chrome-trace export renders one
// coherent tree per request. Metrics record queue depth, wait time,
// batch occupancy and solve times, plus per-(shape, dtype, outcome)
// end-to-end latency histograms whose exemplars carry the trace ids of
// slow requests. The tracer is internally synchronized; workers record
// concurrently without service-level serialization.
//
// Thread-safety model: one service mutex guards the buckets, the
// admission count and every worker's job queue; each simulated Device
// is touched only by its owning worker thread; the counters, the tuning
// cache and the metrics registry have their own internal locks.
//
// Compilation: the member functions are defined in solve_service.cpp
// and compiled once into tda_service for T = double, the one
// instantiation (declared extern below). The solver, tuner and kernel
// headers are included there, so a client of this header does not see
// them.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"
#include "service/config.hpp"
#include "service/request.hpp"
#include "solver/ragged.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "tridiag/batch.hpp"
#include "tuning/cache.hpp"

namespace tda::solver {
class CancelToken;
}  // namespace tda::solver

namespace tda::service {

template <typename T>
class SolveService {
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

 public:
  /// Aggregate request accounting (monotonic since construction).
  struct Counters {
    std::size_t submitted = 0;   ///< submit() calls
    std::size_t completed = 0;   ///< requests solved (status Ok)
    std::size_t rejected = 0;    ///< refused at admission
    std::size_t shed = 0;        ///< evicted by ShedOldest
    std::size_t timed_out = 0;   ///< deadline lapsed before solve
    std::size_t failed = 0;      ///< solve threw
    std::size_t flushes = 0;     ///< coalesced batches dispatched
    std::size_t coalesced_systems = 0;  ///< systems across all flushes
    std::size_t max_batch_systems = 0;  ///< largest single flush
    std::size_t tunes = 0;       ///< tuning runs not served from cache
    double device_ms = 0.0;      ///< total simulated solve ms, all devices

    // --- resilience ---
    std::size_t singular = 0;      ///< requests completed Singular
    std::size_t nonfinite = 0;     ///< requests completed NonFinite
    std::size_t fallbacks = 0;     ///< systems solved by the CPU fallback
    std::size_t quarantined = 0;   ///< systems isolated by the bisect
    std::size_t retries = 0;       ///< device-fault retry attempts
    std::size_t failovers = 0;     ///< batches re-dispatched to another worker
    std::size_t cpu_failovers = 0; ///< batches that ended on the CPU path
    std::size_t worker_restarts = 0;  ///< crashed worker threads revived
    std::size_t breaker_opens = 0;    ///< circuit-breaker open transitions

    // --- resource exhaustion / watchdog ---
    std::size_t timed_out_queue = 0;     ///< deadline lapsed before pickup
    std::size_t timed_out_inflight = 0;  ///< cancelled mid-solve, expired
    std::size_t timeout_requeues = 0;    ///< cancelled mid-solve, requeued
    std::size_t mem_rejected = 0;     ///< refused by memory admission
    std::size_t chunked_solves = 0;   ///< batches split into >1 chunk
    std::size_t chunks = 0;           ///< sub-batches solved on devices
    std::size_t oom_events = 0;       ///< OutOfMemory absorbed by chunking
    std::size_t oom_fallbacks = 0;    ///< systems CPU-solved at the floor
    std::size_t watchdog_cancels = 0; ///< overdue jobs cancelled in flight
    std::size_t watchdog_stalls = 0;  ///< stall strikes issued
  };

  explicit SolveService(const std::vector<gpusim::DeviceSpec>& devices,
                        ServiceConfig cfg = {});
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// How a finished request is delivered: through a promise (the
  /// future-returning submit) or a callback (the wire front door, which
  /// must not burn a thread per outstanding future). Exactly one is
  /// armed. A callback may run on a service worker thread — or on the
  /// submitting thread, under the service mutex, for admission-time
  /// rejections — so it must be cheap and MUST NOT call back into the
  /// service (enqueue the response and return).
  struct Completion {
    std::promise<SolveResponse<T>> promise;
    std::function<void(SolveResponse<T>)> callback;

    void deliver(SolveResponse<T> resp) {
      if (callback) {
        callback(std::move(resp));
      } else {
        promise.set_value(std::move(resp));
      }
    }
  };

  /// Submits one system; the future resolves when the request reaches a
  /// terminal state (see SolveStatus). Never blocks except under
  /// BackpressurePolicy::Block with a full queue.
  std::future<SolveResponse<T>> submit(SolveRequest<T> req);

  /// Callback-delivery submit: `on_done` fires exactly once with the
  /// terminal response (possibly before this call returns, for
  /// admission rejections). See Completion for the callback contract.
  void submit(SolveRequest<T> req,
              std::function<void(SolveResponse<T>)> on_done);

  /// Submits every system of a ragged batch (one request each); the
  /// supervisor re-coalesces equal sizes — possibly together with other
  /// callers' systems. Futures are in system order.
  std::vector<std::future<SolveResponse<T>>> submit_ragged(
      const solver::RaggedBatch<T>& rb);

  /// Stops admission, drains every queued and in-flight request, joins
  /// all threads and merge-saves the tuning cache. Idempotent; called by
  /// the destructor.
  void shutdown();

  [[nodiscard]] bool accepting() const;
  /// Requests admitted but not yet dispatched to a device.
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }
  [[nodiscard]] const tuning::TuningCache& cache() const { return cache_; }

  // --- live reconfiguration (ops admin socket, docs/OPERATIONS.md) ---

  /// Changes the default relative deadline applied to requests that
  /// carry none. Under the service mutex (deadline_of reads it there);
  /// work already queued keeps the deadline computed at its admission.
  void set_default_deadline_ms(double ms);

  /// Resizes the shared engine thread pool without a restart; <= 0 is
  /// ignored. In-flight batch solves finish on the old lanes.
  void resize_engine_threads(int lanes);

  /// Rewrites the env-gated export files (TDA_TRACE / TDA_METRICS /
  /// TDA_OPENMETRICS) now instead of waiting for destruction — orderly
  /// exits (SIGTERM, admin drain, hot-restart handoff) call this so the
  /// on-disk numbers are current even if the process is then killed.
  void flush_exports();

  [[nodiscard]] Counters counters() const;

  /// Summed device memory budgets of every worker.
  [[nodiscard]] std::size_t total_mem_budget() const {
    return total_mem_budget_;
  }

  /// The service telemetry session (enable via enable_all() before
  /// submitting, or through TDA_TRACE / TDA_METRICS which export with a
  /// ".service" suffix at destruction).
  [[nodiscard]] telemetry::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const telemetry::Telemetry& telemetry() const {
    return telemetry_;
  }

  bool export_trace(const std::string& path) const;
  bool export_metrics(const std::string& path) const;
  /// Writes the registry in OpenMetrics text format (counters, gauges,
  /// summaries, latency histograms with exemplars, `# EOF`).
  bool export_openmetrics(const std::string& path) const;

  /// Point-in-time view of one worker for dashboards/consoles.
  struct WorkerHealth {
    std::string device;       ///< device name
    const char* breaker;      ///< "closed" / "open" / "half_open"
    std::size_t restarts;     ///< times the worker thread was revived
    std::size_t queued_systems;
    bool busy;                ///< a job is being processed right now
  };

  [[nodiscard]] std::vector<WorkerHealth> worker_health() const;

  /// Refreshes the point-in-time gauges: queue depth, per-worker breaker
  /// state and restarts, per-lane engine utilization, buffer-pool hit
  /// rate and host allocation count. The supervisor calls this every
  /// tick; callers exporting metrics mid-run may call it directly.
  void publish_gauges();

 private:
  struct Pending {
    std::vector<T> a, b, c, d;
    Completion done;
    std::string tenant;  ///< latency-histogram label ("" = unlabeled)
    TimePoint enqueue_tp{};
    TimePoint deadline_tp = TimePoint::max();
    std::uint64_t seq = 0;
    std::size_t n = 0;  ///< system size (latency-bucket label)
    /// Request identity: trace id + root span ("request"), minted at
    /// admission while the tracer is enabled. Every span the solve path
    /// emits for this request hangs under `root`.
    telemetry::TraceContext ctx;
    telemetry::SpanId root = telemetry::kInvalidSpan;
  };

  struct Job {
    std::size_t n = 0;
    std::vector<Pending> members;
    TimePoint oldest_enqueue_tp{};
    TimePoint flush_tp{};
    const char* trigger = "size";
    std::size_t failovers = 0;  ///< workers that already gave up on it
  };

  /// Per-worker circuit-breaker state (guarded by the service mutex).
  enum class Breaker { Closed, Open, HalfOpen };

  /// One device, its thread, job queue, in-flight view and health.
  struct Worker;

  /// How a batch's device attempts ended (solve_with_retries).
  enum class Outcome { Solved, Cancelled, Exhausted, Failed };
  /// One batch's device attempts: outcome, result, retries, error.
  struct Attempt;

  // Admission, accounting and request conclusion.
  void submit_impl(SolveRequest<T> req, Completion done);
  [[nodiscard]] double wall_s(TimePoint tp) const;
  [[nodiscard]] TimePoint deadline_of(TimePoint now, double req_ms) const;
  static void finish(Completion done, SolveStatus status,
                     std::string error = {});
  void time_out(Pending& p, TimeoutScope scope, TimePoint now);
  [[nodiscard]] static std::string shape_bucket(std::size_t n);
  [[nodiscard]] static const char* dtype_name();
  void conclude(Pending& p, const char* outcome, TimePoint now);
  void publish_service_gauges_locked();
  void publish_engine_gauges();
  [[nodiscard]] static std::size_t footprint_of(std::size_t n);
  template <typename V>
  void count(V Counters::*field, std::type_identity_t<V> delta = 1,
             const char* metric = nullptr);
  void count_terminal(SolveStatus status, std::size_t n = 1);

  // The supervisor: queue expiry, flushes, dispatch, breakers, healing.
  bool shed_oldest_locked();
  void expire_overdue_locked(TimePoint now);
  [[nodiscard]] TimePoint next_event_locked() const;
  [[nodiscard]] bool breaker_admits_locked(Worker& w, TimePoint now);
  [[nodiscard]] Worker* least_loaded_locked(TimePoint now,
                                            const Worker* skip);
  [[nodiscard]] Worker& pick_worker_locked();
  void enqueue_job_locked(Worker& w, Job job);
  void open_breaker_locked(Worker& w, TimePoint now);
  void record_device_result(Worker& w, bool success);
  void heal_workers_locked();
  void dispatch_ready_locked(TimePoint now);
  [[nodiscard]] bool any_worker_active_locked() const;
  void supervisor_loop();
  void watch_workers_locked(TimePoint now);

  // A worker's job, from pickup to delivery.
  void worker_loop(Worker& w);
  void process(Worker& w, Job& job, solver::CancelToken* token);
  std::vector<Pending> pick_up(Job& job);
  void annotate_batch(telemetry::ScopedSpan& span,
                      const telemetry::TraceContext& bctx, const Worker& w,
                      const Job& job, const std::vector<Pending>& live);
  void inject_stall();
  tridiag::TridiagBatch<T> gather(const std::vector<Pending>& live,
                                  std::size_t n);
  Attempt solve_with_retries(Worker& w, tridiag::TridiagBatch<T>& batch,
                             solver::CancelToken* token,
                             telemetry::ScopedSpan& batch_span);
  void requeue_or_expire(std::vector<Pending>& live, std::size_t n);
  bool fail_over(Worker& w, Job& job, std::vector<Pending>& live);
  void solve_on_cpu(tridiag::TridiagBatch<T>& batch, Attempt& at);
  void deliver(Worker& w, const Job& job, std::vector<Pending>& live,
               const tridiag::TridiagBatch<T>& batch, const Attempt& at,
               TimePoint t_solve1);
  void emit_phase_spans(const Worker& w, const Job& job, std::size_t m,
                        const Attempt& at,
                        const telemetry::TraceContext& bctx,
                        const telemetry::ScopedSpan& batch_span,
                        TimePoint t_solve0, TimePoint t_solve1);

  ServiceConfig cfg_;
  TimePoint start_tp_;

  mutable std::mutex mu_;
  std::condition_variable cv_sched_;
  std::condition_variable cv_space_;
  std::map<std::size_t, std::deque<Pending>> buckets_;  // keyed by n
  std::size_t pending_ = 0;
  std::size_t pending_bytes_ = 0;  ///< device footprint of queued requests
  std::uint64_t next_seq_ = 0;
  bool accepting_ = true;
  bool draining_ = false;
  bool stopped_ = false;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread supervisor_;
  std::size_t total_mem_budget_ = 0;  ///< summed worker budgets (const)

  tuning::TuningCache cache_;

  telemetry::Telemetry telemetry_;
  telemetry::EnvExport env_export_{telemetry_, "service"};

  mutable std::mutex counters_mu_;  // leaf lock: nothing is taken under it
  Counters counters_;
};

extern template class SolveService<double>;

}  // namespace tda::service
