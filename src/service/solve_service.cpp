// SolveService's member definitions. They are compiled here, once, into
// tda_service and instantiated for double only (solve_service.hpp holds
// the class and declares the instantiation extern), so the solver,
// tuner and kernel headers stay behind the service boundary.
#include "service/solve_service.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <limits>

#include "common/alloc_stats.hpp"
#include "common/buffer_pool.hpp"
#include "common/check.hpp"
#include "faults/faults.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/thread_pool.hpp"
#include "kernels/device_batch.hpp"
#include "solver/cancel.hpp"
#include "solver/gpu_solver.hpp"
#include "solver/guards.hpp"
#include "tuning/dynamic_tuner.hpp"

namespace tda::service {

template <typename T>
struct SolveService<T>::Worker {
  explicit Worker(const gpusim::DeviceSpec& spec)
      : dev(spec), backoff_rng(reinterpret_cast<std::uintptr_t>(this) | 1u) {}
  gpusim::Device dev;
  std::thread thread;
  std::condition_variable cv;       // waits on the service mutex
  std::deque<Job> jobs;             // guarded by the service mutex
  std::size_t queued_systems = 0;   // guarded by the service mutex
  std::size_t queued_bytes = 0;     // guarded by the service mutex
  bool stop = false;                // guarded by the service mutex

  // --- supervisor view of the in-flight job (guarded by the service
  // mutex; the token's own state is atomic) ---
  bool busy = false;  ///< a job is being processed right now
  std::shared_ptr<solver::CancelToken> token;
  TimePoint job_deadline = TimePoint::max();  ///< earliest member deadline
  std::uint64_t last_beats = 0;
  TimePoint last_progress_tp{};
  int strikes = 0;

  // --- health (guarded by the service mutex) ---
  Breaker breaker = Breaker::Closed;
  int consecutive_failures = 0;
  TimePoint open_until{};   ///< when an Open breaker may half-open
  bool crashed = false;     ///< thread died; supervisor must revive it
  std::size_t restarts = 0;

  /// Decorrelated-jitter stream of the retry backoff (worker thread
  /// only). Seeded from the worker's address so concurrent workers
  /// hit by the same fault desynchronize their retries.
  std::uint64_t backoff_rng;
};

template <typename T>
struct SolveService<T>::Attempt {
  Outcome outcome = Outcome::Failed;
  solver::GuardedSolveResult<T> result;
  std::size_t retries = 0;
  std::string error;
};

template <typename T>
SolveService<T>::SolveService(
    const std::vector<gpusim::DeviceSpec>& devices, ServiceConfig cfg)
    : cfg_(std::move(cfg)), start_tp_(Clock::now()) {
  TDA_REQUIRE(!devices.empty(), "service needs at least one device");
  TDA_REQUIRE(cfg_.queue_capacity >= 1, "queue capacity must be positive");
  TDA_REQUIRE(cfg_.flush_systems >= 1, "flush size must be positive");
  TDA_REQUIRE(cfg_.flush_interval_ms >= 0.0,
              "flush interval must be non-negative");
  if (!cfg_.cache_path.empty()) cache_.load(cfg_.cache_path);
  if (cfg_.engine_threads > 0) {
    gpusim::ThreadPool::global().resize(cfg_.engine_threads);
  }
  telemetry_.tracer.set_clock([this] { return wall_s(Clock::now()); });
  telemetry_.metrics.set("service.workers",
                         static_cast<double>(devices.size()));
  telemetry_.metrics.set("service.queue_capacity",
                         static_cast<double>(cfg_.queue_capacity));
  workers_.reserve(devices.size());
  for (const auto& spec : devices) {
    workers_.push_back(std::make_unique<Worker>(spec));
    // Every worker device records into the service session, but must
    // NOT adopt the simulated clock: kernel spans need wall timestamps
    // to nest under the service's wall-clock batch spans.
    workers_.back()->dev.set_telemetry(&telemetry_, /*adopt_clock=*/false);
    workers_.back()->dev.arm_faults();
    if (cfg_.mem_budget_bytes > 0) {
      workers_.back()->dev.set_mem_budget(cfg_.mem_budget_bytes);
    }
    total_mem_budget_ += workers_.back()->dev.memory().budget();
  }
  telemetry_.metrics.set("service.mem_budget_bytes",
                         static_cast<double>(total_mem_budget_));
  for (auto& w : workers_) {
    w->thread = std::thread([this, wp = w.get()] { worker_loop(*wp); });
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

template <typename T>
SolveService<T>::~SolveService() { shutdown(); }

template <typename T>
std::future<SolveResponse<T>> SolveService<T>::submit(SolveRequest<T> req) {
  Completion done;
  auto future = done.promise.get_future();
  submit_impl(std::move(req), std::move(done));
  return future;
}

template <typename T>
void SolveService<T>::submit(SolveRequest<T> req,
                             std::function<void(SolveResponse<T>)> on_done) {
  Completion done;
  done.callback = std::move(on_done);
  submit_impl(std::move(req), std::move(done));
}

template <typename T>
void SolveService<T>::submit_impl(SolveRequest<T> req, Completion done) {
  const std::size_t n = req.size();
  TDA_REQUIRE(n >= 1, "solve request needs at least one equation");
  TDA_REQUIRE(req.a.size() == n && req.c.size() == n && req.d.size() == n,
              "request diagonals must have equal length");

  std::unique_lock lk(mu_);
  count(&Counters::submitted, 1, "service.submitted");
  const auto reject = [&](std::string why = {}) {
    lk.unlock();
    count_terminal(SolveStatus::Rejected);
    finish(std::move(done), SolveStatus::Rejected, std::move(why));
  };
  if (!accepting_) return reject();
  if (pending_ >= cfg_.queue_capacity) {
    switch (cfg_.backpressure) {
      case BackpressurePolicy::Block:
        cv_space_.wait(lk, [this] {
          return pending_ < cfg_.queue_capacity || !accepting_;
        });
        if (!accepting_) return reject();
        break;
      case BackpressurePolicy::Reject:
        return reject();
      case BackpressurePolicy::ShedOldest:
        shed_oldest_locked();
        break;
    }
  }

  // Memory-aware admission: keep the projected device-resident
  // footprint of everything admitted-but-unfinished within the
  // configured fraction of the pooled budgets. ShedOldest makes room
  // by evicting; Block degenerates to Reject here (a caller blocked on
  // bytes could wait forever behind one oversized resident batch).
  const std::size_t fp = footprint_of(n);
  if (cfg_.mem_admission_fraction > 0.0 && total_mem_budget_ > 0) {
    const double cap = cfg_.mem_admission_fraction *
                       static_cast<double>(total_mem_budget_);
    const auto projected = [&] {
      std::size_t inflight = 0;
      for (const auto& w : workers_) inflight += w->queued_bytes;
      return static_cast<double>(pending_bytes_ + inflight + fp);
    };
    if (cfg_.backpressure == BackpressurePolicy::ShedOldest) {
      while (projected() > cap && shed_oldest_locked()) {
      }
    }
    if (projected() > cap) {
      count(&Counters::mem_rejected, 1, "service.mem_rejected");
      return reject("memory admission: projected footprint exceeds budget");
    }
  }

  const TimePoint now = Clock::now();
  Pending p;
  p.a = std::move(req.a);
  p.b = std::move(req.b);
  p.c = std::move(req.c);
  p.d = std::move(req.d);
  p.done = std::move(done);
  p.tenant = std::move(req.tenant);
  p.enqueue_tp = now;
  p.deadline_tp = deadline_of(now, req.deadline_ms);
  p.seq = next_seq_++;
  p.n = n;
  if (telemetry_.tracer.enabled()) {
    // Mint the request's identity at admission: adopt the caller's
    // trace id when one came in, otherwise start a fresh trace. The
    // root span stays open until the request reaches a terminal state;
    // everything the solve path emits parents under it via p.ctx.
    p.ctx.trace_id = req.trace.trace_id != 0 ? req.trace.trace_id
                                             : telemetry::next_trace_id();
    p.root = telemetry_.tracer.open_at(
        "request", "service", wall_s(now),
        {p.ctx.trace_id, req.trace.parent});
    telemetry_.tracer.attr(p.root, "n", static_cast<double>(n));
    if (!p.tenant.empty()) {
      telemetry_.tracer.attr(p.root, "tenant", p.tenant);
    }
    p.ctx.parent = p.root;
  }
  buckets_[n].push_back(std::move(p));
  ++pending_;
  pending_bytes_ += fp;
  telemetry_.metrics.observe("service.queue_depth",
                             static_cast<double>(pending_));
  lk.unlock();
  cv_sched_.notify_one();
}

template <typename T>
std::vector<std::future<SolveResponse<T>>> SolveService<T>::submit_ragged(
    const solver::RaggedBatch<T>& rb) {
  std::vector<std::future<SolveResponse<T>>> futures;
  futures.reserve(rb.num_systems());
  for (std::size_t s = 0; s < rb.num_systems(); ++s) {
    const std::size_t n = rb.system_size(s);
    const std::size_t off = rb.offset(s);
    SolveRequest<T> req;
    req.a.assign(rb.a().begin() + off, rb.a().begin() + off + n);
    req.b.assign(rb.b().begin() + off, rb.b().begin() + off + n);
    req.c.assign(rb.c().begin() + off, rb.c().begin() + off + n);
    req.d.assign(rb.d().begin() + off, rb.d().begin() + off + n);
    futures.push_back(submit(std::move(req)));
  }
  return futures;
}

template <typename T>
void SolveService<T>::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (stopped_) return;
    accepting_ = false;
    draining_ = true;
  }
  cv_sched_.notify_all();
  cv_space_.notify_all();
  // The supervisor returns only once nothing is queued, in flight or
  // crashed, so every promise is settled when the join completes.
  if (supervisor_.joinable()) supervisor_.join();
  {
    std::lock_guard lk(mu_);
    for (auto& w : workers_) w->stop = true;
  }
  for (auto& w : workers_) w->cv.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (!cfg_.cache_path.empty()) cache_.save_merged(cfg_.cache_path);
  std::lock_guard lk(mu_);
  stopped_ = true;
}

template <typename T>
bool SolveService<T>::accepting() const {
  std::lock_guard lk(mu_);
  return accepting_;
}

template <typename T>
std::size_t SolveService<T>::queue_depth() const {
  std::lock_guard lk(mu_);
  return pending_;
}

template <typename T>
void SolveService<T>::set_default_deadline_ms(double ms) {
  std::lock_guard lk(mu_);
  cfg_.default_deadline_ms = ms;
}

template <typename T>
void SolveService<T>::resize_engine_threads(int lanes) {
  if (lanes > 0) gpusim::ThreadPool::global().resize(lanes);
}

template <typename T>
void SolveService<T>::flush_exports() { env_export_.flush(); }

template <typename T>
auto SolveService<T>::counters() const -> Counters {
  std::lock_guard lk(counters_mu_);
  return counters_;
}

template <typename T>
bool SolveService<T>::export_trace(const std::string& path) const {
  return telemetry::write_text_file(
      path, telemetry::to_chrome_trace(telemetry_.tracer));
}

template <typename T>
bool SolveService<T>::export_metrics(const std::string& path) const {
  return telemetry::write_text_file(
      path, telemetry::to_metrics_json(telemetry_.metrics));
}

template <typename T>
bool SolveService<T>::export_openmetrics(const std::string& path) const {
  return telemetry::write_text_file(
      path, telemetry::to_openmetrics(telemetry_.metrics));
}

template <typename T>
auto SolveService<T>::worker_health() const -> std::vector<WorkerHealth> {
  std::vector<WorkerHealth> out;
  out.reserve(workers_.size());
  std::lock_guard lk(mu_);
  for (const auto& w : workers_) {
    WorkerHealth h;
    h.device = w->dev.spec().name;
    h.breaker = w->breaker == Breaker::Open       ? "open"
                : w->breaker == Breaker::HalfOpen ? "half_open"
                                                  : "closed";
    h.restarts = w->restarts;
    h.queued_systems = w->queued_systems;
    h.busy = w->busy;
    out.push_back(std::move(h));
  }
  return out;
}

template <typename T>
void SolveService<T>::publish_gauges() {
  if (!telemetry_.metrics.enabled()) return;
  {
    std::lock_guard lk(mu_);
    publish_service_gauges_locked();
  }
  publish_engine_gauges();
}

template <typename T>
double SolveService<T>::wall_s(TimePoint tp) const {
  return std::chrono::duration<double>(tp - start_tp_).count();
}

template <typename T>
auto SolveService<T>::deadline_of(TimePoint now, double req_ms) const
    -> TimePoint {
  const double ms = req_ms > 0.0 ? req_ms : cfg_.default_deadline_ms;
  if (ms <= 0.0) return TimePoint::max();
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
}

template <typename T>
void SolveService<T>::finish(Completion done, SolveStatus status,
                             std::string error) {
  SolveResponse<T> resp;
  resp.status = status;
  resp.error = std::move(error);
  done.deliver(std::move(resp));
}

/// Counts, concludes and answers one request as TimedOut in `scope`.
template <typename T>
void SolveService<T>::time_out(Pending& p, TimeoutScope scope,
                               TimePoint now) {
  count_terminal(SolveStatus::TimedOut);
  if (scope == TimeoutScope::Queue) {
    count(&Counters::timed_out_queue, 1, "service.timed_out_queue");
  } else {
    count(&Counters::timed_out_inflight, 1, "service.timed_out_inflight");
  }
  conclude(p, "timed_out", now);
  SolveResponse<T> resp;
  resp.status = SolveStatus::TimedOut;
  resp.timeout_scope = scope;
  p.done.deliver(std::move(resp));
}

/// Histogram shape label: smallest power-of-two bucket holding n.
template <typename T>
std::string SolveService<T>::shape_bucket(std::size_t n) {
  std::size_t b = 16;
  while (b < n && b < (std::size_t{1} << 24)) b <<= 1;
  return "le" + std::to_string(b);
}

template <typename T>
const char* SolveService<T>::dtype_name() {
  return sizeof(T) == 4 ? "f32" : "f64";
}

/// Marks one request terminal for observability: closes its root span
/// (stamping the outcome) and records its end-to-end latency into the
/// per-(shape, dtype, outcome) histogram with the trace id as the
/// exemplar. Idempotent on the span side (root is cleared). Safe to
/// call with tracing and/or metrics disabled.
template <typename T>
void SolveService<T>::conclude(Pending& p, const char* outcome,
                               TimePoint now) {
  if (p.root != telemetry::kInvalidSpan) {
    telemetry_.tracer.attr(p.root, "outcome", outcome);
    telemetry_.tracer.close_at(p.root, wall_s(now));
    p.root = telemetry::kInvalidSpan;
  }
  if (telemetry_.metrics.enabled()) {
    const double e2e_ms = std::chrono::duration<double, std::milli>(
                              now - p.enqueue_tp)
                              .count();
    // Wire-submitted requests carry their tenant into the label set;
    // in-process callers keep the original three labels so existing
    // dashboards/parsers see an unchanged key shape.
    const std::string key =
        p.tenant.empty()
            ? telemetry::labeled("service.request_latency_ms",
                                 {{"shape", shape_bucket(p.n)},
                                  {"dtype", dtype_name()},
                                  {"outcome", outcome}})
            : telemetry::labeled("service.request_latency_ms",
                                 {{"tenant", p.tenant},
                                  {"shape", shape_bucket(p.n)},
                                  {"dtype", dtype_name()},
                                  {"outcome", outcome}});
    telemetry_.metrics.observe_latency(key, e2e_ms, p.ctx.trace_id);
  }
}

/// Gauges that read service state. Caller holds mu_.
template <typename T>
void SolveService<T>::publish_service_gauges_locked() {
  auto& mx = telemetry_.metrics;
  mx.set("service.queue_depth_now", static_cast<double>(pending_));
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = *workers_[i];
    const std::string lane = std::to_string(i);
    // 0 = closed, 1 = half-open, 2 = open (matches alert thresholds:
    // anything above 0 deserves a look).
    const double state = w.breaker == Breaker::Open       ? 2.0
                         : w.breaker == Breaker::HalfOpen ? 1.0
                                                          : 0.0;
    mx.set(telemetry::labeled("service.breaker_state",
                              {{"worker", lane},
                               {"device", w.dev.spec().name}}),
           state);
    mx.set(telemetry::labeled("service.worker_restarts_now",
                              {{"worker", lane}}),
           static_cast<double>(w.restarts));
  }
}

/// Gauges that read global engine/pool state. No service lock needed.
template <typename T>
void SolveService<T>::publish_engine_gauges() {
  auto& mx = telemetry_.metrics;
  const auto lanes = gpusim::ThreadPool::global().lane_stats();
  double busy_ms = 0.0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::string lane = std::to_string(i);
    mx.set(telemetry::labeled("engine.lane.busy_ms", {{"lane", lane}}),
           lanes[i].busy_ms);
    mx.set(telemetry::labeled("engine.lane.chunks", {{"lane", lane}}),
           static_cast<double>(lanes[i].chunks));
    busy_ms += lanes[i].busy_ms;
  }
  const double up_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - start_tp_)
                           .count();
  if (!lanes.empty() && up_ms > 0.0) {
    mx.set("engine.utilization",
           busy_ms / (up_ms * static_cast<double>(lanes.size())));
  }
  const auto ps = tda::BufferPool::global().stats();
  mx.set("pool.hit_rate",
         ps.acquires > 0
             ? static_cast<double>(ps.hits) /
                   static_cast<double>(ps.acquires)
             : 0.0);
  mx.set("pool.cached_bytes", static_cast<double>(ps.cached_bytes));
  mx.set("pool.outstanding_bytes",
         static_cast<double>(ps.outstanding_bytes));
  mx.set("host.alloc_count", static_cast<double>(host_alloc_count()));
}

/// Device-resident bytes one queued system of size n will need.
template <typename T>
std::size_t SolveService<T>::footprint_of(std::size_t n) {
  return kernels::DeviceBatch<T>::footprint_bytes(1, n);
}

/// Adds `delta` to one Counters field and, when the field has a
/// `metric`, to that service.* counter (a no-op while metrics are
/// disabled). A zero delta touches neither.
template <typename T>
template <typename V>
void SolveService<T>::count(V Counters::*field, std::type_identity_t<V> delta,
                            const char* metric) {
  if (delta == V{}) return;
  {
    std::lock_guard lk(counters_mu_);
    counters_.*field += delta;
  }
  if (metric != nullptr) {
    telemetry_.metrics.add(metric, static_cast<double>(delta));
  }
}

/// Counts `n` requests reaching terminal `status` (indexed by
/// SolveStatus).
template <typename T>
void SolveService<T>::count_terminal(SolveStatus status, std::size_t n) {
  static constexpr std::pair<std::size_t Counters::*, const char*>
      kTerminal[] = {
          {&Counters::completed, "service.solved_systems"},
          {&Counters::rejected, "service.rejected"},
          {&Counters::shed, "service.shed"},
          {&Counters::timed_out, "service.timed_out"},
          {&Counters::failed, "service.failed"},
          {&Counters::singular, "service.singular"},
          {&Counters::nonfinite, "service.nonfinite"},
      };
  const auto& [field, metric] = kTerminal[static_cast<int>(status)];
  count(field, n, metric);
}

/// Evicts the globally oldest queued request. Returns false when the
/// queue was already empty. Caller holds mu_.
template <typename T>
bool SolveService<T>::shed_oldest_locked() {
  auto oldest_bucket = buckets_.end();
  std::uint64_t oldest_seq = std::numeric_limits<std::uint64_t>::max();
  for (auto it = buckets_.begin(); it != buckets_.end(); ++it) {
    if (!it->second.empty() && it->second.front().seq < oldest_seq) {
      oldest_seq = it->second.front().seq;
      oldest_bucket = it;
    }
  }
  if (oldest_bucket == buckets_.end()) return false;
  Pending victim = std::move(oldest_bucket->second.front());
  oldest_bucket->second.pop_front();
  pending_bytes_ -= std::min(pending_bytes_,
                             footprint_of(oldest_bucket->first));
  if (oldest_bucket->second.empty()) buckets_.erase(oldest_bucket);
  --pending_;
  count_terminal(SolveStatus::Shed);
  conclude(victim, "shed", Clock::now());
  finish(std::move(victim.done), SolveStatus::Shed);
  return true;
}

/// Times out every queued request whose deadline lapsed. Caller holds
/// mu_.
template <typename T>
void SolveService<T>::expire_overdue_locked(TimePoint now) {
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& dq = it->second;
    for (auto p = dq.begin(); p != dq.end();) {
      if (p->deadline_tp <= now) {
        time_out(*p, TimeoutScope::Queue, now);
        p = dq.erase(p);
        --pending_;
        pending_bytes_ -= std::min(pending_bytes_,
                                   footprint_of(it->first));
      } else {
        ++p;
      }
    }
    it = dq.empty() ? buckets_.erase(it) : std::next(it);
  }
}

/// Earliest instant at which a trigger can fire (bucket age reaching
/// flush_interval_ms, or a request deadline). Caller holds mu_.
template <typename T>
auto SolveService<T>::next_event_locked() const -> TimePoint {
  TimePoint wake = TimePoint::max();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(cfg_.flush_interval_ms));
  for (const auto& [n, dq] : buckets_) {
    if (dq.empty()) continue;
    wake = std::min(wake, dq.front().enqueue_tp + interval);
    for (const auto& p : dq) wake = std::min(wake, p.deadline_tp);
  }
  return wake;
}

/// True when the breaker admits new work on this worker: Closed or
/// HalfOpen always; Open flips to HalfOpen (one probe) once the
/// cooldown elapsed. Caller holds mu_.
template <typename T>
bool SolveService<T>::breaker_admits_locked(Worker& w, TimePoint now) {
  if (w.breaker != Breaker::Open) return true;
  if (w.open_until > now) return false;
  w.breaker = Breaker::HalfOpen;
  telemetry_.metrics.add("service.breaker.half_open");
  return true;
}

/// The worker with the fewest queued systems among those whose
/// breaker admits work, skipping `skip`; nullptr when none admits.
/// Caller holds mu_.
template <typename T>
auto SolveService<T>::least_loaded_locked(TimePoint now, const Worker* skip)
    -> Worker* {
  Worker* chosen = nullptr;
  for (auto& w : workers_) {
    if (w.get() == skip || !breaker_admits_locked(*w, now)) continue;
    if (chosen == nullptr || w->queued_systems < chosen->queued_systems)
      chosen = w.get();
  }
  return chosen;
}

/// Picks the worker for a flush, steering around open breakers; when
/// every breaker is open the least-recently opened worker takes the job
/// (its queue feeds the eventual probe). Caller holds mu_.
template <typename T>
auto SolveService<T>::pick_worker_locked() -> Worker& {
  Worker* chosen = least_loaded_locked(Clock::now(), nullptr);
  if (chosen == nullptr) {
    for (auto& w : workers_) {
      if (chosen == nullptr || w->open_until < chosen->open_until)
        chosen = w.get();
    }
  }
  return *chosen;
}

/// Queues `job` on worker `w` and wakes it. Caller holds mu_.
template <typename T>
void SolveService<T>::enqueue_job_locked(Worker& w, Job job) {
  w.queued_systems += job.members.size();
  w.queued_bytes += job.members.size() * footprint_of(job.n);
  w.jobs.push_back(std::move(job));
  w.cv.notify_one();
}

/// Opens `w`'s breaker for the cooldown. Caller holds mu_.
template <typename T>
void SolveService<T>::open_breaker_locked(Worker& w, TimePoint now) {
  w.breaker = Breaker::Open;
  w.open_until = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               cfg_.resilience.breaker_cooldown_ms));
  count(&Counters::breaker_opens, 1, "service.breaker.open");
}

/// Breaker bookkeeping after one device attempt. Called by workers
/// (which do not hold mu_).
template <typename T>
void SolveService<T>::record_device_result(Worker& w, bool success) {
  std::lock_guard lk(mu_);
  if (success) {
    w.consecutive_failures = 0;
    if (w.breaker != Breaker::Closed) {
      w.breaker = Breaker::Closed;
      telemetry_.metrics.add("service.breaker.closed");
    }
    return;
  }
  ++w.consecutive_failures;
  if (w.breaker == Breaker::HalfOpen ||
      (w.breaker == Breaker::Closed &&
       w.consecutive_failures >= kBreakerThreshold)) {
    open_breaker_locked(w, Clock::now());
  }
}

/// Joins and respawns every crashed worker thread. Its queue (including
/// the requeued in-flight job) survives untouched, so no request is
/// stranded. Caller holds mu_; the dying thread never re-acquires it,
/// so the join cannot deadlock.
template <typename T>
void SolveService<T>::heal_workers_locked() {
  for (auto& w : workers_) {
    if (!w->crashed) continue;
    if (w->thread.joinable()) w->thread.join();
    w->crashed = false;
    ++w->restarts;
    count(&Counters::worker_restarts, 1, "service.worker_restarts");
    w->thread = std::thread([this, wp = w.get()] { worker_loop(*wp); });
    w->cv.notify_one();
  }
}

/// Flushes every triggered bucket to a worker. Caller holds mu_.
template <typename T>
void SolveService<T>::dispatch_ready_locked(TimePoint now) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(cfg_.flush_interval_ms));
  bool freed = false;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& dq = it->second;
    // Carve jobs of at most flush_systems while a trigger holds:
    // flush_systems is both the size trigger and the batch-size cap, so
    // a deep bucket spreads over the worker pool instead of landing as
    // one oversized batch on a single device.
    for (;;) {
      const char* trigger = nullptr;
      if (dq.empty()) {
        break;
      } else if (draining_) {
        trigger = "drain";
      } else if (dq.size() >= cfg_.flush_systems) {
        trigger = "size";
      } else if (dq.front().enqueue_tp + interval <= now) {
        trigger = "interval";
      }
      if (trigger == nullptr) break;
      Job job;
      job.n = it->first;
      job.trigger = trigger;
      job.flush_tp = now;
      job.oldest_enqueue_tp = dq.front().enqueue_tp;
      const std::size_t take = std::min(dq.size(), cfg_.flush_systems);
      job.members.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        job.members.push_back(std::move(dq.front()));
        dq.pop_front();
      }
      pending_ -= take;
      pending_bytes_ -=
          std::min(pending_bytes_, take * footprint_of(it->first));
      freed = true;
      count(&Counters::flushes, 1, "service.flushes");
      count(&Counters::coalesced_systems, take);
      {
        std::lock_guard clk(counters_mu_);
        counters_.max_batch_systems =
            std::max(counters_.max_batch_systems, take);
      }
      if (telemetry_.metrics.enabled()) {
        telemetry_.metrics.add(std::string("service.flush.") + trigger);
        telemetry_.metrics.observe("service.batch_occupancy",
                                   static_cast<double>(take));
        telemetry_.metrics.observe("service.queue_depth",
                                   static_cast<double>(pending_));
      }
      enqueue_job_locked(pick_worker_locked(), std::move(job));
    }
    it = dq.empty() ? buckets_.erase(it) : std::next(it);
  }
  if (freed) cv_space_.notify_all();
}

/// Any worker with a job running, queued or awaiting revival? Caller
/// holds mu_.
template <typename T>
bool SolveService<T>::any_worker_active_locked() const {
  for (const auto& w : workers_) {
    if (w->busy || w->crashed || !w->jobs.empty()) return true;
  }
  return false;
}

/// The one service thread besides the workers. Each pass revives
/// crashed workers, times out and flushes buckets, and — at most every
/// kSuperviseIntervalMs — watches in-flight jobs and publishes gauges.
/// It sleeps until the next flush/deadline event, or the next tick
/// while a worker is active or metrics are enabled, and returns only
/// when draining with nothing queued, in flight or crashed.
template <typename T>
void SolveService<T>::supervisor_loop() {
  const auto tick = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kSuperviseIntervalMs));
  TimePoint next_tick{};
  std::unique_lock lk(mu_);
  for (;;) {
    heal_workers_locked();
    expire_overdue_locked(Clock::now());
    dispatch_ready_locked(Clock::now());
    const bool active = any_worker_active_locked();
    const bool done = draining_ && pending_ == 0 && !active;
    const TimePoint now = Clock::now();
    if (now >= next_tick || done) {
      watch_workers_locked(now);
      if (telemetry_.metrics.enabled()) {
        publish_service_gauges_locked();
        publish_engine_gauges();
      }
      next_tick = now + tick;
    }
    if (done) return;
    TimePoint wake = next_event_locked();
    if (active || telemetry_.metrics.enabled()) {
      wake = std::min(wake, next_tick);
    }
    if (wake == TimePoint::max()) {
      cv_sched_.wait(lk);
    } else {
      cv_sched_.wait_until(lk, wake);
    }
  }
}

/// Samples every busy worker: cancels jobs past their deadline and
/// issues stall strikes when a solve's heartbeat stops advancing;
/// kStallStrikes consecutive strikes open the worker's breaker so
/// dispatch steers away from the stalled device. Caller holds mu_.
template <typename T>
void SolveService<T>::watch_workers_locked(TimePoint now) {
  const auto stall_threshold =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(
              cfg_.watchdog.stall_threshold_ms));
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.crashed || !w.busy || w.token == nullptr) {
      w.strikes = 0;
      continue;
    }
    if (w.job_deadline <= now && !w.token->cancelled()) {
      w.token->cancel();
      count(&Counters::watchdog_cancels, 1, "service.watchdog.cancels");
    }
    const std::uint64_t beats = w.token->beats();
    if (beats != w.last_beats) {
      w.last_beats = beats;
      w.last_progress_tp = now;
      w.strikes = 0;
    } else if (now - w.last_progress_tp >= stall_threshold) {
      ++w.strikes;
      w.last_progress_tp = now;
      count(&Counters::watchdog_stalls, 1, "service.watchdog.stalls");
      if (w.strikes >= kStallStrikes) {
        w.strikes = 0;
        if (w.breaker != Breaker::Open) open_breaker_locked(w, now);
      }
    }
  }
}

template <typename T>
void SolveService<T>::worker_loop(Worker& w) {
  std::unique_lock lk(mu_);
  for (;;) {
    w.cv.wait(lk, [&w] { return w.stop || !w.jobs.empty(); });
    if (w.jobs.empty() && w.stop) return;
    Job job = std::move(w.jobs.front());
    w.jobs.pop_front();
    const std::size_t systems = job.members.size();
    const std::size_t bytes = systems * footprint_of(job.n);

    auto& inj = faults::FaultInjector::global();
    if (inj.fire(faults::Site::WorkerCrash)) {
      // Simulated thread death. The job is requeued intact (no promise
      // has been touched yet) and the supervisor revives the thread.
      telemetry_.metrics.add("service.faults.worker_crash");
      w.jobs.push_front(std::move(job));
      w.crashed = true;
      cv_sched_.notify_all();
      return;
    }

    // Publish the in-flight job to the supervisor before dropping the
    // lock: earliest member deadline + a fresh heartbeat token.
    w.busy = true;
    w.token = std::make_shared<solver::CancelToken>();
    w.job_deadline = TimePoint::max();
    for (const auto& p : job.members) {
      w.job_deadline = std::min(w.job_deadline, p.deadline_tp);
    }
    w.last_beats = 0;
    w.last_progress_tp = Clock::now();
    w.strikes = 0;
    auto token = w.token;
    lk.unlock();

    process(w, job, token.get());
    lk.lock();
    w.queued_systems -= systems;
    w.queued_bytes -= std::min(w.queued_bytes, bytes);
    w.busy = false;
    w.token.reset();
    if (draining_) cv_sched_.notify_all();
  }
}

/// Runs one coalesced batch on the worker's device and fulfils every
/// member promise. No service lock held. `token` is the cancellation
/// token the worker published to the supervisor for this job.
template <typename T>
void SolveService<T>::process(Worker& w, Job& job,
                              solver::CancelToken* token) {
  std::vector<Pending> live = pick_up(job);
  if (live.empty()) return;

  // Install the primary member's trace context as this worker thread's
  // ambient parent and open a "batch" span under it: every span the
  // solve emits below (tuner, solver stages, chunk splits, kernel
  // launches, CPU fallback) nests under the batch via the thread-local
  // span stack.
  auto& tr = telemetry_.tracer;
  telemetry::TraceContext bctx;
  if (tr.enabled() && live.front().root != telemetry::kInvalidSpan) {
    bctx = telemetry::TraceContext{live.front().ctx.trace_id,
                                   live.front().root};
  }
  telemetry::TraceScope trace_scope(&tr, bctx);
  telemetry::ScopedSpan batch_span(tr, "batch", "service");
  annotate_batch(batch_span, bctx, w, job, live);
  inject_stall();

  tridiag::TridiagBatch<T> batch = gather(live, job.n);
  const TimePoint t_solve0 = Clock::now();
  Attempt at = solve_with_retries(w, batch, token, batch_span);
  if (at.outcome == Outcome::Cancelled) {
    requeue_or_expire(live, job.n);
    return;
  }
  if (at.outcome == Outcome::Exhausted) {
    if (fail_over(w, job, live)) return;
    solve_on_cpu(batch, at);
  }
  const TimePoint t_solve1 = Clock::now();
  if (at.outcome == Outcome::Failed) {
    count_terminal(SolveStatus::Failed, live.size());
    for (auto& p : live) {
      conclude(p, "failed", t_solve1);
      finish(std::move(p.done), SolveStatus::Failed, at.error);
    }
    return;
  }
  deliver(w, job, live, batch, at, t_solve1);
  emit_phase_spans(w, job, live.size(), at, bctx, batch_span, t_solve0,
                   t_solve1);
}

/// Pickup filter: members whose deadline lapsed while queued behind
/// this flush time out here (scope Queue); the rest are returned and
/// solve under the supervisor's in-flight deadline enforcement.
template <typename T>
auto SolveService<T>::pick_up(Job& job) -> std::vector<Pending> {
  const TimePoint now = Clock::now();
  std::vector<Pending> live;
  live.reserve(job.members.size());
  for (auto& p : job.members) {
    if (p.deadline_tp <= now) {
      time_out(p, TimeoutScope::Queue, now);
    } else {
      live.push_back(std::move(p));
    }
  }
  return live;
}

/// Stamps the batch span; batchmates riding along carry a link
/// attribute back to the shared batch trace on their own roots.
template <typename T>
void SolveService<T>::annotate_batch(telemetry::ScopedSpan& span,
                                     const telemetry::TraceContext& bctx,
                                     const Worker& w, const Job& job,
                                     const std::vector<Pending>& live) {
  if (!span.active()) return;
  span.attr("n", static_cast<double>(job.n));
  span.attr("systems", static_cast<double>(live.size()));
  span.attr("device", w.dev.spec().name);
  span.attr("trigger", job.trigger);
  if (job.failovers > 0) {
    span.attr("failovers", static_cast<double>(job.failovers));
  }
  if (!bctx.valid()) return;
  const std::string hex = telemetry::trace_id_hex(bctx.trace_id);
  for (std::size_t i = 1; i < live.size(); ++i) {
    if (live[i].root != telemetry::kInvalidSpan) {
      telemetry_.tracer.attr(live[i].root, "batch_trace", hex);
    }
  }
}

/// WorkerStall injection: sleeps mid-job, after the pickup filter, so
/// a deadline lapsing during the sleep is the supervisor's to enforce
/// and the in-flight timeout path is exercised end to end.
template <typename T>
void SolveService<T>::inject_stall() {
  auto& inj = faults::FaultInjector::global();
  if (!inj.fire(faults::Site::WorkerStall)) return;
  telemetry_.metrics.add("service.faults.worker_stall");
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(inj.config().stall_ms));
}

/// Packs the live members into one system-major batch, then poisons
/// systems on their way to the device when the poison sites fire, so
/// the guards and quarantine get exercised end to end.
template <typename T>
tridiag::TridiagBatch<T> SolveService<T>::gather(
    const std::vector<Pending>& live, std::size_t n) {
  const std::size_t m = live.size();
  tridiag::TridiagBatch<T> batch(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(live[i].a.begin(), live[i].a.end(), batch.a().data() + i * n);
    std::copy(live[i].b.begin(), live[i].b.end(), batch.b().data() + i * n);
    std::copy(live[i].c.begin(), live[i].c.end(), batch.c().data() + i * n);
    std::copy(live[i].d.begin(), live[i].d.end(), batch.d().data() + i * n);
  }
  auto& inj = faults::FaultInjector::global();
  if (!inj.enabled()) return batch;
  for (std::size_t i = 0; i < m; ++i) {
    faults::Poison kind{};
    if (inj.fire(faults::Site::PoisonNaN)) {
      kind = faults::Poison::NaN;
    } else if (inj.fire(faults::Site::PoisonZeroPivot)) {
      kind = faults::Poison::ZeroPivot;
    } else {
      continue;
    }
    faults::poison_system<T>(
        batch.a().subspan(i * n, n), batch.b().subspan(i * n, n),
        batch.c().subspan(i * n, n), batch.d().subspan(i * n, n), kind);
    telemetry_.metrics.add("service.faults.poisoned");
  }
  return batch;
}

/// Tunes and solves `batch` on the worker's device. A device fault is
/// retried kMaxRetries times after a decorrelated-jitter backoff drawn
/// from the worker's own stream (so correlated faults don't retry in
/// lockstep across workers), then reported Exhausted. GuardedSolver
/// absorbs numerical errors and OutOfMemory (genuine or injected) by
/// chunking and bisecting down to a CPU-fallback floor, so anything
/// else that escapes is Failed.
template <typename T>
auto SolveService<T>::solve_with_retries(Worker& w,
                                         tridiag::TridiagBatch<T>& batch,
                                         solver::CancelToken* token,
                                         telemetry::ScopedSpan& batch_span)
    -> Attempt {
  Attempt at;
  double backoff_ms = 0.0;
  for (int attempt = 0;; ++attempt) {
    try {
      // The tuning search is cost-model introspection (hundreds of
      // cost-only launches), not production traffic: run it with the
      // device's fault sites disarmed so an injected launch failure
      // exercises the solve path, not the tuner.
      const bool armed = w.dev.faults_armed();
      w.dev.arm_faults(false);
      tuning::DynamicTuner<T> tuner(w.dev, &cache_);
      const auto tuned =
          tuner.tune({batch.num_systems(), batch.system_size()});
      w.dev.arm_faults(armed);
      if (!tuned.from_cache) count(&Counters::tunes);
      // The tuned layout decides which pipeline this coalesced batch
      // takes (staged PCR vs interleaved SIMD Thomas) — surface it on
      // the batch span so a trace shows the choice per flush.
      if (batch_span.active()) {
        batch_span.attr("layout",
                        tridiag::to_string(tuned.points.layout));
      }
      solver::GpuTridiagonalSolver<T> solver(w.dev, tuned.points);
      solver.set_cancel_token(token);
      solver::GuardedSolver<T> guarded(w.dev, solver);
      at.result = guarded.solve(batch);
      record_device_result(w, true);
      at.outcome = Outcome::Solved;
      return at;
    } catch (const solver::SolveCancelled&) {
      at.outcome = Outcome::Cancelled;
      return at;
    } catch (const faults::DeviceFault& e) {
      record_device_result(w, false);
      telemetry_.metrics.add("service.faults.device");
      if (attempt >= kMaxRetries) {
        at.outcome = Outcome::Exhausted;
        at.error = e.what();
        return at;
      }
      ++at.retries;
      count(&Counters::retries, 1, "service.retries");
      backoff_ms = decorrelated_backoff_ms(cfg_.resilience.retry_backoff_ms,
                                           backoff_ms, kRetryBackoffMaxMs,
                                           w.backoff_rng);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    } catch (const std::exception& e) {
      at.error = e.what();
      return at;
    }
  }
}

/// After a supervisor cancel: members whose deadline has lapsed finish
/// as TimedOut (scope InFlight); the rest are requeued at the front of
/// their bucket so a later, smaller flush can still make their
/// deadline. Requeued members keep their root span open, so the
/// re-dispatch emits a second batch span under the same request tree.
/// During the drain nothing would dispatch a requeue, so everything
/// times out.
template <typename T>
void SolveService<T>::requeue_or_expire(std::vector<Pending>& live,
                                        std::size_t n) {
  const TimePoint now = Clock::now();
  std::vector<Pending> requeue;
  std::lock_guard lk(mu_);
  for (auto& p : live) {
    if (!draining_ && p.deadline_tp > now) {
      requeue.push_back(std::move(p));
    } else {
      time_out(p, TimeoutScope::InFlight, now);
    }
  }
  if (requeue.empty()) return;
  count(&Counters::timeout_requeues, requeue.size(),
        "service.timeout_requeues");
  auto& dq = buckets_[n];
  dq.insert(dq.begin(), std::make_move_iterator(requeue.begin()),
            std::make_move_iterator(requeue.end()));
  pending_ += requeue.size();
  pending_bytes_ += requeue.size() * footprint_of(n);
  cv_sched_.notify_all();
}

/// Hands a job whose retries are spent to the least-loaded other
/// worker — at most num_workers - 1 times, so it cannot ping-pong
/// forever. False when no other worker may take it.
template <typename T>
bool SolveService<T>::fail_over(Worker& w, Job& job,
                                std::vector<Pending>& live) {
  if (job.failovers + 1 >= workers_.size()) return false;
  std::lock_guard lk(mu_);
  Worker* alt = least_loaded_locked(Clock::now(), &w);
  if (alt == nullptr) return false;
  ++job.failovers;
  job.members = std::move(live);
  enqueue_job_locked(*alt, std::move(job));
  count(&Counters::failovers, 1, "service.failovers");
  return true;
}

/// The last resort for an exhausted batch: the pivoting CPU solver.
template <typename T>
void SolveService<T>::solve_on_cpu(tridiag::TridiagBatch<T>& batch,
                                   Attempt& at) {
  count(&Counters::cpu_failovers, 1, "service.cpu_failovers");
  at.result = {};
  at.result.status.resize(batch.num_systems());
  solver::fallback_range(batch, 0, batch.num_systems(), at.result.status);
  at.result.tally();
  at.outcome = Outcome::Solved;
}

/// Counts a solved batch, then answers every member with its own
/// status, solution and timings.
template <typename T>
void SolveService<T>::deliver(Worker& w, const Job& job,
                              std::vector<Pending>& live,
                              const tridiag::TridiagBatch<T>& batch,
                              const Attempt& at, TimePoint t_solve1) {
  const auto& r = at.result;
  const std::size_t m = live.size();
  const std::size_t n = job.n;
  // Account BEFORE fulfilling promises: anyone who has observed a
  // future resolve must see counters that include that request.
  count(&Counters::device_ms, r.stats.total_ms);
  count_terminal(SolveStatus::Ok, r.gpu_solved + r.fallback_used);
  count_terminal(SolveStatus::Singular, r.singular);
  count_terminal(SolveStatus::NonFinite, r.nonfinite);
  count(&Counters::fallbacks, r.fallback_used, "service.fallback_used");
  count(&Counters::quarantined, r.quarantined, "service.quarantined");
  const bool chunked = r.chunks > 1;
  count(&Counters::chunks, r.chunks, chunked ? "service.chunks" : nullptr);
  count(&Counters::chunked_solves, chunked ? 1 : 0,
        "service.chunked_solves");
  count(&Counters::oom_events, r.oom_events, "service.oom_events");
  count(&Counters::oom_fallbacks, r.oom_fallback_systems,
        "service.oom_fallbacks");
  telemetry_.metrics.observe("service.solve_ms", r.stats.total_ms);
  auto& tr = telemetry_.tracer;
  for (std::size_t i = 0; i < m; ++i) {
    SolveResponse<T> resp;
    const char* outcome = "ok";
    switch (r.status[i]) {
      case solver::SystemStatus::Ok:
        resp.status = SolveStatus::Ok;
        break;
      case solver::SystemStatus::FallbackUsed:
        resp.status = SolveStatus::Ok;
        resp.fallback_used = true;
        outcome = "fallback";
        break;
      case solver::SystemStatus::Singular:
        resp.status = SolveStatus::Singular;
        resp.error = "system is numerically singular";
        outcome = "singular";
        break;
      case solver::SystemStatus::NonFinite:
        resp.status = SolveStatus::NonFinite;
        resp.error = "system contains non-finite coefficients";
        outcome = "nonfinite";
        break;
    }
    if (resp.status == SolveStatus::Ok) {
      resp.x.assign(batch.x().begin() + i * n,
                    batch.x().begin() + (i + 1) * n);
    }
    resp.trace_id = live[i].ctx.trace_id;
    resp.batch_systems = m;
    resp.retries = at.retries;
    resp.chunks = r.chunks;
    resp.wait_ms = std::chrono::duration<double, std::milli>(
                       job.flush_tp - live[i].enqueue_tp)
                       .count();
    resp.solve_ms = r.stats.total_ms;
    resp.device = w.dev.spec().name;
    telemetry_.metrics.observe("service.wait_ms", resp.wait_ms);
    telemetry_.metrics.observe(
        "service.e2e_ms", std::chrono::duration<double, std::milli>(
                              t_solve1 - live[i].enqueue_tp)
                              .count());
    if (live[i].root != telemetry::kInvalidSpan) {
      tr.attr(live[i].root, "device", w.dev.spec().name);
      if (at.retries > 0) {
        tr.attr(live[i].root, "retries", static_cast<double>(at.retries));
      }
    }
    conclude(live[i], outcome, t_solve1);
    live[i].done.deliver(std::move(resp));
  }
}

/// Whole spans with pre-measured wall timestamps, parented explicitly:
/// "enqueue" predates the batch span so it hangs off the request root;
/// the scheduling phases nest under the batch.
template <typename T>
void SolveService<T>::emit_phase_spans(const Worker& w, const Job& job,
                                       std::size_t m, const Attempt& at,
                                       const telemetry::TraceContext& bctx,
                                       const telemetry::ScopedSpan& batch_span,
                                       TimePoint t_solve0,
                                       TimePoint t_solve1) {
  auto& tr = telemetry_.tracer;
  if (!tr.enabled()) return;
  const TimePoint t_done = Clock::now();
  const telemetry::TraceContext under_batch{
      bctx.trace_id, batch_span.active() ? batch_span.id() : bctx.parent};
  const auto span = [&](const char* name, TimePoint b, TimePoint e,
                        telemetry::TraceContext ctx) {
    const auto id = tr.emit_at(name, "service", wall_s(b), wall_s(e), ctx);
    tr.attr(id, "n", static_cast<double>(job.n));
    tr.attr(id, "systems", static_cast<double>(m));
    tr.attr(id, "device", w.dev.spec().name);
    return id;
  };
  const auto enq = span("enqueue", job.oldest_enqueue_tp, job.flush_tp, bctx);
  tr.attr(enq, "trigger", job.trigger);
  span("flush", job.flush_tp, t_solve0, under_batch);
  const auto slv = span("solve", t_solve0, t_solve1, under_batch);
  tr.attr(slv, "sim_ms", at.result.stats.total_ms);
  if (at.retries > 0) {
    tr.attr(slv, "retries", static_cast<double>(at.retries));
  }
  if (at.result.fallback_used > 0) {
    tr.attr(slv, "fallbacks", static_cast<double>(at.result.fallback_used));
  }
  span("complete", t_solve1, t_done, under_batch);
}

template class SolveService<double>;

}  // namespace tda::service
