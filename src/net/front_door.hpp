#pragma once
// FrontDoor — the wire-protocol server in front of SolveService
// (docs/NET.md).
//
// One poll-based event thread owns every connection: it accepts from a
// TCP and/or unix-domain listener, reads frames into per-connection
// buffers, authenticates tenants (Hello), enforces tenant quotas at
// admission with typed SolveErr rejects, and queues admitted requests
// into per-tenant deficit-round-robin lanes. The pump drains lanes into
// SolveService::submit (callback form) while the service-side in-flight
// window has room; the service's own shape-bucketed coalescer then
// merges same-shape systems across tenants into single ragged solves.
//
// Completions arrive on service worker threads. The callback encodes
// the response, parks it on a mutex-guarded queue and writes one byte
// to the wake pipe under that same lock (shutdown() closes the pipe
// under it too, so a late completion can never write to a closed or
// reused fd) — it never touches the service or the poll thread's
// state, so the service-mutex -> completions-mutex lock order is the
// only one that exists. The poll thread swaps the queue out under the
// lock and does all socket work unlocked.
//
// Flow control:
//   * slow consumers: a connection whose write buffer passes
//     write_buffer_limit stops being read (POLLIN off) until it drains
//     below half the limit — one stalled reader cannot balloon memory
//     or starve the loop;
//   * idle timeout: a connection with no traffic and nothing in flight
//     for idle_timeout_ms is closed;
//   * drain: begin_drain() stops accepting connections, answers new
//     Solve frames with ErrorCode::Draining, lets everything already
//     admitted finish through the service, flushes write buffers, says
//     Goodbye and only then lets shutdown() return — a client
//     mid-stream at drain time gets its completed response or a typed
//     Draining frame, never a silent close.
//
// Faults (TDA_FAULTS): net_drop closes a connection mid-read; bytes
// read while net_corrupt fires are bit-flipped before decoding, which
// the checksum turns into a BadFrame reject + close. Both are counted.
//
// Reliability layer (protocol v2, docs/ROBUSTNESS.md):
//   * deadlines: v2 Solve frames carry an absolute unix-epoch deadline
//     (v1 relative budgets and per-tenant defaults are folded into the
//     same absolute form at arrival). Expired-on-arrival requests are
//     rejected with DeadlineExpired before admission; requests whose
//     deadline lapses while parked in a lane are rejected at the pump,
//     before any device dispatch. What survives enters the service with
//     its remaining relative budget.
//   * idempotency: keyed Solves run through a per-tenant dedup cache.
//     A resend of a completed request replays the cached result; a
//     resend of one still executing parks as a waiter on it. The device
//     never executes the same (tenant, key) twice while the entry
//     lives — net.duplicate_executions counts violations (stays 0).
//   * overload: a CoDel-style queue-age check sheds from lanes whose
//     head sojourn stays above codel_target_ms for a full
//     codel_interval_ms (then at increasing frequency), and a per-
//     tenant AIMD window throttles how many of a tenant's requests may
//     be in the service at once — sheds and timeouts shrink it
//     multiplicatively, completions grow it back. Together they keep
//     goodput from collapsing when offered load is a multiple of
//     capacity.
//
// Compilation: the member functions are defined in front_door.cpp and
// compiled once into tda_net for T = double, the one instantiation
// (declared extern below).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/dedup.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/tenant.hpp"
#include "ops/state.hpp"
#include "service/solve_service.hpp"
#include "telemetry/metrics.hpp"

namespace tda::net {

struct FrontDoorConfig {
  /// TCP listen spec ("127.0.0.1:0" for an ephemeral port); empty = no
  /// TCP listener.
  std::string tcp;
  /// Unix-domain socket path; empty = no unix listener. At least one
  /// listener must be configured.
  std::string unix_path;

  /// Per-request equation cap (ErrorCode::TooLarge beyond it).
  std::size_t max_systems = std::size_t{1} << 22;
  /// Decoder payload cap; larger length prefixes are Corrupt.
  std::size_t max_payload_bytes = std::size_t{256} << 20;
  /// Write-buffer high-water mark: past it the connection stops being
  /// read until the buffer drains below half of it.
  std::size_t write_buffer_limit = std::size_t{4} << 20;
  /// Close connections idle (no traffic, nothing in flight) this long.
  /// 0 disables.
  double idle_timeout_ms = 0.0;
  /// Systems submitted into the service and not yet completed; the DRR
  /// pump stops at this window so lanes (where fairness is decided)
  /// stay the queueing point instead of the service's FIFO buckets.
  std::size_t max_service_inflight = 256;
  /// DRR quantum in equations per weight unit per round.
  double drr_quantum = 1024.0;
  /// Refuse Solve frames from connections that never authenticated.
  bool require_auth = true;
  /// Poll timeout (ms) — the cadence of idle/timeout housekeeping.
  double poll_interval_ms = 10.0;
  /// During drain, force-close connections whose write buffers have not
  /// flushed after this long (a consumer that stopped reading cannot
  /// hold shutdown hostage). Completion callbacks are always awaited.
  double drain_flush_timeout_ms = 5000.0;

  /// Idempotency dedup cache bounds (per-tenant keys, shared caps).
  DedupConfig dedup;
  /// CoDel queue-age shedding: head sojourn above target for a full
  /// interval starts dropping. codel_target_ms <= 0 disables.
  double codel_target_ms = 5.0;
  double codel_interval_ms = 100.0;
  /// AIMD per-tenant concurrency window over the service in-flight
  /// budget. false = every lane may fill the whole window.
  bool aimd_enabled = true;
  double aimd_min = 1.0;      ///< window floor (requests)
  double aimd_backoff = 0.7;  ///< multiplicative decrease factor

  /// Clock-skew guard (docs/OPERATIONS.md): a Hello that carries the
  /// client's wall clock yields a per-connection skew estimate
  /// (arrival time minus client stamp, so it overestimates by one-way
  /// latency — the threshold absorbs that). When |skew| exceeds this,
  /// the connection's *absolute* v2 deadlines are untrusted and
  /// replaced with the tenant's default budget instead of rejecting
  /// everything as expired (or accepting everything forever).
  /// <= 0 disables the clamp.
  double max_clock_skew_ms = 2000.0;

  /// Listener fds inherited from a previous server generation over the
  /// hot-restart handoff socket (docs/OPERATIONS.md). >= 0 adopts the
  /// fd instead of binding `tcp` / `unix_path` — both generations then
  /// share one kernel accept queue, so no connect is ever refused
  /// during the switchover.
  int inherited_tcp_fd = -1;
  int inherited_unix_fd = -1;
};

/// Monotonic counters of the front door (snapshot via counters()).
struct FrontDoorCounters {
  std::uint64_t connections = 0;      ///< accepted
  std::uint64_t closed = 0;           ///< closed (any reason)
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bad_frames = 0;       ///< corrupt/unparsable frames
  std::uint64_t auth_failures = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_rejected = 0; ///< typed rejects incl. quota/drain
  std::uint64_t responses_sent = 0;
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t idle_closes = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_corruptions = 0;
  std::uint64_t dedup_hits = 0;       ///< resends served from cache
  std::uint64_t dedup_joins = 0;      ///< resends parked on in-flight work
  std::uint64_t dedup_evictions = 0;  ///< cache TTL/cap evictions
  std::uint64_t duplicate_executions = 0;  ///< keyed work executed twice
                                           ///< (exactly-once proof: 0)
  std::uint64_t deadline_expired_arrival = 0;  ///< expired before admission
  std::uint64_t deadline_expired_queued = 0;   ///< expired in a lane
  std::uint64_t shed_codel = 0;       ///< queue-age sheds
  std::uint64_t aimd_throttles = 0;   ///< pump passes blocked by a window
  std::uint64_t key_reuse = 0;        ///< idem key reused, different payload
  std::uint64_t deadline_skew_clamped = 0;  ///< absolute deadlines replaced
                                            ///< on skewed connections
};

template <typename T>
class FrontDoor {
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

 public:
  FrontDoor(service::SolveService<T>& svc, FrontDoorConfig cfg);
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Registers a tenant. Call before start().
  void add_tenant(TenantConfig cfg);

  [[nodiscard]] TenantRegistry& tenants() { return tenants_; }

  /// Opens the listeners and starts the poll thread. False (with *err
  /// set) when no listener could be opened.
  bool start(std::string* err);

  /// The TCP port actually bound (resolves an ephemeral ":0" spec).
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  /// Starts the graceful drain without waiting: stops accepting, new
  /// Solve frames answer Draining, admitted work keeps flowing.
  void begin_drain();

  /// Drains and stops: waits for every admitted request's completion to
  /// be delivered (or its connection's flush window to lapse), closes
  /// all sockets and joins the poll thread. Idempotent.
  void shutdown();

  [[nodiscard]] FrontDoorCounters counters() const;

  /// Admitted-but-unanswered systems inside the service window.
  [[nodiscard]] std::size_t service_inflight() const {
    return service_inflight_.load(std::memory_order_relaxed);
  }

  // --- zero-downtime operations surface (src/ops, docs/OPERATIONS.md) ---

  /// Runs `fn` on the poll thread at its next iteration. This is the
  /// only way code off the poll thread may touch poll-thread-owned
  /// state (dedup cache, lanes, AIMD windows, connections, listeners):
  /// the admin socket and the snapshot writer both funnel through here.
  /// Tasks posted after shutdown() has joined the thread run inline on
  /// the caller (the poll thread is gone, so there is nothing to race).
  void post(std::function<void()> fn);

  /// Copies everything restart-persistent into `out`: tenant registry
  /// rows (config + usage + AIMD window) and the completed dedup
  /// entries with their payload hashes. Poll-thread state is read
  /// directly, so call this *on* the poll thread (via post()) while
  /// running, or from the owning thread after shutdown.
  void export_state(ops::ServerState& out);

  /// Rebuilds live state from a snapshot: tenants are added or updated
  /// in place (never removed — pointers must stay stable), AIMD windows
  /// restored, and completed dedup entries seeded so a byte-identical
  /// resend of pre-restart work replays instead of re-executing. Call
  /// before start() — it touches poll-thread state without the thread.
  void import_state(const ops::ServerState& st);

  /// Raw listener fds, for SCM_RIGHTS handoff to the next generation.
  /// -1 = no such listener. The poll thread closes them when the drain
  /// starts, so read them only on the poll thread (inside a post()ed
  /// task) and dup them there if they must outlive the task.
  [[nodiscard]] int tcp_listener_fd() const { return tcp_listener_.get(); }
  [[nodiscard]] int unix_listener_fd() const {
    return unix_listener_.get();
  }

  /// After a handoff the unix socket path belongs to the *next*
  /// generation — this generation's shutdown must not unlink it out
  /// from under the shared listener.
  void suppress_unlink() { unlink_on_shutdown_ = false; }

  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Live-tunable knobs (CoDel target/interval, AIMD floor/backoff,
  /// clock-skew threshold...). The poll thread reads cfg_ locklessly,
  /// so mutate ONLY from the poll thread — i.e. inside a post()ed
  /// closure. Listener/path fields must not change after start().
  [[nodiscard]] FrontDoorConfig& config_mutable() { return cfg_; }

 private:
  struct Conn {
    Fd fd;
    std::uint64_t id = 0;
    std::string rbuf, wbuf;
    Tenant* tenant = nullptr;
    TimePoint last_rx{};
    std::size_t inflight = 0;  ///< admitted requests not yet answered
    std::uint16_t wire_version = kVersion;  ///< negotiated via Hello
    double skew_ms = 0.0;      ///< server clock minus client clock (est.)
    bool skew_known = false;   ///< Hello carried a client timestamp
    bool paused = false;       ///< POLLIN off (write-buffer high water)
    bool closing = false;      ///< flush wbuf, then close
  };

  /// A request admitted past quotas, parked in its tenant's DRR lane.
  struct Queued {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    Tenant* tenant = nullptr;
    std::size_t bytes = 0;
    double deadline_unix_ms = 0.0;  ///< absolute; 0 = none
    std::uint64_t idem_key = 0;     ///< 0 = unkeyed
    double enqueue_s = 0.0;         ///< now_s() at lane entry (CoDel)
    SolveFrame<T> frame;
  };

  /// A completed response on its way from a worker callback to the poll
  /// thread, which encodes it per recipient (the original requester may
  /// have dedup waiters on other connections, each with its own
  /// negotiated wire version).
  struct Done {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    Tenant* tenant = nullptr;
    std::size_t systems = 0;
    std::size_t bytes = 0;
    std::uint64_t idem_key = 0;
    service::SolveResponse<T> resp;
  };

  using Waiter = typename DedupCache<service::SolveResponse<T>>::Waiter;

  // Wake pipe, posted tasks, clocks and accounting.
  void wake();
  void wake_locked();
  void run_tasks();
  [[nodiscard]] double now_s() const;
  [[nodiscard]] double mono_ms() const;
  void count(std::uint64_t FrontDoorCounters::* field,
             std::uint64_t delta = 1);
  telemetry::MetricsRegistry& metrics();
  static std::uint64_t tenant_id(const Tenant* t);

  // Connections: accept, read, decode, write, close.
  void send_frame(Conn& conn, std::string bytes);
  void send_err(Conn& conn, std::uint64_t request_id, ErrorCode code,
                std::string_view msg);
  void reject(Conn& conn, std::uint64_t request_id, ErrorCode code,
              std::string_view msg);
  void maybe_pause(Conn& conn);
  void maybe_resume(Conn& conn);
  void close_conn(std::uint64_t id);
  void accept_from(Fd& listener);
  void bad_frame(Conn& conn, std::string_view why);
  void handle_frame(Conn& conn, const FrameView& frame);
  bool read_conn(Conn& conn);
  bool write_conn(Conn& conn);
  void sweep_idle(TimePoint now);

  // Admission: authentication, deadlines, idempotency, quotas.
  void handle_hello(Conn& conn, const FrameView& frame);
  void handle_solve(Conn& conn, const FrameView& frame);
  void answer_waiter(const Waiter& w, const service::SolveResponse<T>& resp);
  void abort_dedup(Tenant* tenant, std::uint64_t idem_key, ErrorCode code,
                   std::string_view msg);
  void sync_dedup_counters();

  // The DRR pump into the service and the completions coming back.
  void reject_queued(Queued& q, ErrorCode code, std::string_view msg);
  [[nodiscard]] double aimd_limit_of(Tenant* t) const;
  void aimd_congested(Tenant* t);
  void aimd_completed(Tenant* t);
  bool codel_should_drop(Tenant* t, double sojourn_ms, double now);
  void pump();
  void encode_response(std::uint64_t request_id,
                       const service::SolveResponse<T>& resp,
                       std::string& out,
                       std::uint16_t wire_version = kVersion);
  void drain_done();
  void loop();

  service::SolveService<T>& svc_;
  FrontDoorConfig cfg_;
  TenantRegistry tenants_;

  Fd tcp_listener_, unix_listener_, wake_rd_, wake_wr_;
  std::uint16_t tcp_port_ = 0;
  bool running_ = false;
  std::thread thread_;
  std::atomic<bool> draining_{false};
  const TimePoint epoch_ = Clock::now();

  // --- poll-thread-owned state ---
  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  DrrScheduler<Queued> lanes_;
  DedupCache<service::SolveResponse<T>> dedup_;
  Tenant* anon_ = nullptr;  ///< implicit tenant when require_auth is off
  std::size_t inflight_bytes_ = 0;

  // --- shared with worker callbacks ---
  std::atomic<std::size_t> service_inflight_{0};
  std::mutex done_mu_;  ///< guards done_ and the wake pipe's fds
  std::vector<Done> done_;

  // --- ops surface (admin / snapshot threads -> poll thread) ---
  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;
  bool unlink_on_shutdown_ = true;  ///< false after a listener handoff

  mutable std::mutex counters_mu_;
  FrontDoorCounters counters_;
};

extern template class FrontDoor<double>;

}  // namespace tda::net
