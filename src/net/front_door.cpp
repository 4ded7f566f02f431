// FrontDoor's member definitions, compiled once into tda_net for
// T = double (see front_door.hpp).
#include "net/front_door.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "faults/faults.hpp"

namespace tda::net {

template <typename T>
FrontDoor<T>::FrontDoor(service::SolveService<T>& svc, FrontDoorConfig cfg)
    : svc_(svc),
      cfg_(std::move(cfg)),
      lanes_(cfg_.drr_quantum),
      dedup_(cfg_.dedup) {}

template <typename T>
FrontDoor<T>::~FrontDoor() { shutdown(); }

template <typename T>
void FrontDoor<T>::add_tenant(TenantConfig cfg) {
  tenants_.add(std::move(cfg));
}

template <typename T>
bool FrontDoor<T>::start(std::string* err) {
  if (running_) return true;
  if (cfg_.tcp.empty() && cfg_.unix_path.empty() &&
      cfg_.inherited_tcp_fd < 0 && cfg_.inherited_unix_fd < 0) {
    if (err != nullptr) *err = "front door has no listener configured";
    return false;
  }
  if (cfg_.inherited_tcp_fd >= 0) {
    // Hot restart: adopt the previous generation's listener instead
    // of binding — both generations then accept from one queue.
    tcp_listener_ = Fd(cfg_.inherited_tcp_fd);
    tcp_port_ = bound_port(tcp_listener_.get());
    set_nonblocking(tcp_listener_.get());
  } else if (!cfg_.tcp.empty()) {
    const auto ep = parse_endpoint(cfg_.tcp);
    if (!ep || ep->is_unix) {
      if (err != nullptr) *err = "bad tcp listen spec: " + cfg_.tcp;
      return false;
    }
    tcp_listener_ = listen_endpoint(*ep, 64, err);
    if (!tcp_listener_.valid()) return false;
    tcp_port_ = bound_port(tcp_listener_.get());
    set_nonblocking(tcp_listener_.get());
  }
  if (cfg_.inherited_unix_fd >= 0) {
    // Adopting means *not* re-binding cfg_.unix_path — the path on
    // disk already names this very socket; unlinking it here (as
    // listen_endpoint would) would cut off the shared accept queue.
    unix_listener_ = Fd(cfg_.inherited_unix_fd);
    set_nonblocking(unix_listener_.get());
  } else if (!cfg_.unix_path.empty()) {
    Endpoint ep;
    ep.is_unix = true;
    ep.path = cfg_.unix_path;
    unix_listener_ = listen_endpoint(ep, 64, err);
    if (!unix_listener_.valid()) return false;
    set_nonblocking(unix_listener_.get());
  }
  if (!cfg_.require_auth && anon_ == nullptr) {
    // Unauthenticated connections still need a lane and accounting;
    // the token starts with a NUL so no wire Hello can match it.
    TenantConfig anon;
    anon.name = "anon";
    anon.token = std::string("\0anon", 5);
    tenants_.add(anon);
    anon_ = tenants_.authenticate(anon.token);
  }
  int fds[2];
  if (::pipe(fds) != 0) {
    if (err != nullptr) *err = "wake pipe failed";
    return false;
  }
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
  {
    std::lock_guard lk(done_mu_);
    wake_rd_ = Fd(fds[0]);
    wake_wr_ = Fd(fds[1]);
  }
  {
    // post() reads running_ under tasks_mu_ from the admin thread.
    std::lock_guard lk(tasks_mu_);
    running_ = true;
  }
  thread_ = std::thread([this] { loop(); });
  return true;
}

template <typename T>
void FrontDoor<T>::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
  wake();
}

template <typename T>
void FrontDoor<T>::shutdown() {
  if (!running_) return;
  begin_drain();
  if (thread_.joinable()) thread_.join();
  // Closed before running_ drops: a task post()ed after that runs
  // inline on its own thread and must find the listeners settled.
  tcp_listener_.reset();
  unix_listener_.reset();
  {
    std::lock_guard lk(tasks_mu_);
    running_ = false;
  }
  // Tasks that slipped in after the loop exited still get answered —
  // a promise parked on one must never deadlock a clean shutdown.
  run_tasks();
  {
    std::lock_guard lk(done_mu_);
    wake_rd_.reset();
    wake_wr_.reset();
  }
  if (!cfg_.unix_path.empty() && unlink_on_shutdown_) {
    ::unlink(cfg_.unix_path.c_str());
  }
}

template <typename T>
FrontDoorCounters FrontDoor<T>::counters() const {
  std::lock_guard lk(counters_mu_);
  return counters_;
}

template <typename T>
void FrontDoor<T>::post(std::function<void()> fn) {
  bool inline_run = false;
  {
    std::lock_guard lk(tasks_mu_);
    if (running_) {
      tasks_.push_back(std::move(fn));
    } else {
      inline_run = true;  // no poll thread, so nothing to race
    }
  }
  if (inline_run) {
    fn();
    return;
  }
  wake();
}

template <typename T>
void FrontDoor<T>::export_state(ops::ServerState& out) {
  out.tenants.clear();
  out.entries.clear();
  for (const auto& row : tenants_.configs()) {
    ops::TenantState ts;
    ts.name = row.cfg.name;
    ts.token = row.cfg.token;
    ts.weight = row.cfg.weight;
    ts.max_inflight = row.cfg.max_inflight;
    ts.max_inflight_bytes = row.cfg.max_inflight_bytes;
    ts.requests_per_sec = row.cfg.requests_per_sec;
    ts.burst = row.cfg.burst;
    ts.default_deadline_ms = row.cfg.default_deadline_ms;
    ts.disabled = row.disabled;
    ts.admitted = row.admitted;
    ts.rejected = row.rejected;
    Tenant* t = tenants_.find(row.cfg.name);
    if (t != nullptr) ts.aimd_limit = t->aimd_limit;
    out.tenants.push_back(std::move(ts));
  }
  // Dedup keys are scoped by Tenant* — map each back to its name so
  // the next generation (different addresses) can re-scope them.
  std::map<std::uint64_t, std::string> names;
  for (const auto& ts : out.tenants) {
    names[tenant_id(tenants_.find(ts.name))] = ts.name;
  }
  dedup_.for_each_completed([&](std::uint64_t tid, std::uint64_t key,
                                std::uint64_t payload_hash,
                                const service::SolveResponse<T>& resp,
                                std::size_t /*bytes*/) {
    auto it = names.find(tid);
    if (it == names.end()) return;  // anon or dead-tenant entry
    ops::DedupEntryState e;
    e.tenant = it->second;
    e.key = key;
    e.payload_hash = payload_hash;
    e.status = static_cast<int>(resp.status);
    e.error = resp.error;
    e.device = resp.device;
    e.x.assign(resp.x.begin(), resp.x.end());
    e.solve_ms = resp.solve_ms;
    e.wait_ms = resp.wait_ms;
    e.batch_systems = resp.batch_systems;
    e.retries = resp.retries;
    e.chunks = resp.chunks;
    e.fallback_used = resp.fallback_used;
    out.entries.push_back(std::move(e));
  });
  const DedupStats& s = dedup_.stats();
  out.dedup_stats.inserts = s.inserts;
  out.dedup_stats.hits = s.hits;
  out.dedup_stats.joins = s.joins;
  out.dedup_stats.evictions = s.evictions;
  out.dedup_stats.duplicate_executions = s.duplicate_executions;
}

template <typename T>
void FrontDoor<T>::import_state(const ops::ServerState& st) {
  for (const auto& ts : st.tenants) {
    TenantConfig cfg;
    cfg.name = ts.name;
    cfg.token = ts.token;
    cfg.weight = ts.weight;
    cfg.max_inflight = ts.max_inflight;
    cfg.max_inflight_bytes = ts.max_inflight_bytes;
    cfg.requests_per_sec = ts.requests_per_sec;
    cfg.burst = ts.burst;
    cfg.default_deadline_ms = ts.default_deadline_ms;
    if (tenants_.find(ts.name) == nullptr) {
      tenants_.add(cfg);
    } else {
      tenants_.update(ts.name, cfg);
    }
    tenants_.disable(ts.name, ts.disabled);
    Tenant* t = tenants_.find(ts.name);
    if (t != nullptr) {
      t->aimd_limit = ts.aimd_limit;
      t->admitted = ts.admitted;
      t->rejected = ts.rejected;
    }
  }
  for (const auto& e : st.entries) {
    Tenant* t = tenants_.find(e.tenant);
    if (t == nullptr) continue;
    service::SolveResponse<T> resp;
    resp.status = static_cast<service::SolveStatus>(e.status);
    resp.error = e.error;
    resp.device = e.device;
    resp.x.assign(e.x.begin(), e.x.end());
    resp.solve_ms = e.solve_ms;
    resp.wait_ms = e.wait_ms;
    resp.batch_systems = e.batch_systems;
    resp.retries = e.retries;
    resp.chunks = e.chunks;
    resp.fallback_used = e.fallback_used;
    const std::size_t bytes = resp.x.size() * sizeof(T) + 128;
    dedup_.seed_completed(tenant_id(t), e.key, e.payload_hash,
                          std::move(resp), bytes, mono_ms());
  }
  sync_dedup_counters();
}

template <typename T>
void FrontDoor<T>::wake() {
  std::lock_guard lk(done_mu_);
  wake_locked();
}

/// Writes the wake byte. Caller holds done_mu_, which also guards the
/// pipe's lifetime.
template <typename T>
void FrontDoor<T>::wake_locked() {
  if (wake_wr_.valid()) {
    const char b = 1;
    (void)::write(wake_wr_.get(), &b, 1);
  }
}

/// Executes every posted closure. Runs on the poll thread while it
/// lives; shutdown() calls it once more after the join for stragglers.
template <typename T>
void FrontDoor<T>::run_tasks() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard lk(tasks_mu_);
    batch.swap(tasks_);
  }
  for (auto& fn : batch) fn();
}

template <typename T>
double FrontDoor<T>::now_s() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

template <typename T>
void FrontDoor<T>::count(std::uint64_t FrontDoorCounters::* field,
                         std::uint64_t delta) {
  std::lock_guard lk(counters_mu_);
  counters_.*field += delta;
}

template <typename T>
telemetry::MetricsRegistry& FrontDoor<T>::metrics() {
  return svc_.telemetry().metrics;
}

template <typename T>
void FrontDoor<T>::send_frame(Conn& conn, std::string bytes) {
  count(&FrontDoorCounters::frames_tx);
  count(&FrontDoorCounters::bytes_tx, bytes.size());
  if (metrics().enabled()) {
    metrics().add("net.frames_tx");
    metrics().add("net.bytes_tx", static_cast<double>(bytes.size()));
  }
  conn.wbuf.append(bytes);
  maybe_pause(conn);
}

template <typename T>
void FrontDoor<T>::send_err(Conn& conn, std::uint64_t request_id,
                            ErrorCode code, std::string_view msg) {
  std::string out;
  encode_solve_err(out, request_id, code, msg);
  send_frame(conn, std::move(out));
}

template <typename T>
void FrontDoor<T>::reject(Conn& conn, std::uint64_t request_id,
                          ErrorCode code, std::string_view msg) {
  count(&FrontDoorCounters::requests_rejected);
  if (metrics().enabled()) {
    const std::string tenant =
        conn.tenant != nullptr ? conn.tenant->cfg.name : "-";
    metrics().add(telemetry::labeled(
        "net.rejects",
        {{"tenant", tenant}, {"reason", to_string(code)}}));
  }
  send_err(conn, request_id, code, msg);
}

template <typename T>
void FrontDoor<T>::maybe_pause(Conn& conn) {
  if (!conn.paused && conn.wbuf.size() > cfg_.write_buffer_limit) {
    conn.paused = true;
    count(&FrontDoorCounters::backpressure_pauses);
    if (metrics().enabled()) metrics().add("net.backpressure_pauses");
  }
}

template <typename T>
void FrontDoor<T>::maybe_resume(Conn& conn) {
  if (conn.paused && conn.wbuf.size() < cfg_.write_buffer_limit / 2) {
    conn.paused = false;
  }
}

template <typename T>
void FrontDoor<T>::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  // Requests still parked in lanes die with the connection; their
  // quota charge is returned. Requests already inside the service
  // complete later — delivery just finds the connection gone and
  // drops the bytes (the charge is returned on delivery as always).
  lanes_.drop_if(
      [id](const Queued& q) { return q.conn_id == id; },
      [this](const Queued& q) {
        tenants_.release(*q.tenant, 1, q.bytes);
        // A keyed request dying in a lane un-tracks its key; parked
        // waiters get a typed error instead of waiting forever.
        abort_dedup(q.tenant, q.idem_key, ErrorCode::Internal,
                    "original request aborted with its connection");
      });
  conns_.erase(it);
  count(&FrontDoorCounters::closed);
  if (metrics().enabled()) {
    metrics().set("net.connections_now",
                  static_cast<double>(conns_.size()));
  }
}

template <typename T>
void FrontDoor<T>::accept_from(Fd& listener) {
  if (!listener.valid()) return;
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd < 0) return;
    if (draining_.load(std::memory_order_relaxed)) {
      // Too late: an orderly Goodbye tells the client why.
      std::string out;
      encode_goodbye(out);
      (void)write_all(fd, out.data(), out.size());
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    Conn conn;
    conn.fd = Fd(fd);
    conn.id = next_conn_id_++;
    conn.last_rx = Clock::now();
    count(&FrontDoorCounters::connections);
    if (metrics().enabled()) {
      metrics().add("net.connections");
      metrics().set("net.connections_now",
                    static_cast<double>(conns_.size() + 1));
    }
    conns_.emplace(conn.id, std::move(conn));
  }
}

template <typename T>
void FrontDoor<T>::handle_hello(Conn& conn, const FrameView& frame) {
  const auto hello = parse_hello(frame.payload);
  if (!hello) {
    bad_frame(conn, "unparsable hello");
    return;
  }
  Tenant* t = tenants_.authenticate(hello->token);
  if (t == nullptr) {
    count(&FrontDoorCounters::auth_failures);
    if (metrics().enabled()) metrics().add("net.auth_failed");
    send_err(conn, frame.request_id, ErrorCode::AuthFailed,
             "unknown tenant token");
    conn.closing = true;
    return;
  }
  conn.tenant = t;
  conn.wire_version = negotiate_version(hello->advertised_version);
  if (hello->has_timestamp) {
    // Arrival minus the client's send stamp = clock skew plus one-way
    // network delay; the clamp threshold is orders of magnitude above
    // sane RTTs, so the delay term is noise.
    conn.skew_ms = unix_now_ms() - hello->client_unix_ms;
    conn.skew_known = true;
  }
  std::string out;
  encode_hello_ok(out, t->cfg.name, conn.wire_version, unix_now_ms());
  send_frame(conn, std::move(out));
}

template <typename T>
std::uint64_t FrontDoor<T>::tenant_id(const Tenant* t) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(t));
}

template <typename T>
double FrontDoor<T>::mono_ms() const { return now_s() * 1000.0; }

/// Replays a finished response to a parked dedup waiter (charged no
/// quota — it never went through admission).
template <typename T>
void FrontDoor<T>::answer_waiter(const Waiter& w,
                                 const service::SolveResponse<T>& resp) {
  auto it = conns_.find(w.conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.inflight > 0) --conn.inflight;
  std::string out;
  encode_response(w.request_id, resp, out, conn.wire_version);
  send_frame(conn, std::move(out));
}

/// Drops a keyed entry without caching and answers its waiters with a
/// typed error (used when the original dies before producing a
/// cacheable result: lane drop, expired deadline, shed, quota).
template <typename T>
void FrontDoor<T>::abort_dedup(Tenant* tenant, std::uint64_t idem_key,
                               ErrorCode code, std::string_view msg) {
  if (idem_key == 0) return;
  const auto waiters = dedup_.abandon(tenant_id(tenant), idem_key);
  for (const auto& w : waiters) {
    auto it = conns_.find(w.conn_id);
    if (it == conns_.end()) continue;
    if (it->second.inflight > 0) --it->second.inflight;
    send_err(it->second, w.request_id, code, msg);
  }
  sync_dedup_counters();
}

template <typename T>
void FrontDoor<T>::sync_dedup_counters() {
  const DedupStats& s = dedup_.stats();
  std::lock_guard lk(counters_mu_);
  counters_.dedup_hits = s.hits;
  counters_.dedup_joins = s.joins;
  counters_.dedup_evictions = s.evictions;
  counters_.duplicate_executions = s.duplicate_executions;
  counters_.key_reuse = s.mismatches;
}

template <typename T>
void FrontDoor<T>::handle_solve(Conn& conn, const FrameView& frame) {
  Tenant* tenant = conn.tenant != nullptr ? conn.tenant : anon_;
  if (tenant == nullptr) {
    reject(conn, frame.request_id, ErrorCode::AuthRequired,
           "hello first");
    return;
  }
  if (draining_.load(std::memory_order_relaxed)) {
    reject(conn, frame.request_id, ErrorCode::Draining,
           "server is draining");
    return;
  }
  const std::uint8_t width = solve_dtype(frame.payload);
  if (width != 0 && width != sizeof(T)) {
    reject(conn, frame.request_id, ErrorCode::Dtype,
           sizeof(T) == 4 ? "server dtype is f32" : "server dtype is f64");
    return;
  }
  auto solve = parse_solve<T>(frame.payload, frame.version);
  if (!solve) {
    bad_frame(conn, "unparsable solve payload");
    return;
  }
  if (solve->n > cfg_.max_systems) {
    reject(conn, frame.request_id, ErrorCode::TooLarge,
           "n exceeds server limit");
    return;
  }

  // Clock-skew guard: a connection whose Hello stamp put its clock
  // more than max_clock_skew_ms from ours cannot be trusted to mint
  // absolute deadlines — an hour-slow client would have every request
  // "expire" on arrival, an hour-fast one would never expire. Its
  // absolute deadline is discarded so the tenant's default relative
  // budget applies below (relative budgets don't care about skew).
  if (cfg_.max_clock_skew_ms > 0.0 && conn.skew_known &&
      solve->deadline_unix_ms > 0.0 &&
      std::abs(conn.skew_ms) > cfg_.max_clock_skew_ms) {
    solve->deadline_unix_ms = 0.0;
    count(&FrontDoorCounters::deadline_skew_clamped);
    if (metrics().enabled()) {
      metrics().add(telemetry::labeled(
          "net.deadline_skew_clamped", {{"tenant", tenant->cfg.name}}));
    }
  }

  // Fold every deadline form into one absolute unix-epoch instant:
  // v2 frames carry it directly, v1 budgets are anchored at arrival,
  // and a frame with no deadline inherits the tenant's default.
  double deadline_unix = solve->deadline_unix_ms;
  if (deadline_unix <= 0.0 && solve->deadline_ms > 0.0) {
    deadline_unix = unix_now_ms() + solve->deadline_ms;
  }
  if (deadline_unix <= 0.0 && tenant->cfg.default_deadline_ms > 0.0) {
    deadline_unix = unix_now_ms() + tenant->cfg.default_deadline_ms;
  }

  // Idempotent resends never reach admission: a completed original
  // replays from the cache, an in-flight one adopts this request as
  // a waiter. Both paths touch no quota and no device.
  const std::uint64_t tid = tenant_id(tenant);
  if (solve->idem_key != 0) {
    using State =
        typename DedupCache<service::SolveResponse<T>>::State;
    // The payload fingerprint rides the dedup entry (and the ops
    // snapshot): a resend must be byte-identical to its original, so
    // a reused key with a different payload is a client bug answered
    // with KeyReuse, never a silent wrong replay.
    const std::uint64_t payload_hash =
        fnv1a64(frame.payload, kFnv1a64LegacyBasis);
    const State state =
        dedup_.begin(tid, solve->idem_key, payload_hash, mono_ms());
    if (state == State::Mismatch) {
      sync_dedup_counters();
      reject(conn, frame.request_id, ErrorCode::KeyReuse,
             "idempotency key reused for a different payload");
      return;
    }
    if (state == State::Completed) {
      const auto* cached = dedup_.lookup(tid, solve->idem_key);
      sync_dedup_counters();
      if (metrics().enabled()) {
        metrics().add(telemetry::labeled(
            "net.dedup_hits", {{"tenant", tenant->cfg.name}}));
      }
      std::string out;
      encode_response(frame.request_id, *cached, out,
                      conn.wire_version);
      send_frame(conn, std::move(out));
      return;
    }
    if (state == State::InFlight) {
      dedup_.add_waiter(tid, solve->idem_key,
                        {conn.id, frame.request_id});
      sync_dedup_counters();
      if (metrics().enabled()) {
        metrics().add(telemetry::labeled(
            "net.dedup_joins", {{"tenant", tenant->cfg.name}}));
      }
      ++conn.inflight;  // a response will be replayed on completion
      return;
    }
    sync_dedup_counters();
  }

  // Expired on arrival: typed reject before any quota charge or
  // device dispatch. The fresh dedup entry (if any) is abandoned so
  // a later retry with more budget may legitimately execute.
  if (deadline_unix > 0.0 && unix_now_ms() >= deadline_unix) {
    abort_dedup(tenant, solve->idem_key, ErrorCode::DeadlineExpired,
                "deadline expired before admission");
    count(&FrontDoorCounters::deadline_expired_arrival);
    if (metrics().enabled()) {
      metrics().add(telemetry::labeled(
          "net.deadline_expired",
          {{"tenant", tenant->cfg.name}, {"where", "arrival"}}));
    }
    reject(conn, frame.request_id, ErrorCode::DeadlineExpired,
           "deadline expired before admission");
    return;
  }

  const std::size_t bytes = solve_bytes<T>(solve->n);
  const Admission verdict = tenants_.admit(*tenant, 1, bytes, now_s());
  if (verdict != Admission::Ok) {
    abort_dedup(tenant, solve->idem_key, ErrorCode::Rejected,
                "original request rejected at admission");
    const ErrorCode code =
        verdict == Admission::QuotaInflight ? ErrorCode::QuotaInflight
        : verdict == Admission::QuotaBytes  ? ErrorCode::QuotaBytes
                                            : ErrorCode::QuotaRate;
    reject(conn, frame.request_id, code, to_string(verdict));
    return;
  }
  count(&FrontDoorCounters::requests_admitted);
  inflight_bytes_ += bytes;
  if (metrics().enabled()) {
    metrics().add(telemetry::labeled("net.requests",
                                     {{"tenant", tenant->cfg.name}}));
    metrics().set("net.inflight_bytes_now",
                  static_cast<double>(inflight_bytes_));
  }
  Queued q;
  q.conn_id = conn.id;
  q.request_id = frame.request_id;
  q.tenant = tenant;
  q.bytes = bytes;
  q.deadline_unix_ms = deadline_unix;
  q.idem_key = solve->idem_key;
  q.enqueue_s = now_s();
  q.frame = std::move(*solve);
  const double cost = static_cast<double>(q.frame.n);
  ++conn.inflight;
  lanes_.enqueue(tenant, std::move(q), cost);
}

template <typename T>
void FrontDoor<T>::bad_frame(Conn& conn, std::string_view why) {
  count(&FrontDoorCounters::bad_frames);
  if (metrics().enabled()) metrics().add("net.bad_frames");
  send_err(conn, 0, ErrorCode::BadFrame, why);
  conn.closing = true;
}

template <typename T>
void FrontDoor<T>::handle_frame(Conn& conn, const FrameView& frame) {
  count(&FrontDoorCounters::frames_rx);
  if (metrics().enabled()) metrics().add("net.frames_rx");
  switch (frame.type) {
    case FrameType::Hello:
      handle_hello(conn, frame);
      return;
    case FrameType::Solve:
      handle_solve(conn, frame);
      return;
    case FrameType::Goodbye:
      conn.closing = true;
      return;
    case FrameType::HelloOk:
    case FrameType::SolveOk:
    case FrameType::SolveErr:
    case FrameType::AdminRequest:  // admin frames: admin socket only
    case FrameType::AdminReply:
      bad_frame(conn, "not a client frame on the data socket");
      return;
  }
  bad_frame(conn, "unknown frame type");
}

/// Reads everything available from a connection; returns false when
/// the connection should be closed (EOF, error, injected drop, or a
/// corrupt stream).
template <typename T>
bool FrontDoor<T>::read_conn(Conn& conn) {
  auto& inj = faults::FaultInjector::global();
  char tmp[16384];
  for (;;) {
    const long n = read_some(conn.fd.get(), tmp, sizeof(tmp));
    if (n == -2) break;    // drained
    if (n <= 0) return false;
    conn.last_rx = Clock::now();
    count(&FrontDoorCounters::bytes_rx,
          static_cast<std::uint64_t>(n));
    if (metrics().enabled()) {
      metrics().add("net.bytes_rx", static_cast<double>(n));
    }
    if (inj.fire(faults::Site::NetDrop)) {
      count(&FrontDoorCounters::injected_drops);
      if (metrics().enabled()) metrics().add("net.faults.drop");
      return false;
    }
    std::string chunk(tmp, static_cast<std::size_t>(n));
    if (inj.fire(faults::Site::NetCorrupt)) {
      count(&FrontDoorCounters::injected_corruptions);
      if (metrics().enabled()) metrics().add("net.faults.corrupt");
      faults::corrupt_bytes(chunk, inj.config().seed ^ conn.id, 3);
    }
    conn.rbuf.append(chunk);
    if (static_cast<std::size_t>(n) < sizeof(tmp)) break;
  }
  while (!conn.closing) {
    const DecodeResult r =
        decode_frame(conn.rbuf, cfg_.max_payload_bytes);
    if (r.status == DecodeStatus::NeedMore) break;
    if (r.status == DecodeStatus::Corrupt) {
      bad_frame(conn, r.error);
      break;
    }
    handle_frame(conn, r.frame);
    conn.rbuf.erase(0, r.consumed);
  }
  return true;
}

/// Flushes a connection's write buffer; false = close it.
template <typename T>
bool FrontDoor<T>::write_conn(Conn& conn) {
  while (!conn.wbuf.empty()) {
    const long n =
        write_some(conn.fd.get(), conn.wbuf.data(), conn.wbuf.size());
    if (n == -2) break;  // kernel buffer full; POLLOUT will retry
    if (n < 0) return false;
    conn.wbuf.erase(0, static_cast<std::size_t>(n));
  }
  maybe_resume(conn);
  if (conn.closing && conn.wbuf.empty()) return false;
  return true;
}

/// Answers a dequeued-but-not-submitted request with a typed error,
/// returning its quota charge and aborting its dedup tracking.
template <typename T>
void FrontDoor<T>::reject_queued(Queued& q, ErrorCode code,
                                 std::string_view msg) {
  tenants_.release(*q.tenant, 1, q.bytes);
  inflight_bytes_ -= q.bytes <= inflight_bytes_ ? q.bytes
                                                : inflight_bytes_;
  abort_dedup(q.tenant, q.idem_key, code, msg);
  auto it = conns_.find(q.conn_id);
  if (it == conns_.end()) return;
  if (it->second.inflight > 0) --it->second.inflight;
  count(&FrontDoorCounters::requests_rejected);
  if (metrics().enabled()) {
    metrics().add(telemetry::labeled(
        "net.rejects",
        {{"tenant", q.tenant->cfg.name}, {"reason", to_string(code)}}));
  }
  send_err(it->second, q.request_id, code, msg);
}

template <typename T>
double FrontDoor<T>::aimd_limit_of(Tenant* t) const {
  return t->aimd_limit > 0.0
             ? t->aimd_limit
             : static_cast<double>(cfg_.max_service_inflight);
}

/// Multiplicative decrease on a congestion signal (shed / timeout /
/// CoDel drop).
template <typename T>
void FrontDoor<T>::aimd_congested(Tenant* t) {
  if (!cfg_.aimd_enabled) return;
  t->aimd_limit =
      std::max(cfg_.aimd_min, aimd_limit_of(t) * cfg_.aimd_backoff);
  if (metrics().enabled()) {
    metrics().set(telemetry::labeled("net.aimd_limit",
                                     {{"tenant", t->cfg.name}}),
                  t->aimd_limit);
  }
}

/// Additive increase (~ +1 per window's worth of completions).
template <typename T>
void FrontDoor<T>::aimd_completed(Tenant* t) {
  if (!cfg_.aimd_enabled) return;
  const double limit = aimd_limit_of(t);
  t->aimd_limit = std::min(
      static_cast<double>(cfg_.max_service_inflight), limit + 1.0 / limit);
}

/// CoDel: returns true when this dequeue should shed instead of
/// serve. Head sojourn under target resets the episode; staying
/// above it for a full interval starts dropping, then drops pace at
/// interval / sqrt(count) while the queue stays bad.
template <typename T>
bool FrontDoor<T>::codel_should_drop(Tenant* t, double sojourn_ms,
                                     double now) {
  if (cfg_.codel_target_ms <= 0.0) return false;
  if (sojourn_ms < cfg_.codel_target_ms) {
    t->codel_first_above_s = 0.0;
    t->codel_dropping = false;
    return false;
  }
  const double interval_s = cfg_.codel_interval_ms / 1000.0;
  if (t->codel_first_above_s == 0.0) {
    t->codel_first_above_s = now;
    return false;
  }
  if (!t->codel_dropping) {
    if (now - t->codel_first_above_s < interval_s) return false;
    t->codel_dropping = true;
    t->codel_drop_count = 1;
    t->codel_drop_next_s = now + interval_s;
    return true;
  }
  if (now >= t->codel_drop_next_s) {
    ++t->codel_drop_count;
    t->codel_drop_next_s =
        now + interval_s /
                  std::sqrt(static_cast<double>(t->codel_drop_count));
    return true;
  }
  return false;
}

/// Moves lane heads into the service while the in-flight window has
/// room. Lanes whose tenant is at its AIMD window pass their turn;
/// dequeued heads whose deadline lapsed in the lane or whose queue
/// age trips CoDel are answered with a typed error right here —
/// before any device dispatch. The completion callback runs on a
/// worker thread (or inline for admission rejects): it parks the
/// response and wakes the poll loop — nothing else.
template <typename T>
void FrontDoor<T>::pump() {
  while (service_inflight_.load(std::memory_order_relaxed) <
         cfg_.max_service_inflight) {
    Queued q;
    const bool got =
        cfg_.aimd_enabled
            ? lanes_.dequeue_if(q,
                                [this](Tenant* t) {
                                  return t->inflight_service <
                                         aimd_limit_of(t);
                                })
            : lanes_.dequeue(q);
    if (!got) {
      if (cfg_.aimd_enabled && !lanes_.empty()) {
        count(&FrontDoorCounters::aimd_throttles);
        if (metrics().enabled()) metrics().add("net.aimd_throttles");
      }
      break;
    }
    const double now = now_s();
    if (q.deadline_unix_ms > 0.0 &&
        unix_now_ms() >= q.deadline_unix_ms) {
      count(&FrontDoorCounters::deadline_expired_queued);
      if (metrics().enabled()) {
        metrics().add(telemetry::labeled(
            "net.deadline_expired",
            {{"tenant", q.tenant->cfg.name}, {"where", "queued"}}));
      }
      reject_queued(q, ErrorCode::DeadlineExpired,
                    "deadline expired in queue");
      continue;
    }
    const double sojourn_ms = (now - q.enqueue_s) * 1000.0;
    if (codel_should_drop(q.tenant, sojourn_ms, now)) {
      count(&FrontDoorCounters::shed_codel);
      if (metrics().enabled()) {
        metrics().add(telemetry::labeled(
            "net.shed_codel", {{"tenant", q.tenant->cfg.name}}));
      }
      aimd_congested(q.tenant);
      reject_queued(q, ErrorCode::Shed, "shed: queue age over target");
      continue;
    }
    service_inflight_.fetch_add(1, std::memory_order_relaxed);
    q.tenant->inflight_service += 1.0;
    if (q.idem_key != 0) {
      // The exactly-once proof point: a keyed request enters the
      // device path at most once while its entry is tracked.
      const std::uint64_t prior =
          dedup_.mark_executed(tenant_id(q.tenant), q.idem_key);
      if (prior > 0) {
        sync_dedup_counters();
        if (metrics().enabled()) {
          metrics().add("net.duplicate_executions");
        }
      }
    }
    service::SolveRequest<T> req;
    req.a = std::move(q.frame.a);
    req.b = std::move(q.frame.b);
    req.c = std::move(q.frame.c);
    req.d = std::move(q.frame.d);
    // Remaining budget, re-derived from the absolute deadline at
    // submit time: lane wait has already been spent.
    if (q.deadline_unix_ms > 0.0) {
      req.deadline_ms = q.deadline_unix_ms - unix_now_ms();
      if (req.deadline_ms < 0.01) req.deadline_ms = 0.01;
    }
    if (q.tenant != nullptr) req.tenant = q.tenant->cfg.name;
    const std::uint64_t conn_id = q.conn_id;
    const std::uint64_t request_id = q.request_id;
    Tenant* tenant = q.tenant;
    const std::size_t bytes = q.bytes;
    const std::uint64_t idem_key = q.idem_key;
    svc_.submit(std::move(req),
                [this, conn_id, request_id, tenant, bytes,
                 idem_key](service::SolveResponse<T> resp) {
                  Done d;
                  d.conn_id = conn_id;
                  d.request_id = request_id;
                  d.tenant = tenant;
                  d.systems = 1;
                  d.bytes = bytes;
                  d.idem_key = idem_key;
                  d.resp = std::move(resp);
                  std::lock_guard lk(done_mu_);
                  done_.push_back(std::move(d));
                  wake_locked();
                });
  }
}

template <typename T>
void FrontDoor<T>::encode_response(std::uint64_t request_id,
                                   const service::SolveResponse<T>& resp,
                                   std::string& out,
                                   std::uint16_t wire_version) {
  using service::SolveStatus;
  switch (resp.status) {
    case SolveStatus::Ok:
      encode_solve_ok(out, request_id, resp.x, resp.trace_id,
                      resp.solve_ms, resp.wait_ms, resp.fallback_used,
                      wire_version);
      return;
    case SolveStatus::Rejected:
      // A service-side reject during our drain IS the drain from the
      // client's point of view.
      encode_solve_err(out, request_id,
                       draining_.load(std::memory_order_relaxed)
                           ? ErrorCode::Draining
                           : ErrorCode::Rejected,
                       resp.error.empty() ? "service rejected"
                                          : resp.error,
                       wire_version);
      return;
    case SolveStatus::Shed:
      encode_solve_err(out, request_id, ErrorCode::Shed,
                       "shed by backpressure", wire_version);
      return;
    case SolveStatus::TimedOut:
      encode_solve_err(out, request_id, ErrorCode::TimedOut,
                       "deadline lapsed", wire_version);
      return;
    case SolveStatus::Failed:
      encode_solve_err(out, request_id, ErrorCode::Failed, resp.error,
                       wire_version);
      return;
    case SolveStatus::Singular:
      encode_solve_err(out, request_id, ErrorCode::Singular,
                       resp.error, wire_version);
      return;
    case SolveStatus::NonFinite:
      encode_solve_err(out, request_id, ErrorCode::NonFinite,
                       resp.error, wire_version);
      return;
  }
  encode_solve_err(out, request_id, ErrorCode::Internal,
                   "unknown status", wire_version);
}

/// Delivers parked completions into write buffers, settles dedup
/// entries and feeds the AIMD windows.
template <typename T>
void FrontDoor<T>::drain_done() {
  using service::SolveStatus;
  std::vector<Done> batch;
  {
    std::lock_guard lk(done_mu_);
    batch.swap(done_);
  }
  for (auto& d : batch) {
    service_inflight_.fetch_sub(d.systems, std::memory_order_relaxed);
    if (d.tenant != nullptr) {
      tenants_.release(*d.tenant, d.systems, d.bytes);
      if (d.tenant->inflight_service >= 1.0) {
        d.tenant->inflight_service -= 1.0;
      }
      // Congestion signals shrink the tenant's window; anything that
      // actually ran to a verdict grows it back.
      if (d.resp.status == SolveStatus::Shed ||
          d.resp.status == SolveStatus::TimedOut ||
          d.resp.status == SolveStatus::Rejected) {
        aimd_congested(d.tenant);
      } else {
        aimd_completed(d.tenant);
      }
    }
    inflight_bytes_ -= d.bytes <= inflight_bytes_ ? d.bytes
                                                  : inflight_bytes_;
    // (saturating: a mismatch here would mean double delivery)
    count(&FrontDoorCounters::responses_sent);
    if (metrics().enabled()) {
      metrics().add("net.responses");
      metrics().set("net.inflight_bytes_now",
                    static_cast<double>(inflight_bytes_));
    }
    std::vector<Waiter> waiters;
    if (d.idem_key != 0) {
      waiters = dedup_.take_waiters(tenant_id(d.tenant), d.idem_key);
    }
    auto it = conns_.find(d.conn_id);
    if (it != conns_.end()) {  // original connection still here
      Conn& conn = it->second;
      if (conn.inflight > 0) --conn.inflight;
      std::string out;
      encode_response(d.request_id, d.resp, out, conn.wire_version);
      send_frame(conn, std::move(out));
    }
    for (const auto& w : waiters) answer_waiter(w, d.resp);
    if (d.idem_key != 0) {
      // Deterministic verdicts are cached so a late resend replays
      // them; retryable outcomes un-track the key — the client's
      // retry is a fresh attempt and may legitimately re-execute.
      const bool cacheable = d.resp.status == SolveStatus::Ok ||
                             d.resp.status == SolveStatus::Failed ||
                             d.resp.status == SolveStatus::Singular ||
                             d.resp.status == SolveStatus::NonFinite;
      const std::uint64_t tid = tenant_id(d.tenant);
      if (cacheable) {
        const std::size_t retained =
            d.resp.x.size() * sizeof(T) + 128;
        dedup_.complete(tid, d.idem_key, std::move(d.resp), retained,
                        mono_ms());
      } else {
        dedup_.abandon(tid, d.idem_key);
      }
      sync_dedup_counters();
      if (metrics().enabled()) {
        metrics().set("net.dedup_bytes_now",
                      static_cast<double>(dedup_.stats().bytes));
      }
    }
  }
}

template <typename T>
void FrontDoor<T>::sweep_idle(TimePoint now) {
  if (cfg_.idle_timeout_ms <= 0.0) return;
  const auto limit = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(cfg_.idle_timeout_ms));
  std::vector<std::uint64_t> victims;
  for (auto& [id, conn] : conns_) {
    if (conn.inflight == 0 && conn.wbuf.empty() &&
        now - conn.last_rx > limit) {
      victims.push_back(id);
    }
  }
  for (const auto id : victims) {
    count(&FrontDoorCounters::idle_closes);
    if (metrics().enabled()) metrics().add("net.idle_closed");
    close_conn(id);
  }
}

template <typename T>
void FrontDoor<T>::loop() {
  TimePoint drain_started{};
  for (;;) {
    const bool draining = draining_.load(std::memory_order_relaxed);
    if (draining && drain_started == TimePoint{}) {
      drain_started = Clock::now();
      tcp_listener_.reset();
      unix_listener_.reset();
    }

    run_tasks();
    drain_done();
    pump();

    if (draining) {
      const bool callbacks_pending =
          service_inflight_.load(std::memory_order_relaxed) > 0 ||
          !lanes_.empty();
      bool flushing = false;
      for (auto& [id, conn] : conns_) {
        if (!conn.wbuf.empty()) flushing = true;
      }
      const bool flush_expired =
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    drain_started)
              .count() > cfg_.drain_flush_timeout_ms;
      if (!callbacks_pending && (!flushing || flush_expired)) {
        // Every response is out (or its consumer has forfeited its
        // flush window): say Goodbye and stop.
        for (auto& [id, conn] : conns_) {
          std::string out;
          encode_goodbye(out);
          conn.wbuf.append(out);
          (void)write_conn(conn);
        }
        const std::size_t remaining = conns_.size();
        conns_.clear();
        count(&FrontDoorCounters::closed, remaining);
        return;
      }
    }

    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = infra)
    const auto add_fd = [&](int fd, short events, std::uint64_t id) {
      fds.push_back(pollfd{fd, events, 0});
      fd_conn.push_back(id);
    };
    add_fd(wake_rd_.get(), POLLIN, 0);
    if (tcp_listener_.valid()) add_fd(tcp_listener_.get(), POLLIN, 0);
    if (unix_listener_.valid())
      add_fd(unix_listener_.get(), POLLIN, 0);
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn.paused && !conn.closing) events |= POLLIN;
      if (!conn.wbuf.empty()) events |= POLLOUT;
      if (events == 0) events = POLLERR;
      add_fd(conn.fd.get(), events, id);
    }

    const int timeout =
        static_cast<int>(cfg_.poll_interval_ms < 1.0
                             ? 1
                             : cfg_.poll_interval_ms);
    (void)::poll(fds.data(), fds.size(), timeout);

    // Drain the wake pipe.
    if ((fds[0].revents & POLLIN) != 0) {
      char sink[256];
      while (::read(wake_rd_.get(), sink, sizeof(sink)) > 0) {
      }
    }
    accept_from(tcp_listener_);
    accept_from(unix_listener_);

    std::vector<std::uint64_t> dead;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::uint64_t id = fd_conn[i];
      if (id == 0) continue;
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      bool alive = true;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        // Half-close with pending output still flushes below; a hard
        // error drops the connection.
        if ((fds[i].revents & (POLLERR | POLLNVAL)) != 0) alive = false;
      }
      if (alive && (fds[i].revents & POLLIN) != 0) {
        alive = read_conn(conn);
      }
      if (alive && ((fds[i].revents & POLLOUT) != 0 || conn.closing)) {
        alive = write_conn(conn);
      }
      if (!alive) dead.push_back(id);
    }
    for (const auto id : dead) close_conn(id);
    sweep_idle(Clock::now());
  }
}

template class FrontDoor<double>;

}  // namespace tda::net
