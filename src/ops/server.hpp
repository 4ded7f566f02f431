#pragma once
// ops::Server — the zero-downtime operations shell around a
// SolveService + FrontDoor pair (docs/OPERATIONS.md).
//
// It owns the three legs of the tentpole:
//
//   * crash-safe persistence: a background thread writes the ops
//     snapshot (tenants, quotas, AIMD windows, completed dedup entries
//     + payload hashes, dedup counters) every snapshot_interval_ms, on
//     SIGHUP, on admin `snapshot`/`drain`, and at shutdown. State is
//     exported on the front door's poll thread (via post()) but
//     serialized and written off it, so a large snapshot never stalls
//     the data plane.
//
//   * live reconfiguration: a unix-domain admin socket (admin.hpp)
//     accepts health/ready/stats/reload/drain/snapshot/handoff. Every
//     mutation of poll-thread-owned state funnels through
//     FrontDoor::post, so reconfiguration is race-free without adding
//     a single lock to the hot path.
//
//   * hot restart: `handoff` forks and execs the configured next
//     generation, passes the listening sockets over a socketpair via
//     SCM_RIGHTS (fdpass.hpp), waits for the child's ready ack, then
//     drains. Both generations accept from the same kernel queue
//     during the overlap, so no connect attempt is ever refused; the
//     snapshot the child loads makes byte-identical resends of
//     pre-restart work land as replays, not re-executions.
//
// Signals: SIGTERM requests an orderly drain (the owner's main loop
// polls should_exit()), SIGHUP requests an immediate snapshot +
// telemetry flush. Handlers only store to atomics.
//
// Compilation: the member functions are defined in server.cpp and
// compiled once into tda_ops for T = double, the one instantiation
// (declared extern below).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/front_door.hpp"
#include "ops/admin.hpp"
#include "ops/state.hpp"
#include "service/solve_service.hpp"

namespace tda::ops {

struct OpsConfig {
  /// Unix path of the admin control socket. Empty = no admin server.
  std::string admin_path;
  /// Snapshot file. Empty = no persistence (drain still works).
  std::string snapshot_path;
  /// Periodic snapshot cadence; <= 0 writes only on signals, admin
  /// commands and shutdown.
  double snapshot_interval_ms = 0.0;
  /// This process's generation number (1 on cold start; a hot-restarted
  /// child runs at parent + 1).
  std::uint64_t generation = 1;
  /// Command line exec'd as the next generation on `handoff`
  /// (argv[0] = binary). The server appends --handoff-fd=<N> and
  /// --generation=<g+1>. Empty disables handoff.
  std::vector<std::string> handoff_argv;
  /// How long `handoff` waits for the child's ready ack before
  /// declaring the handoff failed.
  double handoff_ack_timeout_ms = 20'000.0;
};

/// Child-side half of the handoff: receive the listener fds sent by the
/// previous generation over `handoff_fd`. The tag byte says which
/// listeners were passed: 't' tcp, 'u' unix, 'b' both (tcp first).
/// Returns false (fds closed) on any receive error.
bool receive_handoff(int handoff_fd, int* tcp_fd, int* unix_fd);

/// Child-side ready ack: call once the new generation is accepting.
/// The parent blocks its drain on this byte.
bool ack_handoff(int handoff_fd);

template <typename T>
class Server {
 public:
  Server(service::SolveService<T>& svc, net::FrontDoor<T>& door,
         OpsConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads the snapshot (if configured and present) into the front
  /// door: tenants, AIMD windows, completed dedup entries. Call before
  /// door.start(). A missing/damaged snapshot is a clean cold start —
  /// false is returned with `why` set, but the server is fine to run.
  bool load(std::string* why = nullptr);

  /// Persisted-generation dedup counters (zero on cold start). Admin
  /// `stats` adds these to the live cache's, so exactly-once is
  /// checkable across the restart boundary from the new process alone.
  [[nodiscard]] const DedupStatsState& baseline() const {
    return baseline_;
  }
  [[nodiscard]] bool loaded_from_snapshot() const { return loaded_; }

  /// Starts the admin socket and the snapshot/housekeeping thread and
  /// installs the SIGTERM/SIGHUP handlers. Call after door.start().
  bool start(std::string* err);

  /// True once SIGTERM or an admin `drain` asked for an orderly exit.
  /// The owning main loop polls this, then runs its shutdown sequence.
  [[nodiscard]] bool should_exit() const;

  /// True after a successful handoff: the next generation owns the
  /// listeners and the snapshot file now.
  [[nodiscard]] bool handed_off() const {
    return handed_off_.load(std::memory_order_relaxed);
  }

  /// Writes a snapshot now (state exported on the poll thread, file
  /// written on the calling thread). No-op (true) when persistence is
  /// off or the snapshot file was handed to the next generation.
  bool save_now(std::string* why = nullptr);

  /// Milliseconds since the last successful snapshot; < 0 = never.
  [[nodiscard]] double snapshot_age_ms() const;

  [[nodiscard]] double uptime_s() const;

  /// Final snapshot, admin-socket teardown, telemetry flush. Safe to
  /// call before or after door.shutdown() (post() degrades to inline
  /// execution once the poll thread is gone). Idempotent.
  void shutdown();

 private:
  [[nodiscard]] std::string gen_str() const;
  std::pair<bool, std::string> handle(AdminCmd cmd,
                                      const std::string& payload);
  std::string stats_text();
  std::pair<bool, std::string> reload(const std::string& payload);
  std::pair<bool, std::string> apply_reload(
      const std::vector<std::pair<std::string, std::string>>& kvs);
  std::pair<bool, std::string> handoff();
  bool await_ack(int fd);
  void housekeep();

  service::SolveService<T>& svc_;
  net::FrontDoor<T>& door_;
  OpsConfig cfg_;

  AdminServer admin_;
  std::thread housekeeper_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> exit_requested_{false};
  std::atomic<bool> handed_off_{false};
  std::atomic<double> last_snapshot_ms_{0.0};
  std::atomic<double> snapshot_interval_override_ms_{0.0};
  DedupStatsState baseline_;
  bool loaded_ = false;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

extern template class Server<double>;

}  // namespace tda::ops
