#pragma once
// The operations control plane: a unix-domain admin socket serving
// health, ready, stats, reload, drain, snapshot and handoff commands.
// Commands travel as AdminRequest/AdminReply frames of the data-plane
// codec (net/protocol.hpp) — same header, checksum and decoder — so a
// data-plane frame sent to the admin socket gets an Err reply and an
// admin frame sent to the data socket gets BadFrame. Payloads are
// plain text: key=value lines in, key=value lines (or an error
// message) out — greppable from a shell via tridiag_cli, parseable by
// the restart bench. docs/OPERATIONS.md documents every command.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "net/socket.hpp"

namespace tda::ops {

inline constexpr std::size_t kAdminMaxPayload = 1u << 20;
/// Deadline for one connection's request (see AdminServer).
inline constexpr int kAdminReadTimeoutMs = 1000;

enum class AdminCmd : std::uint16_t {
  // requests
  Health = 1,    ///< liveness; replies "ok"
  Ready = 2,     ///< accepting traffic? "ready=1" / "ready=0" (draining)
  Stats = 3,     ///< key=value dump: counters, tenants, generation, ...
  Reload = 4,    ///< apply key=value config changes without a restart
  Drain = 5,     ///< stop accepting, finish in-flight, snapshot, exit
  Handoff = 6,   ///< fork/exec the next generation, pass the listeners
  Snapshot = 7,  ///< write a state snapshot now
  // replies
  Ok = 100,
  Err = 101,
};

const char* to_string(AdminCmd c);

/// One-shot client: connect to the admin socket at `path`, send `cmd`,
/// wait for the reply. Returns true iff the server answered Ok;
/// `reply` gets the reply payload either way (Err text on failure).
bool admin_request(const std::string& path, AdminCmd cmd,
                   const std::string& payload, std::string* reply,
                   std::string* err);

/// Serves the admin socket on its own thread, one command per
/// connection, handled sequentially; a connection that has not sent a
/// whole request within kAdminReadTimeoutMs (or by stop()) is answered
/// Err and closed, so a silent client cannot wedge the socket or its
/// shutdown. The handler returns {ok, payload}; it runs on the admin
/// thread, so anything touching poll-thread state must go through
/// FrontDoor::post.
class AdminServer {
 public:
  using Handler =
      std::function<std::pair<bool, std::string>(AdminCmd,
                                                 const std::string&)>;

  AdminServer() = default;
  ~AdminServer() { stop(); }
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  bool start(const std::string& path, Handler handler, std::string* err);
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }

 private:
  void loop();

  net::Fd listener_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  Handler handler_;
  std::string path_;
};

}  // namespace tda::ops
