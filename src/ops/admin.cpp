#include "ops/admin.hpp"

#include <chrono>
#include <optional>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace tda::ops {

namespace {

/// Poll slice of the admin thread: how often it rechecks running_
/// while waiting for a connection or for a slow request.
constexpr int kPollSliceMs = 50;

bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

bool send_command(int fd, net::FrameType type, AdminCmd cmd,
                  const std::string& text) {
  std::string out;
  net::encode_command(out, type, static_cast<std::uint16_t>(cmd), text);
  return net::write_all(fd, out.data(), out.size());
}

/// The command/status of a decoded frame of the expected type.
std::optional<net::CommandFrame> command_of(const net::FrameView& frame,
                                            net::FrameType want) {
  if (frame.type != want) return std::nullopt;
  return net::parse_command(frame.payload);
}

}  // namespace

const char* to_string(AdminCmd c) {
  switch (c) {
    case AdminCmd::Health: return "health";
    case AdminCmd::Ready: return "ready";
    case AdminCmd::Stats: return "stats";
    case AdminCmd::Reload: return "reload";
    case AdminCmd::Drain: return "drain";
    case AdminCmd::Handoff: return "handoff";
    case AdminCmd::Snapshot: return "snapshot";
    case AdminCmd::Ok: return "ok";
    case AdminCmd::Err: return "err";
  }
  return "unknown";
}

bool admin_request(const std::string& path, AdminCmd cmd,
                   const std::string& payload, std::string* reply,
                   std::string* err) {
  net::Fd fd = net::connect_endpoint({true, {}, 0, path}, err);
  if (!fd.valid()) return false;
  if (!send_command(fd.get(), net::FrameType::AdminRequest, cmd, payload))
    return fail(err, "admin: send failed");
  std::string buf;
  const net::DecodeResult r =
      net::read_frame(fd.get(), buf, kAdminMaxPayload);
  if (r.status != net::DecodeStatus::Ok)
    return fail(err, std::string("admin: ") + r.error);
  const auto resp = command_of(r.frame, net::FrameType::AdminReply);
  if (!resp) return fail(err, "admin: unexpected reply frame");
  if (reply != nullptr) *reply = resp->text;
  return resp->code == static_cast<std::uint16_t>(AdminCmd::Ok);
}

bool AdminServer::start(const std::string& path, Handler handler,
                        std::string* err) {
  if (running_.load()) return fail(err, "admin: already running");
  listener_ = net::listen_endpoint({true, {}, 0, path}, 16, err);
  if (!listener_.valid()) return false;
  path_ = path;
  handler_ = std::move(handler);
  running_.store(true);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void AdminServer::stop() {
  const bool was_running = running_.exchange(false);
  if (thread_.joinable()) thread_.join();
  if (!was_running) return;
  listener_.reset();
  if (!path_.empty()) ::unlink(path_.c_str());
}

void AdminServer::loop() {
  using Clock = std::chrono::steady_clock;
  while (running_.load(std::memory_order_relaxed)) {
    struct pollfd pfd = {listener_.get(), POLLIN, 0};
    if (::poll(&pfd, 1, kPollSliceMs) <= 0) continue;
    net::Fd conn(::accept(listener_.get(), nullptr, nullptr));
    if (!conn.valid()) continue;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kAdminReadTimeoutMs);
    std::string buf;
    net::DecodeResult r;
    do {
      r = net::read_frame(conn.get(), buf, kAdminMaxPayload, kPollSliceMs);
    } while (r.status == net::DecodeStatus::NeedMore &&
             running_.load(std::memory_order_relaxed) &&
             Clock::now() < deadline);
    std::pair<bool, std::string> result{false, "no handler"};
    if (r.status == net::DecodeStatus::NeedMore) {
      result.second = "admin: timed out waiting for a request";
    } else if (r.status == net::DecodeStatus::Corrupt) {
      result.second = std::string("admin: ") + r.error;
    } else if (const auto req =
                   command_of(r.frame, net::FrameType::AdminRequest);
               !req) {
      result.second = std::string("admin: not an admin request: ") +
                      net::to_string(r.frame.type);
    } else if (handler_) {
      result = handler_(static_cast<AdminCmd>(req->code), req->text);
    }
    (void)send_command(conn.get(), net::FrameType::AdminReply,
                       result.first ? AdminCmd::Ok : AdminCmd::Err,
                       result.second);
  }
}

}  // namespace tda::ops
