#pragma once
// Thin POSIX socket helpers for the front door and client: an RAII fd,
// endpoint-spec parsing ("host:port" or "unix:/path"), and
// listen/connect that hide the sockaddr plumbing. Linux-only, like the
// rest of the repo's toolchain assumptions; everything returns errors
// by value (no exceptions) because a refused connection is an expected
// runtime event, not a programming error.

#include <cstdint>
#include <optional>
#include <string>

#include "net/protocol.hpp"

namespace tda::net {

/// Move-only owner of a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Closes the descriptor (idempotent).
  void reset();
  /// Gives up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// A parsed listen/connect target.
struct Endpoint {
  bool is_unix = false;
  std::string host;         ///< numeric IPv4 or "localhost" (TCP)
  std::uint16_t port = 0;   ///< 0 = ephemeral when listening (TCP)
  std::string path;         ///< filesystem path (unix)

  [[nodiscard]] std::string describe() const;
};

/// Parses "host:port" or "unix:/path"; nullopt when malformed.
std::optional<Endpoint> parse_endpoint(const std::string& spec);

/// Binds + listens. Unix paths are unlinked first so a stale socket
/// file from a crashed run cannot block the bind. On failure the fd is
/// invalid and *err (when non-null) explains why.
Fd listen_endpoint(const Endpoint& ep, int backlog, std::string* err);

/// Blocking connect. On failure the fd is invalid and *err explains.
Fd connect_endpoint(const Endpoint& ep, std::string* err);

/// The port a listening TCP socket actually bound (resolves port 0).
std::uint16_t bound_port(int fd);

/// O_NONBLOCK on/off; returns false on fcntl failure.
bool set_nonblocking(int fd, bool on = true);

/// read()/write() wrappers that retry EINTR. read_some returns bytes
/// read, 0 on orderly EOF, -1 on error, -2 on EAGAIN (nonblocking).
long read_some(int fd, char* buf, std::size_t cap);
long write_some(int fd, const char* buf, std::size_t len);

/// Writes all of `buf` on a blocking fd; false on any error/EOF.
bool write_all(int fd, const char* buf, std::size_t len);

/// Blocking read of one frame from `fd`, appending to `buf` (which may
/// already hold a prefix). Ok: `frame` views `buf`; erase `consumed`
/// bytes once done with it. Corrupt: `error` says why — bad framing,
/// "connection closed" or "read failed". NeedMore: `timeout_ms` (< 0 =
/// wait forever) ran out first; the bytes read so far stay in `buf`.
DecodeResult read_frame(int fd, std::string& buf, std::size_t max_payload,
                        int timeout_ms = -1);

}  // namespace tda::net
