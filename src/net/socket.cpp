#include "net/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace tda::net {

namespace {

void set_err(std::string* err, const char* what) {
  if (err != nullptr) {
    *err = std::string(what) + ": " + std::strerror(errno);
  }
}

bool fill_inet(const Endpoint& ep, sockaddr_in& sa, std::string* err) {
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(ep.port);
  const std::string host =
      (ep.host.empty() || ep.host == "localhost") ? "127.0.0.1" : ep.host;
  if (host == "*" || host == "0.0.0.0") {
    sa.sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    if (err != nullptr) *err = "unresolvable host '" + host + "'";
    return false;
  }
  return true;
}

bool fill_unix(const Endpoint& ep, sockaddr_un& sa, std::string* err) {
  std::memset(&sa, 0, sizeof(sa));
  sa.sun_family = AF_UNIX;
  if (ep.path.size() >= sizeof(sa.sun_path)) {
    if (err != nullptr) *err = "unix path too long: " + ep.path;
    return false;
  }
  std::memcpy(sa.sun_path, ep.path.c_str(), ep.path.size() + 1);
  return true;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string Endpoint::describe() const {
  if (is_unix) return "unix:" + path;
  return (host.empty() ? "127.0.0.1" : host) + ":" + std::to_string(port);
}

std::optional<Endpoint> parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.is_unix = true;
    ep.path = spec.substr(5);
    if (ep.path.empty()) return std::nullopt;
    return ep;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    return std::nullopt;
  }
  ep.host = spec.substr(0, colon);
  const std::string port_s = spec.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
    return std::nullopt;
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

Fd listen_endpoint(const Endpoint& ep, int backlog, std::string* err) {
  Fd fd(::socket(ep.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_err(err, "socket");
    return {};
  }
  if (ep.is_unix) {
    sockaddr_un sa;
    if (!fill_unix(ep, sa, err)) return {};
    ::unlink(ep.path.c_str());
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      set_err(err, "bind");
      return {};
    }
  } else {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa;
    if (!fill_inet(ep, sa, err)) return {};
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) !=
        0) {
      set_err(err, "bind");
      return {};
    }
  }
  if (::listen(fd.get(), backlog) != 0) {
    set_err(err, "listen");
    return {};
  }
  return fd;
}

Fd connect_endpoint(const Endpoint& ep, std::string* err) {
  Fd fd(::socket(ep.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_err(err, "socket");
    return {};
  }
  int rc;
  if (ep.is_unix) {
    sockaddr_un sa;
    if (!fill_unix(ep, sa, err)) return {};
    do {
      rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa),
                     sizeof(sa));
    } while (rc != 0 && errno == EINTR);
  } else {
    sockaddr_in sa;
    if (!fill_inet(ep, sa, err)) return {};
    do {
      rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa),
                     sizeof(sa));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  if (rc != 0) {
    set_err(err, "connect");
    return {};
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in sa;
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return 0;
  }
  return ntohs(sa.sin_port);
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, want) == 0;
}

long read_some(int fd, char* buf, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, cap);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
    return -1;
  }
}

long write_some(int fd, const char* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
    return -1;
  }
}

bool write_all(int fd, const char* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const long n = write_some(fd, buf + done, len - done);
    if (n == -2) {
      // Blocking fd expected here; EAGAIN means someone made it
      // nonblocking — spin via poll-free retry is wrong, so fail.
      return false;
    }
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

DecodeResult read_frame(int fd, std::string& buf, std::size_t max_payload,
                        int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  char tmp[16384];
  for (;;) {
    DecodeResult r = decode_frame(buf, max_payload);
    if (r.status != DecodeStatus::NeedMore) return r;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            deadline - Clock::now()).count();
      struct pollfd pfd = {fd, POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) return r;
    }
    const long n = read_some(fd, tmp, sizeof(tmp));
    if (n == -2) continue;  // spurious wakeup on a nonblocking fd
    if (n <= 0) {
      r.status = DecodeStatus::Corrupt;
      r.error = n == 0 ? "connection closed" : "read failed";
      return r;
    }
    buf.append(tmp, static_cast<std::size_t>(n));
  }
}

}  // namespace tda::net
