#include "ops/fdpass.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace tda::ops {

bool send_fds(int sock, const std::vector<int>& fds, char tag) {
  char byte = tag;
  struct iovec iov;
  iov.iov_base = &byte;
  iov.iov_len = 1;

  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;

  std::vector<char> cbuf;
  if (!fds.empty()) {
    cbuf.resize(CMSG_SPACE(fds.size() * sizeof(int)));
    std::memset(cbuf.data(), 0, cbuf.size());
    msg.msg_control = cbuf.data();
    msg.msg_controllen = cbuf.size();
    struct cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(fds.size() * sizeof(int));
    std::memcpy(CMSG_DATA(cm), fds.data(), fds.size() * sizeof(int));
  }

  while (true) {
    // A receiver that died early is a failed send, not a SIGPIPE.
    const ssize_t n = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    if (n >= 0) return n == 1;
    if (errno != EINTR) return false;
  }
}

bool recv_fds(int sock, std::size_t max_fds, std::vector<int>* fds,
              char* tag) {
  fds->clear();
  char byte = 0;
  struct iovec iov;
  iov.iov_base = &byte;
  iov.iov_len = 1;

  std::vector<char> cbuf(CMSG_SPACE(max_fds * sizeof(int)) + 1);
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf.data();
  msg.msg_controllen = cbuf.size();

  ssize_t n;
  while (true) {
    n = ::recvmsg(sock, &msg, 0);
    if (n >= 0) break;
    if (errno != EINTR) return false;
  }
  if (n != 1) return false;
  *tag = byte;

  for (struct cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level != SOL_SOCKET || cm->cmsg_type != SCM_RIGHTS)
      continue;
    const std::size_t bytes = cm->cmsg_len - CMSG_LEN(0);
    const std::size_t count = bytes / sizeof(int);
    std::vector<int> got(count);
    std::memcpy(got.data(), CMSG_DATA(cm), count * sizeof(int));
    for (const int fd : got) fds->push_back(fd);
  }
  if ((msg.msg_flags & MSG_CTRUNC) != 0) {
    for (const int fd : *fds) ::close(fd);
    fds->clear();
    return false;
  }
  return true;
}

}  // namespace tda::ops
