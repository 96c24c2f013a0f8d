#include "src/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sdaf::net {

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return {};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return {};
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return {};
  if (::listen(fd.get(), backlog) != 0) return {};
  return fd;
}

Fd listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return {};
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a previous daemon
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return {};
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return {};
  if (::listen(fd.get(), backlog) != 0) return {};
  return fd;
}

std::uint16_t bound_port(const Fd& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

namespace {

// A signal during a blocking connect leaves the attempt in flight; the
// portable recovery is to abandon the socket and retry on a fresh one.
// `err` (optional) reports the final errno, captured before the Fd
// destructor's close() can clobber it.
Fd connect_addr(int family, const sockaddr* addr, socklen_t len, int* err) {
  for (;;) {
    Fd fd(::socket(family, SOCK_STREAM, 0));
    if (!fd.valid()) {
      if (err != nullptr) *err = errno;
      return {};
    }
    if (::connect(fd.get(), addr, len) == 0) return fd;
    if (errno == EINTR) continue;
    if (err != nullptr) *err = errno;
    return {};
  }
}

}  // namespace

Fd connect_tcp(const std::string& host, std::uint16_t port, int* err) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = EINVAL;
    return {};
  }
  Fd fd = connect_addr(AF_INET, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr), err);
  if (fd.valid()) set_nodelay(fd);
  return fd;
}

Fd connect_unix(const std::string& path, int* err) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) *err = ENAMETOOLONG;
    return {};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return connect_addr(AF_UNIX, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr), err);
}

Fd accept_conn(const Fd& listener, int* err) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    if (err != nullptr) *err = errno;
    return {};
  }
}

bool set_nonblocking(const Fd& fd, bool nonblocking) {
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0) return false;
  const int next = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd.get(), F_SETFL, next) == 0;
}

void set_nodelay(const Fd& fd) {
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool send_all(const Fd& fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc =
        ::send(fd.get(), data + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool recv_exact(const Fd& fd, std::uint8_t* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd.get(), data + got, n - got, 0);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    return false;  // rc == 0: orderly peer close mid-frame
  }
  return true;
}

}  // namespace sdaf::net
