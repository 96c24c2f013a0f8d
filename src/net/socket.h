// Thin POSIX socket layer under the framing protocol: an RAII fd, TCP and
// Unix-domain listeners/connectors, and the blocking send_all/recv_exact
// helpers the synchronous client uses. Everything here is errno-faithful
// (failures return an empty Fd or false; call sites decide whether that is
// fatal) and SIGPIPE-proof: sends use MSG_NOSIGNAL, so a peer that went
// away surfaces as EPIPE instead of killing the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace sdaf::net {

// Owns a file descriptor; -1 = empty. Move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

// Listeners (SO_REUSEADDR for TCP; the Unix path is unlinked first so a
// stale socket file from a crashed daemon does not block the bind).
// port 0 asks the kernel for an ephemeral port; bound_port() reports it.
[[nodiscard]] Fd listen_tcp(const std::string& host, std::uint16_t port,
                            int backlog = 128);
[[nodiscard]] Fd listen_unix(const std::string& path, int backlog = 128);
[[nodiscard]] std::uint16_t bound_port(const Fd& listener);

// Blocking connectors, EINTR-safe (a signal mid-connect retries on a fresh
// socket -- the portable recovery for interrupted blocking connects). On
// failure `err` (if non-null) receives the errno, captured before the
// in-flight fd's close can clobber it, so callers can tell a retryable
// refusal (ECONNREFUSED: daemon not up yet) from a hard error.
[[nodiscard]] Fd connect_tcp(const std::string& host, std::uint16_t port,
                             int* err = nullptr);
[[nodiscard]] Fd connect_unix(const std::string& path, int* err = nullptr);

// Accepts one pending connection; empty Fd when none / on error, with the
// errno in `err` (EAGAIN when none is pending).
[[nodiscard]] Fd accept_conn(const Fd& listener, int* err = nullptr);

[[nodiscard]] bool set_nonblocking(const Fd& fd, bool nonblocking);
void set_nodelay(const Fd& fd);  // TCP_NODELAY; no-op on Unix sockets

// Blocking loops for the synchronous client: retry through EINTR until all
// `n` bytes moved. false = peer closed or hard error.
[[nodiscard]] bool send_all(const Fd& fd, const std::uint8_t* data,
                            std::size_t n);
[[nodiscard]] bool recv_exact(const Fd& fd, std::uint8_t* data, std::size_t n);

}  // namespace sdaf::net
