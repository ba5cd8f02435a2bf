#include "fleet/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "support/check.hpp"

namespace worms::fleet::net {

namespace {

[[noreturn]] void bad_endpoint(std::string_view text, const char* why) {
  throw support::PreconditionError("bad endpoint '" + std::string(text) + "': " + why);
}

[[nodiscard]] std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

[[nodiscard]] bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Resolves the restricted host grammar (numeric IPv4 or "localhost") into a
/// network-order address.  Throws on anything else — no DNS by design.
[[nodiscard]] in_addr_t resolve_host(std::string_view host, std::string_view full) {
  const std::string text = host == "localhost" ? "127.0.0.1" : std::string(host);
  in_addr addr{};
  if (::inet_pton(AF_INET, text.c_str(), &addr) != 1) {
    bad_endpoint(full, "HOST must be a numeric IPv4 address or 'localhost'");
  }
  return addr.s_addr;
}

[[nodiscard]] sockaddr_in make_sockaddr(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  addr.sin_addr.s_addr = resolve_host(endpoint.host, endpoint.to_string());
  return addr;
}

/// poll() one fd for `events`, honouring the deadline.  Returns true when the
/// fd is ready, false on timeout; retries EINTR against the remaining budget.
[[nodiscard]] bool poll_fd(int fd, short events, std::chrono::milliseconds timeout) noexcept {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int budget = remaining.count() > 0 ? static_cast<int>(remaining.count()) : 0;
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, budget);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

}  // namespace

std::string Endpoint::to_string() const {
  return host + ":" + std::to_string(port);
}

Endpoint parse_endpoint(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos) bad_endpoint(text, "expected HOST:PORT");
  const std::string_view host = text.substr(0, colon);
  const std::string_view port_text = text.substr(colon + 1);
  if (host.empty()) bad_endpoint(text, "HOST must not be empty");
  if (port_text.empty()) bad_endpoint(text, "PORT must not be empty");

  std::uint32_t port = 0;
  const auto [ptr, ec] =
      std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
  if (ec != std::errc() || ptr != port_text.data() + port_text.size()) {
    bad_endpoint(text, "PORT must be a non-negative integer");
  }
  if (port > 65535) bad_endpoint(text, "PORT must be <= 65535");

  Endpoint endpoint;
  endpoint.host = std::string(host);
  endpoint.port = static_cast<std::uint16_t>(port);
  (void)resolve_host(endpoint.host, text);  // validate eagerly, at flag-parse time
  return endpoint;
}

std::vector<Endpoint> parse_endpoint_list(std::string_view text) {
  std::vector<Endpoint> endpoints;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view item =
        text.substr(pos, comma == std::string_view::npos ? std::string_view::npos : comma - pos);
    pos = comma == std::string_view::npos ? text.size() + 1 : comma + 1;
    if (item.empty()) bad_endpoint(text, "empty entry in endpoint list");
    endpoints.push_back(parse_endpoint(item));
  }
  if (endpoints.empty()) bad_endpoint(text, "expected at least one HOST:PORT");
  return endpoints;
}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::optional<TcpStream> TcpStream::connect(const Endpoint& endpoint,
                                            std::chrono::milliseconds timeout,
                                            std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, errno_string("socket"));
    return std::nullopt;
  }
  TcpStream stream(fd);
  if (!set_nonblocking(fd)) {
    set_error(error, errno_string("fcntl(O_NONBLOCK)"));
    return std::nullopt;
  }
  const sockaddr_in addr = make_sockaddr(endpoint);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      set_error(error, errno_string("connect"));
      return std::nullopt;
    }
    if (!poll_fd(fd, POLLOUT, timeout)) {
      set_error(error, "connect timed out after " + std::to_string(timeout.count()) + " ms");
      return std::nullopt;
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 || so_error != 0) {
      errno = so_error != 0 ? so_error : errno;
      set_error(error, errno_string("connect"));
      return std::nullopt;
    }
  }
  // Frames are small and latency-sensitive (alerts race a worm); disable
  // Nagle so a flushed alert leaves the host immediately.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return stream;
}

TcpStream::ReadResult TcpStream::read_some(char* out, std::size_t capacity,
                                           std::chrono::milliseconds timeout) {
  if (fd_ < 0) return {IoStatus::Error, 0};
  for (;;) {
    const ssize_t n = ::recv(fd_, out, capacity, 0);
    if (n > 0) return {IoStatus::Ok, static_cast<std::size_t>(n)};
    if (n == 0) return {IoStatus::Eof, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_fd(fd_, POLLIN, timeout)) return {IoStatus::Timeout, 0};
      continue;
    }
    return {IoStatus::Error, 0};
  }
}

bool TcpStream::write_all(std::string_view data, std::chrono::milliseconds timeout) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that died mid-write yields EPIPE, not SIGPIPE —
    // the reconnect path handles the error; a signal would kill the node.
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_fd(fd_, POLLOUT, timeout)) return false;
      continue;
    }
    return false;
  }
  return true;
}

void TcpStream::shutdown_send() noexcept {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_WR);
}

void TcpStream::close() noexcept {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

std::optional<TcpListener> TcpListener::bind(const Endpoint& endpoint, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(error, errno_string("socket"));
    return std::nullopt;
  }
  TcpListener listener;
  listener.fd_ = fd;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_sockaddr(endpoint);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    set_error(error, errno_string("bind"));
    return std::nullopt;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    set_error(error, errno_string("listen"));
    return std::nullopt;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    set_error(error, errno_string("getsockname"));
    return std::nullopt;
  }
  listener.port_ = ntohs(addr.sin_port);
  if (!set_nonblocking(fd)) {
    set_error(error, errno_string("fcntl(O_NONBLOCK)"));
    return std::nullopt;
  }
  return listener;
}

std::optional<TcpStream> TcpListener::accept(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return std::nullopt;
  for (;;) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      TcpStream stream(client);
      if (!set_nonblocking(client)) return std::nullopt;
      const int one = 1;
      (void)::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return stream;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_fd(fd_, POLLIN, timeout)) return std::nullopt;
      continue;
    }
    return std::nullopt;
  }
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

}  // namespace worms::fleet::net
