#include "wire/udp.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "common/ensure.h"

namespace rekey::wire {

namespace {

// IPv4 + UDP header bytes (matches packet::kUdpIpOverheadBytes).
constexpr std::size_t kIpUdpOverhead = 28;

sockaddr_in to_sockaddr(Endpoint e) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(endpoint_addr(e));
  sa.sin_port = htons(endpoint_port(e));
  return sa;
}

Endpoint from_sockaddr(const sockaddr_in& sa) {
  return make_endpoint(ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port));
}

void grow_socket_buffers(int fd) {
  // A round-1 burst for N=2^15 is tens of MB arriving faster than the
  // fleet drains it; an 8 MB receive queue rides it out. RCVBUFFORCE
  // needs CAP_NET_ADMIN — fall back to the rmem_max-clamped plain knob.
  constexpr int kBytes = 8 << 20;
  int v = kBytes;
#ifdef SO_RCVBUFFORCE
  if (setsockopt(fd, SOL_SOCKET, SO_RCVBUFFORCE, &v, sizeof v) != 0)
#endif
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &v, sizeof v);
  v = kBytes;
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof v);
}

// Creates a nonblocking UDP socket with grown send/receive buffers,
// bound to `bind_addr_host`:`bind_port` (0 = ephemeral), and reports the
// bound address through `local`. Throws EnsureError on failure.
int open_bound_udp_socket(std::uint32_t bind_addr_host,
                          std::uint16_t bind_port, Endpoint& local) {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  REKEY_ENSURE_MSG(fd >= 0, "socket() failed");
  const int flags = fcntl(fd, F_GETFL, 0);
  REKEY_ENSURE(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
  grow_socket_buffers(fd);

  sockaddr_in sa = to_sockaddr(make_endpoint(bind_addr_host, bind_port));
  REKEY_ENSURE_MSG(
      bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0,
      "bind() failed");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  REKEY_ENSURE(getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
               0);
  local = from_sockaddr(bound);
  return fd;
}

}  // namespace

obs::Counter& wire_syscalls() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("wire.syscalls");
  return c;
}

std::optional<Endpoint> parse_endpoint(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  const std::string port_str = spec.substr(colon + 1);
  if (port_str.empty() ||
      port_str.find_first_not_of("0123456789") != std::string::npos)
    return std::nullopt;
  const long port = std::strtol(port_str.c_str(), nullptr, 10);
  if (port < 0 || port > 0xFFFF) return std::nullopt;
  in_addr addr{};
  if (inet_pton(AF_INET, host.c_str(), &addr) != 1) return std::nullopt;
  return make_endpoint(ntohl(addr.s_addr), static_cast<std::uint16_t>(port));
}

std::string endpoint_to_string(Endpoint e) {
  const std::uint32_t a = endpoint_addr(e);
  return std::to_string(a >> 24) + "." + std::to_string((a >> 16) & 0xFF) +
         "." + std::to_string((a >> 8) & 0xFF) + "." +
         std::to_string(a & 0xFF) + ":" + std::to_string(endpoint_port(e));
}

UdpWire::UdpWire(std::uint32_t bind_addr_host, std::uint16_t bind_port,
                 std::size_t mtu) {
  REKEY_ENSURE_MSG(mtu > kIpUdpOverhead + 1, "MTU below IP/UDP header size");
  max_payload_ = mtu - kIpUdpOverhead - 1;

  fd_ = open_bound_udp_socket(bind_addr_host, bind_port, local_);

#ifdef __linux__
  epoll_fd_ = epoll_create1(0);
  REKEY_ENSURE_MSG(epoll_fd_ >= 0, "epoll_create1() failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd_;
  REKEY_ENSURE(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd_, &ev) == 0);

  recv_buf_.resize(kBatch * (max_payload_ + 1));
#endif
}

UdpWire::~UdpWire() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (fd_ >= 0) close(fd_);
}

bool UdpWire::wait_writable(int timeout_ms) {
  pollfd p{fd_, POLLOUT, 0};
  for (;;) {
    wire_syscalls().add();
    const int rc = poll(&p, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc > 0 && (p.revents & POLLOUT) != 0;
  }
}

bool UdpWire::send(Endpoint to, std::uint8_t channel,
                   std::span<const std::uint8_t> payload) {
  // Route through send_frames so both entry points share the iovec
  // assembly and backpressure handling; the copy only costs control-plane
  // frames (data bursts go through send_frames directly).
  const Bytes frame(payload.begin(), payload.end());
  const Bytes* one[] = {&frame};
  return send_frames(to, channel, one) == 1;
}

std::size_t UdpWire::send_frames(Endpoint to, std::uint8_t channel,
                                 std::span<const Bytes* const> frames) {
  sockaddr_in sa = to_sockaddr(to);
  std::uint8_t chan = channel;
  std::size_t sent = 0;
  std::size_t i = 0;
  while (i < frames.size()) {
#ifdef __linux__
    std::size_t n = 0;
    std::size_t scan = i;
    while (scan < frames.size() && n < kBatch) {
      const Bytes& body = *frames[scan];
      ++scan;
      if (body.size() > max_payload_) continue;  // refused, not fragmented
      iovs_[n * 2] = {&chan, 1};
      iovs_[n * 2 + 1] = {const_cast<std::uint8_t*>(body.data()),
                          body.size()};
      mmsghdr& m = msgs_[n];
      std::memset(&m, 0, sizeof m);
      m.msg_hdr.msg_name = &sa;
      m.msg_hdr.msg_namelen = sizeof sa;
      m.msg_hdr.msg_iov = &iovs_[n * 2];
      m.msg_hdr.msg_iovlen = 2;
      ++n;
    }
    if (n == 0) return sent;  // every remaining frame was oversize
    std::size_t done = 0;
    while (done < n) {
      wire_syscalls().add();
      const int rc = sendmmsg(fd_, msgs_.data() + done,
                              static_cast<unsigned>(n - done), 0);
      if (rc < 0) {
        if (errno == EINTR) continue;
        if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) &&
            wait_writable(1000))
          continue;
        return sent + done;
      }
      done += static_cast<std::size_t>(rc);
    }
    sent += n;
    i = scan;
#else
    const Bytes& body = *frames[i];
    ++i;
    if (body.size() > max_payload_) continue;
    iovec iov[2] = {{&chan, 1},
                    {const_cast<std::uint8_t*>(body.data()), body.size()}};
    msghdr m{};
    m.msg_name = &sa;
    m.msg_namelen = sizeof sa;
    m.msg_iov = iov;
    m.msg_iovlen = 2;
    for (;;) {
      wire_syscalls().add();
      if (sendmsg(fd_, &m, 0) >= 0) break;
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) &&
          wait_writable(1000))
        continue;
      return sent;
    }
    ++sent;
#endif
  }
  return sent;
}

std::size_t UdpWire::receive(std::vector<Datagram>& out, int timeout_ms) {
  const std::size_t slot = max_payload_ + 1;
  std::size_t added = 0;

  const auto drain = [&]() {
#ifdef __linux__
    for (;;) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        iovs_[j] = {recv_buf_.data() + j * slot, slot};
        std::memset(&msgs_[j], 0, sizeof msgs_[j]);
        msgs_[j].msg_hdr.msg_name = &addrs_[j];
        msgs_[j].msg_hdr.msg_namelen = sizeof addrs_[j];
        msgs_[j].msg_hdr.msg_iov = &iovs_[j];
        msgs_[j].msg_hdr.msg_iovlen = 1;
      }
      wire_syscalls().add();
      const int rc = recvmmsg(fd_, msgs_.data(),
                              static_cast<unsigned>(kBatch), MSG_DONTWAIT,
                              nullptr);
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return;
      for (int j = 0; j < rc; ++j) {
        const std::size_t len = msgs_[j].msg_len;
        if (len == 0) continue;  // no channel byte: not ours
        Datagram d;
        d.from = from_sockaddr(addrs_[j]);
        const std::uint8_t* base = recv_buf_.data() + j * slot;
        d.channel = base[0];
        d.payload.assign(base + 1, base + len);
        out.push_back(std::move(d));
        ++added;
      }
      if (static_cast<std::size_t>(rc) < kBatch) return;
    }
#else
    std::vector<std::uint8_t> buf(slot);
    for (;;) {
      sockaddr_in from{};
      socklen_t from_len = sizeof from;
      wire_syscalls().add();
      const ssize_t len =
          recvfrom(fd_, buf.data(), buf.size(), MSG_DONTWAIT,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
      if (len < 0 && errno == EINTR) continue;
      if (len <= 0) return;
      Datagram d;
      d.from = from_sockaddr(from);
      d.channel = buf[0];
      d.payload.assign(buf.begin() + 1, buf.begin() + len);
      out.push_back(std::move(d));
      ++added;
    }
#endif
  };

  drain();
  if (added == 0 && timeout_ms > 0) {
#ifdef __linux__
    for (;;) {
      epoll_event ev;
      wire_syscalls().add();
      const int rc = epoll_wait(epoll_fd_, &ev, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      if (rc > 0) drain();
      break;
    }
#else
    pollfd p{fd_, POLLIN, 0};
    for (;;) {
      wire_syscalls().add();
      const int rc = poll(&p, 1, timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      if (rc > 0) drain();
      break;
    }
#endif
  }
  return added;
}

}  // namespace rekey::wire
