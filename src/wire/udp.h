// UdpWire — the socket WireTransport behind tools/rekeyd and
// tools/rekey_load.
//
// One nonblocking IPv4 UDP socket, readiness via epoll, and batched I/O:
// sends go through sendmmsg with two iovecs per datagram (the 1-byte
// channel prefix and the frame body), so protocol wires serialized once
// in the keytree/transport arena reach the kernel without an intermediate
// copy; receives drain the socket with recvmmsg into a reusable buffer
// block.
//
// Endpoints pack an IPv4 address and port into the 48 low bits of
// Endpoint::id: (host-order address << 16) | port.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>

#include "common/obs.h"
#include "wire/wire.h"

namespace rekey::wire {

// Endpoint <-> (IPv4 host-order address, UDP port).
constexpr Endpoint make_endpoint(std::uint32_t addr_host, std::uint16_t port) {
  return Endpoint{(static_cast<std::uint64_t>(addr_host) << 16) | port};
}
constexpr std::uint32_t endpoint_addr(Endpoint e) {
  return static_cast<std::uint32_t>(e.id >> 16);
}
constexpr std::uint16_t endpoint_port(Endpoint e) {
  return static_cast<std::uint16_t>(e.id & 0xFFFF);
}

// Parses "a.b.c.d:port" (or ":port" = 127.0.0.1). Returns nullopt on
// malformed input.
std::optional<Endpoint> parse_endpoint(const std::string& spec);
std::string endpoint_to_string(Endpoint e);

// Process-wide count of per-operation wire-layer syscalls (sendmmsg/
// recvmmsg/epoll_wait/poll; socket setup is not counted). The W1 bench snapshots it around each scenario to report
// syscalls per batch.
obs::Counter& wire_syscalls();

class UdpWire : public WireTransport {
 public:
  // Binds to `bind_addr_host`:`bind_port` (port 0 = ephemeral; the bound
  // port is available via local_endpoint()). `mtu` caps every emitted
  // datagram: max_payload() = mtu - 28 (IP+UDP) - 1 (channel byte).
  // Throws EnsureError when the socket cannot be created or bound.
  UdpWire(std::uint32_t bind_addr_host, std::uint16_t bind_port,
          std::size_t mtu = 1500);
  ~UdpWire() override;

  UdpWire(const UdpWire&) = delete;
  UdpWire& operator=(const UdpWire&) = delete;

  bool send(Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override;
  std::size_t send_frames(Endpoint to, std::uint8_t channel,
                          std::span<const Bytes* const> frames) override;
  std::size_t receive(std::vector<Datagram>& out, int timeout_ms) override;
  std::size_t max_payload() const override { return max_payload_; }

  // The bound local address (bind with port 0 to learn the ephemeral
  // port).
  Endpoint local_endpoint() const { return local_; }

 private:
  // Blocks (poll on POLLOUT) until the socket accepts writes again;
  // a saturated loopback send queue is backpressure, not loss.
  bool wait_writable(int timeout_ms);

  // Datagrams per sendmmsg/recvmmsg syscall: small per-call arrays, the
  // syscall amortized across a round's burst.
  static constexpr std::size_t kBatch = 64;

  int fd_ = -1;
  int epoll_fd_ = -1;
  std::size_t max_payload_ = 0;
  Endpoint local_{};

  // Reusable per-call I/O arrays.
  std::array<mmsghdr, kBatch> msgs_{};
  std::array<iovec, kBatch * 2> iovs_{};  // send: 2 per message; receive: 1
  std::array<sockaddr_in, kBatch> addrs_{};
  std::vector<std::uint8_t> recv_buf_;  // kBatch slots of max_payload_ + 1
};

}  // namespace rekey::wire
