// WireTransport — the datagram-transport abstraction the real-wire key
// server stack is built on (ROADMAP item 1).
//
// The batch-rekey pipeline (keytree -> payload -> assignment ->
// ServerTransport packets) has always produced real wire bytes; what
// varied was who carried them. Until now the only carrier was the
// in-process simnet (simnet::Topology + transport::RekeySession), which
// models loss analytically. This interface lets the same pipeline drive
// an actual datagram transport:
//
//   * LoopbackWire (wire/loopback.h) — a deterministic in-process hub.
//     Same spirit as the simnet: no sockets, no timing, reproducible;
//     used by the daemon/fleet unit tests and available to benches.
//   * UdpWire (wire/udp.h) — a nonblocking UDP socket on epoll with
//     batched sendmmsg/recvmmsg; what tools/rekeyd and tools/rekey_load
//     run on.
//
// The simulator path (RekeySession over simnet::Topology) is untouched
// and stays bit-identical; KeyServerDaemon (wire/daemon.h) is the wire
// counterpart of RekeySession, running the identical ServerTransport /
// UserTransport state machines over a WireTransport.
//
// Every datagram on a WireTransport carries a 1-byte channel prefix
// (wire/control.h): kChanData frames hold exactly the protocol wire
// bytes of packet/wire.h; kChanControl frames hold the daemon's session
// control messages (subscribe, round marks, NACK reports, USR
// fragments). UDP gives no framing for free, so the prefix is what
// keeps a NACK from masquerading as a control frame.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace rekey::wire {

// Opaque transport address. UdpWire packs IPv4 address and port;
// LoopbackWire uses small indices handed out by its hub.
struct Endpoint {
  std::uint64_t id = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

struct Datagram {
  Endpoint from;
  Bytes payload;  // channel byte already stripped
  std::uint8_t channel = 0;
};

class WireTransport {
 public:
  virtual ~WireTransport() = default;

  // Sends one datagram of `channel` + `payload`. Returns false when the
  // transport refuses it (payload over max_payload(), transient send
  // failure); the rekey protocol treats that like any other loss.
  virtual bool send(Endpoint to, std::uint8_t channel,
                    std::span<const std::uint8_t> payload) = 0;

  // Batched send of many frames to one endpoint (sendmmsg on UDP, with
  // the channel byte contributed by a separate iovec so the frame bodies
  // are never copied). Returns the number of frames actually queued.
  virtual std::size_t send_frames(Endpoint to, std::uint8_t channel,
                                  std::span<const Bytes* const> frames) = 0;

  // Appends received datagrams to `out`, waiting up to `timeout_ms` for
  // the first one (0 = non-blocking poll). Returns how many were added.
  virtual std::size_t receive(std::vector<Datagram>& out, int timeout_ms) = 0;

  // Largest payload (excluding the channel byte) a frame may carry:
  // MTU - IP/UDP headers - channel byte. The daemon refuses to emit
  // anything larger and fragments control payloads instead.
  virtual std::size_t max_payload() const = 0;
};

}  // namespace rekey::wire
