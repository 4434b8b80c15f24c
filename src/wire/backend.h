// Compatibility shim for perfbench/main.cpp and perfbench/trace_wire.cpp,
// which still compile against the names of the old wire-backend
// selection layer. UdpWire (wire/udp.h) is the one socket transport:
// make_socket_wire builds it and backend_name always reads "epoll". The
// next change to the benchmark moves those two files onto UdpWire and
// deletes this header; nothing else may include it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "wire/udp.h"

namespace rekey::wire {

enum class WireBackend { kEpoll };

inline WireBackend effective_backend(std::optional<WireBackend>) {
  return WireBackend::kEpoll;
}

inline std::string backend_name(WireBackend) { return "epoll"; }

inline std::unique_ptr<UdpWire> make_socket_wire(
    std::optional<WireBackend>, std::uint32_t bind_addr_host,
    std::uint16_t bind_port, std::size_t mtu = 1500) {
  return std::make_unique<UdpWire>(bind_addr_host, bind_port, mtu);
}

}  // namespace rekey::wire
