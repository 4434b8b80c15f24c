// Fixed-width big-endian stores into a buffer sized in advance.
//
// ByteWriter (common/bytes.h) appends: a large blob grows by doubling and
// every u64 is eight push_backs. An encoder that knows its exact size up
// front — the snapshot formats of keytree/snapshot.h and
// wire/server_snapshot.h, a SnapChunk frame — allocates once and writes
// each field in place through a cursor instead. Byte order and widths
// match ByteWriter, so ByteReader parses either.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace rekey {

class ByteCursor {
 public:
  explicit ByteCursor(std::uint8_t* at) : at_(at) {}

  void put_u8(std::uint8_t v) { *at_++ = v; }
  void put_u16(std::uint16_t v) {
    at_[0] = static_cast<std::uint8_t>(v >> 8);
    at_[1] = static_cast<std::uint8_t>(v);
    at_ += 2;
  }
  void put_u32(std::uint32_t v) {
    put_u16(static_cast<std::uint16_t>(v >> 16));
    put_u16(static_cast<std::uint16_t>(v));
  }
  void put_u64(std::uint64_t v) {
    put_u32(static_cast<std::uint32_t>(v >> 32));
    put_u32(static_cast<std::uint32_t>(v));
  }
  void put_bytes(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::memcpy(at_, data.data(), data.size());
    at_ += data.size();
  }

  // The next byte to be written.
  std::uint8_t* pos() const { return at_; }

 private:
  std::uint8_t* at_;
};

}  // namespace rekey
