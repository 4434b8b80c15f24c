// Wire-format byte and bit I/O.
//
// Packet headers in the rekey protocol are bit-packed (e.g. a 2-bit type
// next to a 6-bit rekey-message id, Fig. 5 of the protocol paper), so the
// writer/reader support both whole-byte fields (big-endian) and sub-byte
// bit fields. Bit fields must be flushed to a byte boundary before byte
// fields are used; the classes enforce this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rekey {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  // Append `bits` (1..32) low-order bits of `value`, MSB-first.
  void put_bits(std::uint32_t value, int bits);

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bytes(std::span<const std::uint8_t> data);

  // Append zero bytes until the buffer reaches `size`.
  void pad_to(std::size_t size);

  std::size_t size() const { return buf_.size(); }
  bool at_byte_boundary() const { return bit_pos_ == 0; }

  Bytes take() &&;

 private:
  void ensure_boundary() const;

  Bytes buf_;
  int bit_pos_ = 0;  // bits already written into the trailing partial byte
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t get_bits(int bits);
  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  Bytes get_bytes(std::size_t n);
  // The next n bytes as a view into the data (no copy).
  std::span<const std::uint8_t> get_span(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_byte_boundary() const { return bit_pos_ == 0; }

 private:
  void ensure_boundary() const;
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  int bit_pos_ = 0;  // bits already consumed from data_[pos_]
};

}  // namespace rekey
