#include "common/bytes.h"

#include "common/ensure.h"

namespace rekey {

void ByteWriter::put_bits(std::uint32_t value, int bits) {
  REKEY_ENSURE(bits >= 1 && bits <= 32);
  for (int i = bits - 1; i >= 0; --i) {
    const bool bit = (value >> i) & 1u;
    if (bit_pos_ == 0) buf_.push_back(0);
    if (bit) buf_.back() |= static_cast<std::uint8_t>(1u << (7 - bit_pos_));
    bit_pos_ = (bit_pos_ + 1) % 8;
  }
}

void ByteWriter::ensure_boundary() const {
  REKEY_ENSURE_MSG(bit_pos_ == 0, "byte field written mid-bitfield");
}

void ByteWriter::put_u8(std::uint8_t v) {
  ensure_boundary();
  buf_.push_back(v);
}

void ByteWriter::put_u16(std::uint16_t v) {
  ensure_boundary();
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_u32(std::uint32_t v) {
  put_u16(static_cast<std::uint16_t>(v >> 16));
  put_u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v >> 32));
  put_u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> data) {
  ensure_boundary();
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::pad_to(std::size_t size) {
  ensure_boundary();
  REKEY_ENSURE(buf_.size() <= size);
  buf_.resize(size, 0);
}

Bytes ByteWriter::take() && {
  ensure_boundary();
  return std::move(buf_);
}

std::uint32_t ByteReader::get_bits(int bits) {
  REKEY_ENSURE(bits >= 1 && bits <= 32);
  std::uint32_t v = 0;
  for (int i = 0; i < bits; ++i) {
    require(1);
    const std::uint8_t byte = data_[pos_];
    const bool bit = (byte >> (7 - bit_pos_)) & 1u;
    v = (v << 1) | (bit ? 1u : 0u);
    if (++bit_pos_ == 8) {
      bit_pos_ = 0;
      ++pos_;
    }
  }
  return v;
}

void ByteReader::ensure_boundary() const {
  REKEY_ENSURE_MSG(bit_pos_ == 0, "byte field read mid-bitfield");
}

void ByteReader::require(std::size_t n) const {
  REKEY_ENSURE_MSG(pos_ + n <= data_.size(), "packet truncated");
}

std::uint8_t ByteReader::get_u8() {
  ensure_boundary();
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::get_u16() {
  const std::uint16_t hi = get_u8();
  const std::uint16_t lo = get_u8();
  return static_cast<std::uint16_t>(hi << 8 | lo);
}

std::uint32_t ByteReader::get_u32() {
  const std::uint32_t hi = get_u16();
  const std::uint32_t lo = get_u16();
  return hi << 16 | lo;
}

std::uint64_t ByteReader::get_u64() {
  const std::uint64_t hi = get_u32();
  const std::uint64_t lo = get_u32();
  return hi << 32 | lo;
}

Bytes ByteReader::get_bytes(std::size_t n) {
  ensure_boundary();
  require(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::get_span(std::size_t n) {
  ensure_boundary();
  require(n);
  const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace rekey
