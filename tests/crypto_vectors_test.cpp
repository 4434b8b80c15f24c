// Additional published test vectors for the crypto substrate: the
// remaining RFC 4231 HMAC cases, further FIPS-180 SHA-256 cases, the
// second RFC 8439 ChaCha20 keystream vector, and chunking-invariance
// properties under randomized splits.
#include <gtest/gtest.h>

#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "support/oracles.h"

namespace rekey::crypto {
namespace {

Bytes from_ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  return out;
}

std::string digest_hex(const Sha256::Digest& d) {
  return rekey::test::to_hex(std::span(d.data(), d.size()));
}

// FIPS 180-4 / NIST CAVP short-message cases.
TEST(Sha256Vectors, OneByte) {
  const Bytes msg{0xbd};
  EXPECT_EQ(digest_hex(Sha256::hash(msg)),
            "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

TEST(Sha256Vectors, FourBytes) {
  const Bytes msg{0xc9, 0x8c, 0x8e, 0x55};
  EXPECT_EQ(digest_hex(Sha256::hash(msg)),
            "7abc22c0ae5af26ce93dbb94433a0e0b2e119d014f8e7f65bd56c61ccccd9504");
}

TEST(Sha256Vectors, FiftySixBytes) {
  // Exactly the padding boundary (length field wraps to a second block).
  const Bytes msg(56, 0);
  EXPECT_EQ(digest_hex(Sha256::hash(msg)),
            "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb");
}

TEST(Sha256Vectors, SixtyFourByteZeroBlock) {
  const Bytes msg(64, 0);
  EXPECT_EQ(digest_hex(Sha256::hash(msg)),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b");
}

// RFC 4231 test case 4: key 0x0102..19, data 0xcd*50.
TEST(HmacVectors, Rfc4231Case4) {
  Bytes key;
  for (int i = 1; i <= 25; ++i) key.push_back(static_cast<std::uint8_t>(i));
  const Bytes data(50, 0xcd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 5: truncated output (we compare the full tag's
// leading 128 bits as the RFC specifies the truncation).
TEST(HmacVectors, Rfc4231Case5Truncated) {
  const Bytes key(20, 0x0c);
  const auto mac =
      hmac_sha256(key, from_ascii("Test With Truncation"));
  EXPECT_EQ(rekey::test::to_hex(std::span(mac.data(), 16)),
            "a3b6167473100ee06e0c796c2955552b");
}

// RFC 4231 test case 7: both key and data larger than one block.
TEST(HmacVectors, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, from_ascii("This is a test using a larger than block-size key "
                      "and a larger than block-size data. The key needs to "
                      "be hashed before being used by the HMAC algorithm."));
  EXPECT_EQ(digest_hex(mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// RFC 8439 §2.3.2 *first* block (counter = 0 keystream from Appendix A.1
// test vector #1: all-zero key and nonce).
TEST(ChaCha20Vectors, AppendixA1Vector1) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  ChaCha20 c(key, nonce);
  const auto block = c.keystream_block(0);
  const Bytes expect = from_hex(
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
      "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
  EXPECT_EQ(rekey::test::to_hex(block), rekey::test::to_hex(expect));
}

// RFC 8439 Appendix A.1 test vector #2: counter = 1, all-zero key/nonce.
TEST(ChaCha20Vectors, AppendixA1Vector2) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  ChaCha20 c(key, nonce);
  const auto block = c.keystream_block(1);
  EXPECT_EQ(rekey::test::to_hex(std::span(block.data(), 16)),
            "9f07e7be5551387a98ba977c732d080d");
}

TEST(ChunkingInvariance, Sha256RandomSplits) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = rng.next_in(0, 500);
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_in(0, 255));
    const auto oneshot = Sha256::hash(msg);
    Sha256 h;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.next_in(0, 96), msg.size() - off);
      h.update(std::span(msg).subspan(off, n));
      off += n;
    }
    EXPECT_EQ(h.finish(), oneshot) << "len=" << len;
  }
}

TEST(ChunkingInvariance, ChaCha20RandomSplits) {
  Rng rng(2);
  std::array<std::uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i * 3);
  std::array<std::uint8_t, 12> nonce{};
  nonce[0] = 9;
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 1 + rng.next_in(0, 400);
    Bytes bulk(len, 0x42);
    Bytes chunked = bulk;
    ChaCha20 a(key, nonce);
    a.apply(bulk);
    ChaCha20 b(key, nonce);
    std::size_t off = 0;
    while (off < chunked.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.next_in(0, 70), chunked.size() - off);
      b.apply(std::span(chunked).subspan(off, n));
      off += n;
    }
    EXPECT_EQ(bulk, chunked) << "len=" << len;
  }
}

TEST(KeystreamDistinctness, BlocksAndNoncesNeverCollide) {
  std::array<std::uint8_t, 32> key{};
  key[31] = 1;
  std::array<std::uint8_t, 12> n1{}, n2{};
  n2[11] = 1;
  ChaCha20 a(key, n1), b(key, n2);
  EXPECT_NE(a.keystream_block(0), b.keystream_block(0));
  EXPECT_NE(a.keystream_block(0), a.keystream_block(1));
}

}  // namespace
}  // namespace rekey::crypto
