// Crypto substrate tests: SHA-256 against FIPS vectors, HMAC-SHA256
// against RFC 4231 vectors, ChaCha20 against the RFC 8439 test vector,
// and the key-encryption primitive's roundtrip / tamper properties.
#include <gtest/gtest.h>

#include <string>

#include "common/bytes.h"
#include "common/ensure.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "support/oracles.h"

namespace rekey::crypto {
namespace {

Bytes from_ascii(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string digest_hex(const Sha256::Digest& d) {
  return rekey::test::to_hex(std::span(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(Sha256::hash(from_ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(Sha256::hash(from_ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = from_ascii("the quick brown fox jumps over the lazy dog");
  Sha256 h;
  for (const std::uint8_t b : msg) h.update({&b, 1});
  EXPECT_EQ(h.finish(), Sha256::hash(msg));
}

TEST(Sha256, ExactBlockBoundary) {
  const Bytes msg(64, 0x5A);
  Sha256 a;
  a.update(msg);
  Sha256 b;
  b.update(std::span(msg).subspan(0, 32));
  b.update(std::span(msg).subspan(32));
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(Sha256, FinishTwiceThrows) {
  Sha256 h;
  h.finish();
  EXPECT_THROW(h.finish(), EnsureError);
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, from_ascii("Hi There"));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  const auto mac = hmac_sha256(from_ascii("Jefe"),
                               from_ascii("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key larger than one block.
TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                key, from_ascii("Test Using Larger Than Block-Size Key - "
                                "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, TagsEqualConstantTime) {
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 3};
  const Bytes c{1, 2, 4};
  EXPECT_TRUE(tags_equal(a, b));
  EXPECT_FALSE(tags_equal(a, c));
  EXPECT_FALSE(tags_equal(a, Bytes{1, 2}));
}

// RFC 8439 §2.3.2: keystream block test vector.
TEST(ChaCha20, Rfc8439BlockFunction) {
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                        0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  ChaCha20 c(key, nonce);
  const auto block = c.keystream_block(1);
  EXPECT_EQ(rekey::test::to_hex(std::span(block.data(), 16)),
            "10f1e7e4d13b5915500fdd1fa32071c4");
  EXPECT_EQ(rekey::test::to_hex(std::span(block.data() + 48, 16)),
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 §2.4.2: full encryption test vector (first 16 bytes checked).
TEST(ChaCha20, Rfc8439Encryption) {
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                        0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  Bytes plain = from_ascii(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  ChaCha20 c(key, nonce, /*initial_counter=*/1);
  c.apply(plain);
  EXPECT_EQ(rekey::test::to_hex(std::span(plain.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20, ApplyTwiceRestoresPlaintext) {
  std::array<std::uint8_t, 32> key{};
  key[0] = 7;
  std::array<std::uint8_t, 12> nonce{};
  Bytes data = from_ascii("stream ciphers are involutions under same state");
  const Bytes orig = data;
  ChaCha20 enc(key, nonce);
  enc.apply(data);
  EXPECT_NE(data, orig);
  ChaCha20 dec(key, nonce);
  dec.apply(data);
  EXPECT_EQ(data, orig);
}

TEST(ChaCha20, StreamingMatchesBulk) {
  std::array<std::uint8_t, 32> key{};
  key[5] = 99;
  std::array<std::uint8_t, 12> nonce{};
  nonce[11] = 3;
  Bytes bulk(200, 0xAA);
  Bytes stream = bulk;
  ChaCha20 a(key, nonce);
  a.apply(bulk);
  ChaCha20 b(key, nonce);
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - i);
    b.apply(std::span(stream).subspan(i, n));
  }
  EXPECT_EQ(bulk, stream);
}

TEST(KeyGenerator, DeterministicAndDistinct) {
  KeyGenerator a(123), b(123), c(124);
  const SymmetricKey k1 = a.next();
  EXPECT_EQ(k1, b.next());
  EXPECT_NE(k1, c.next());
  EXPECT_NE(a.next(), k1);  // sequence advances
}

TEST(KeyEncryption, Roundtrip) {
  KeyGenerator gen(1);
  const SymmetricKey kek = gen.next();
  const SymmetricKey plain = gen.next();
  const EncryptedKey e = encrypt_key(kek, plain, /*msg_id=*/5, /*enc_id=*/42);
  const auto back = decrypt_key(kek, e, 5, 42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plain);
}

TEST(KeyEncryption, WrongKeyRejected) {
  KeyGenerator gen(2);
  const SymmetricKey kek = gen.next();
  const SymmetricKey other = gen.next();
  const SymmetricKey plain = gen.next();
  const EncryptedKey e = encrypt_key(kek, plain, 1, 2);
  EXPECT_FALSE(decrypt_key(other, e, 1, 2).has_value());
}

TEST(KeyEncryption, WrongIdsRejected) {
  KeyGenerator gen(3);
  const SymmetricKey kek = gen.next();
  const SymmetricKey plain = gen.next();
  const EncryptedKey e = encrypt_key(kek, plain, 1, 2);
  EXPECT_FALSE(decrypt_key(kek, e, 1, 3).has_value());
  EXPECT_FALSE(decrypt_key(kek, e, 2, 2).has_value());
}

TEST(KeyEncryption, TamperedCiphertextRejected) {
  KeyGenerator gen(4);
  const SymmetricKey kek = gen.next();
  const SymmetricKey plain = gen.next();
  EncryptedKey e = encrypt_key(kek, plain, 1, 2);
  e.ciphertext[0] ^= 0x01;
  EXPECT_FALSE(decrypt_key(kek, e, 1, 2).has_value());
}

TEST(KeyEncryption, DistinctNoncesAcrossMessages) {
  // Same kek and plaintext, different msg ids -> different ciphertexts.
  KeyGenerator gen(5);
  const SymmetricKey kek = gen.next();
  const SymmetricKey plain = gen.next();
  const EncryptedKey a = encrypt_key(kek, plain, 1, 7);
  const EncryptedKey b = encrypt_key(kek, plain, 2, 7);
  EXPECT_NE(a.ciphertext, b.ciphertext);
}

TEST(MessageAuthenticator, DetectsModification) {
  KeyGenerator gen(6);
  const SymmetricKey auth = gen.next();
  Bytes msg = from_ascii("rekey message body");
  const auto tag1 = message_authenticator(auth, msg);
  msg[0] ^= 1;
  const auto tag2 = message_authenticator(auth, msg);
  EXPECT_NE(tag1, tag2);
}

}  // namespace
}  // namespace rekey::crypto
