// SHA-256 compression via the x86 SHA extensions (SHA-NI).
//
// One sha256rnds2 instruction retires four rounds, with sha256msg1/msg2
// doing the message-schedule expansion — the whole 64-round compression
// runs in ~32 instructions instead of the scalar ~300. This follows the
// canonical scheduling first published in Intel's SHA extensions paper
// (Gulley et al.) and used by every mainstream implementation; the state
// is carried in the (ABEF, CDGH) register split the instructions expect.
//
// This translation unit is compiled with -msha -mssse3 -msse4.1 only; the
// dispatcher (sha256.cpp) calls in only after checking CPUID, so no other
// code here may be reached on a CPU without the extension.
#include <cpuid.h>
#include <immintrin.h>

#include "crypto/sha256.h"

namespace rekey::crypto::detail {

bool cpu_has_sha_extensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ebx & (1u << 29))) return false;  // CPUID.7.0:EBX.SHA
  // The kernel below also uses pshufb (SSSE3) and pblendw (SSE4.1).
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & (1u << 9)) && (ecx & (1u << 19));
}

// The snapshot digest runs this loop over every 64-byte block of the
// tree blob a replicated primary ships, so it starts on a cache line of
// its own: where the linker happens to place it cannot move the
// snapshot's timing.
[[gnu::aligned(64)]] void compress_sha_ni(Sha256::State& state,
                                          const std::uint8_t* blocks,
                                          std::size_t nblocks) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // state[] is {a..h}; the instructions want (ABEF, CDGH).
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);  // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);  // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);   // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);        // CDGH

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* data = blocks + 64 * blk;
    const __m128i save0 = st0;
    const __m128i save1 = st1;
    __m128i msg, msg0, msg1, msg2, msg3;

    // Rounds 0-3
    msg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg, kShuffle);
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFLL, 0x71374491428A2F98LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 4-7
    msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuffle);
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4LL, 0x59F111F13956C25BLL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuffle);
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x550C7DC3243185BELL, 0x12835B01D807AA98LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuffle);
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC19BF1749BDC06A7LL, 0x80DEB1FE72BE5D74LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-19
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x240CA1CC0FC19DC6LL, 0xEFBE4786E49B69C1LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 20-23
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x76F988DA5CB0A9DCLL, 0x4A7484AA2DE92C6FLL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 24-27
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xBF597FC7B00327C8LL, 0xA831C66D983E5152LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 28-31
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x1429296706CA6351LL, 0xD5A79147C6E00BF3LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 32-35
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x53380D134D2C6DFCLL, 0x2E1B213827B70A85LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 36-39
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x92722C8581C2C92ELL, 0x766A0ABB650A7354LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 40-43
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xC76C51A3C24B8B70LL, 0xA81A664BA2BFE8A1LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 44-47
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x106AA070F40E3585LL, 0xD6990624D192E819LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 48-51
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x34B0BCB52748774CLL, 0x1E376C0819A4C116LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FLL, 0x4ED8AA4A391C0CB3LL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 56-59
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x8CC7020884C87814LL, 0x78A5636F748F82EELL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 60-63
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7LL, 0xA4506CEB90BEFFFALL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    st0 = _mm_add_epi32(st0, save0);
    st1 = _mm_add_epi32(st1, save1);
  }

  // (ABEF, CDGH) back to {a..h}.
  tmp = _mm_shuffle_epi32(st0, 0x1B);        // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);        // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);     // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);        // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

}  // namespace rekey::crypto::detail
