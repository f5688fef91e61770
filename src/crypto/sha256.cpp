#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sbft::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__) || defined(__i386__)

// SHA-NI backend. The state is kept as the two lanes the instructions expect,
// ABEF and CDGH; each _mm_sha256rnds2_epu32 runs two rounds, and msg1/msg2
// extend the message schedule four words at a time. Loads and stores are
// unaligned, so callers may pass any byte pointer.
#define SBFT_SHA_TARGET __attribute__((target("sha,sse4.1")))

// Runs rounds 4i..4i+3 with schedule words `w`.
SBFT_SHA_TARGET inline void quad_rounds(__m128i& abef, __m128i& cdgh, __m128i w,
                                        size_t i) {
  __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[t..t+3] from the previous sixteen words, oldest group first.
SBFT_SHA_TARGET inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2,
                                          __m128i w3) {
  __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

SBFT_SHA_TARGET void compress_shani(uint32_t state[8], const uint8_t* data,
                                    size_t blocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap);
    quad_rounds(abef, cdgh, w0, 0);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    quad_rounds(abef, cdgh, w1, 1);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    quad_rounds(abef, cdgh, w2, 2);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    quad_rounds(abef, cdgh, w3, 3);
    for (size_t i = 4; i < 16; i += 4) {
      w0 = next_words(w0, w1, w2, w3);
      quad_rounds(abef, cdgh, w0, i);
      w1 = next_words(w1, w2, w3, w0);
      quad_rounds(abef, cdgh, w1, i + 1);
      w2 = next_words(w2, w3, w0, w1);
      quad_rounds(abef, cdgh, w2, i + 2);
      w3 = next_words(w3, w0, w1, w2);
      quad_rounds(abef, cdgh, w3, i + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef SBFT_SHA_TARGET

#endif  // x86

}  // namespace

namespace detail {

void compress_portable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (size_t i = 0; i < 16; ++i) {
      const uint8_t* p = data + 4 * i;
      w[i] = (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
             (uint32_t(p[2]) << 8) | uint32_t(p[3]);
    }
    for (size_t i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (size_t i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn accelerated_compress() {
#if defined(__x86_64__) || defined(__i386__)
  // The CPUID bits behind __builtin_cpu_supports("sse4.1") and ("sha"), read
  // directly because older clang releases reject "sha" in that builtin.
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  const bool sse41 = __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 && (ecx & bit_SSE4_1) != 0;
  const bool sha = __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 && (ebx & bit_SHA) != 0;
  if (sse41 && sha) return compress_shani;
#endif
  return nullptr;
}

CompressFn default_compress() {
  static const CompressFn chosen = [] {
    CompressFn fast = accelerated_compress();
    return fast != nullptr ? fast : compress_portable;
  }();
  return chosen;
}

}  // namespace detail

void Sha256::reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buf_len_ = 0;
  total_len_ = 0;
}

Sha256& Sha256::update(ByteSpan data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (n == 0) return *this;
  total_len_ += n;
  if (buf_len_ > 0) {
    size_t take = std::min(n, 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < 64) return *this;
    compress_(h_, buf_, 1);
    buf_len_ = 0;
  }
  if (size_t blocks = n / 64; blocks > 0) {
    compress_(h_, p, blocks);
    p += 64 * blocks;
    n -= 64 * blocks;
  }
  if (n > 0) {
    std::memcpy(buf_, p, n);
    buf_len_ = n;
  }
  return *this;
}

Digest Sha256::finish() {
  uint64_t bit_len = total_len_ * 8;
  // buf_len_ < 64 here, so the 0x80 marker always fits. When the 8-byte
  // length no longer fits behind it, pad this block out and start another.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    compress_(h_, buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (size_t i = 0; i < 8; ++i) buf_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  compress_(h_, buf_, 1);
  buf_len_ = 0;
  Digest out;
  for (size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Digest sha256(ByteSpan data) { return Sha256().update(data).finish(); }
Digest sha256(std::string_view s) { return sha256(as_span(s)); }

Digest sha256_concat(ByteSpan a, ByteSpan b) {
  return Sha256().update(a).update(b).finish();
}

}  // namespace sbft::crypto
