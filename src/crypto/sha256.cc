#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "crypto/sha256_internal.h"
#include "mutate/mutation.h"

namespace prever::crypto {

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

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t* state, const uint8_t* p, size_t blocks) {
  for (; blocks > 0; --blocks, p += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(p[4 * i]) << 24 |
             static_cast<uint32_t>(p[4 * i + 1]) << 16 |
             static_cast<uint32_t>(p[4 * i + 2]) << 8 |
             static_cast<uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
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

#if defined(__x86_64__) || defined(__i386__)
// The SHA extensions hold the state as two vectors, ABEF and CDGH, and run
// two rounds per sha256rnds2. Step i (rounds 4i..4i+3) consumes message
// vector m[i % 4]; msg1/msg2 extend the schedule in place, four words at a
// time. The target attribute confines the SHA/SSE4.1 encodings to this
// function, so the rest of the binary still runs on any x86 CPU.
__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t* state, const uint8_t* data, size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_saved = abef;
    const __m128i cdgh_saved = cdgh;
    __m128i m[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        m[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          m[i % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (i >= 3 && i <= 14) {
        __m128i& next = m[(i + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(m[i % 4], m[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, m[i % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (i >= 1 && i <= 12) {
        m[(i + 3) % 4] = _mm_sha256msg1_epu32(m[(i + 3) % 4], m[i % 4]);
      }
    }
    if (PREVER_MUTATION(SHA256_NI_FEEDFORWARD_SKIP, true, false)) {
      abef = _mm_add_epi32(abef, abef_saved);
      cdgh = _mm_add_epi32(cdgh, cdgh_saved);
    }
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool CpuHasShaNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}
#endif

CompressFn Dispatched() {
  static const CompressFn chosen = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (CpuHasShaNi()) return &CompressShaNi;
#endif
    return &CompressPortable;
  }();
  return chosen;
}

}  // namespace sha256_internal

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  const sha256_internal::CompressFn compress = sha256_internal::Dispatched();
  if (buffer_len_ > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks compress straight from the caller's buffer.
  size_t blocks = len / kBlockSize;
  if (blocks > 0) {
    compress(state_, data, blocks);
    data += blocks * kBlockSize;
    len -= blocks * kBlockSize;
  }
  if (len > 0) std::memcpy(buffer_, data, len);
  buffer_len_ = len;
}

Bytes Sha256::Finish() {
  Bytes out(kDigestSize);
  Finish(out.data());
  return out;
}

void Sha256::Finish(uint8_t* out) {
  const sha256_internal::CompressFn compress = sha256_internal::Dispatched();
  const uint64_t bit_len = total_len_ * 8;
  // Pad: 0x80, zeros to byte 56 of a block (spilling into one more block
  // when fewer than 8 bytes are left), then the 64-bit bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_, buffer_, 1);
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  return h.Finish();
}

}  // namespace prever::crypto
