#include "crypto/drbg.h"

#include "crypto/hmac.h"

namespace prever::crypto {

Drbg::Drbg(const Bytes& seed) : key_(32, 0x00), v_(32, 0x01) {
  Update(seed);
}

Drbg::Drbg(uint64_t seed) : key_(32, 0x00), v_(32, 0x01) {
  Bytes s(8);
  for (int i = 0; i < 8; ++i) s[i] = static_cast<uint8_t>(seed >> (8 * i));
  Update(s);
}

void Drbg::Update(const Bytes& provided) {
  Bytes data = v_;
  data.push_back(0x00);
  Append(data, provided);
  key_ = HmacSha256(key_, data);
  v_ = HmacSha256(key_, v_);
  if (!provided.empty()) {
    data = v_;
    data.push_back(0x01);
    Append(data, provided);
    key_ = HmacSha256(key_, data);
    v_ = HmacSha256(key_, v_);
  }
}

Bytes Drbg::Generate(size_t n) {
  Bytes out;
  while (out.size() < n) {
    v_ = HmacSha256(key_, v_);
    Append(out, v_);
  }
  out.resize(n);
  Update({});
  return out;
}

void Drbg::Reseed(const Bytes& entropy) { Update(entropy); }

Drbg Drbg::Fork() { return Drbg(Generate(32)); }

BigInt Drbg::RandomBits(size_t bits) {
  if (bits == 0) return BigInt();
  size_t bytes = (bits + 7) / 8;
  Bytes raw = Generate(bytes);
  // Clear excess leading bits, then force the top bit so BitLength() == bits.
  size_t excess = bytes * 8 - bits;
  raw[0] &= static_cast<uint8_t>(0xff >> excess);
  raw[0] |= static_cast<uint8_t>(0x80 >> excess);
  return BigInt::FromBytes(raw);
}

BigInt Drbg::RandomBelow(const BigInt& bound) {
  size_t bits = bound.BitLength();
  size_t bytes = (bits + 7) / 8;
  size_t excess = bytes * 8 - bits;
  for (;;) {
    Bytes raw = Generate(bytes);
    raw[0] &= static_cast<uint8_t>(0xff >> excess);
    BigInt candidate = BigInt::FromBytes(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt Drbg::RandomNonZeroBelow(const BigInt& bound) {
  for (;;) {
    BigInt candidate = RandomBelow(bound);
    if (!candidate.IsZero()) return candidate;
  }
}

}  // namespace prever::crypto
