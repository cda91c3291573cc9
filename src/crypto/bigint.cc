#include "crypto/bigint.h"

#include <algorithm>
#include <utility>

#include "crypto/bigint_internal.h"
#include "crypto/montgomery.h"
#include "mutate/mutation.h"

namespace prever::crypto {

BigInt::BigInt(int64_t v) {
  negative_ = v < 0;
  // Careful with INT64_MIN: negate in unsigned space.
  uint64_t mag = negative_ ? (~static_cast<uint64_t>(v) + 1) : static_cast<uint64_t>(v);
  while (mag != 0) {
    limbs_.push_back(static_cast<uint32_t>(mag));
    mag >>= 32;
  }
}

BigInt::BigInt(uint64_t v, bool /*unsigned_tag*/) {
  while (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v));
    v >>= 32;
  }
}

BigInt BigInt::FromLimbs(std::vector<uint32_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.Trim();
  return out;
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

Result<BigInt> BigInt::FromDecimal(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty decimal string");
  bool neg = false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) return Status::InvalidArgument("sign without digits");
  BigInt out;
  const BigInt kTen(10);
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return Status::InvalidArgument("non-decimal character");
    }
    out = out * kTen + BigInt(s[i] - '0');
  }
  out.negative_ = neg && !out.IsZero();
  return out;
}

Result<BigInt> BigInt::FromHex(std::string_view s) {
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
  }
  if (s.empty()) return Status::InvalidArgument("empty hex string");
  BigInt out;
  for (char c : s) {
    int nib;
    if (c >= '0' && c <= '9') {
      nib = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nib = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      nib = c - 'A' + 10;
    } else if (c == ' ' || c == '\n' || c == '\t') {
      continue;  // Allow whitespace in embedded constants.
    } else {
      return Status::InvalidArgument("non-hex character");
    }
    out = (out << 4) + BigInt(nib);
  }
  return out;
}

BigInt BigInt::FromBytes(const Bytes& be) {
  BigInt out;
  size_t n = be.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    // Byte i from the end goes into limb i/4, shifted by 8*(i%4).
    size_t from_end = n - 1 - i;
    out.limbs_[i / 4] |= static_cast<uint32_t>(be[from_end]) << (8 * (i % 4));
  }
  out.Trim();
  return out;
}

Bytes BigInt::ToBytes() const {
  if (IsZero()) return Bytes{0};
  size_t bytes = (BitLength() + 7) / 8;
  Bytes out(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    uint32_t limb = limbs_[i / 4];
    out[bytes - 1 - i] = static_cast<uint8_t>(limb >> (8 * (i % 4)));
  }
  return out;
}

Result<Bytes> BigInt::ToBytesPadded(size_t n) const {
  Bytes raw = ToBytes();
  if (IsZero()) raw.clear();
  if (raw.size() > n) {
    return Status::InvalidArgument("value does not fit in requested width");
  }
  Bytes out(n, 0);
  std::copy(raw.begin(), raw.end(), out.begin() + static_cast<long>(n - raw.size()));
  return out;
}

std::string BigInt::ToDecimalString() const {
  if (IsZero()) return "0";
  BigInt v = *this;
  v.negative_ = false;
  const BigInt kChunk(1000000000);  // 10^9 per division step.
  std::string out;
  while (!v.IsZero()) {
    BigInt q, r;
    DivModMagnitude(v, kChunk, &q, &r);
    uint64_t part = r.IsZero() ? 0 : r.limbs_[0];
    std::string digits = std::to_string(part);
    if (!q.IsZero()) {
      digits = std::string(9 - digits.size(), '0') + digits;
    }
    out = digits + out;
    v = q;
  }
  if (negative_) out = "-" + out;
  return out;
}

std::string BigInt::ToHexString() const {
  if (IsZero()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  size_t first = out.find_first_not_of('0');
  out = out.substr(first);
  if (negative_) out = "-" + out;
  return out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

Result<int64_t> BigInt::ToInt64() const {
  if (limbs_.size() > 2) return Status::InvalidArgument("does not fit in int64");
  uint64_t mag = 0;
  for (size_t i = limbs_.size(); i-- > 0;) mag = (mag << 32) | limbs_[i];
  if (negative_) {
    if (mag > static_cast<uint64_t>(INT64_MAX) + 1) {
      return Status::InvalidArgument("does not fit in int64");
    }
    return static_cast<int64_t>(~mag + 1);
  }
  if (mag > static_cast<uint64_t>(INT64_MAX)) {
    return Status::InvalidArgument("does not fit in int64");
  }
  return static_cast<int64_t>(mag);
}

Result<uint64_t> BigInt::ToUint64() const {
  if (negative_) return Status::InvalidArgument("negative value");
  if (limbs_.size() > 2) return Status::InvalidArgument("does not fit in uint64");
  uint64_t mag = 0;
  for (size_t i = limbs_.size(); i-- > 0;) mag = (mag << 32) | limbs_[i];
  return mag;
}

int BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(*this, other);
  return negative_ ? -mag : mag;
}

BigInt BigInt::AddMagnitude(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Trim();
  return out;
}

BigInt BigInt::SubMagnitude(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow -
                   (i < b.limbs_.size() ? static_cast<int64_t>(b.limbs_[i]) : 0);
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  if (negative_ == rhs.negative_) {
    BigInt out = AddMagnitude(*this, rhs);
    out.negative_ = negative_ && !out.IsZero();
    return out;
  }
  int cmp = CompareMagnitude(*this, rhs);
  if (cmp == 0) return BigInt();
  if (cmp > 0) {
    BigInt out = SubMagnitude(*this, rhs);
    out.negative_ = negative_ && !out.IsZero();
    return out;
  }
  BigInt out = SubMagnitude(rhs, *this);
  out.negative_ = rhs.negative_ && !out.IsZero();
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const { return *this + (-rhs); }

namespace {
/// Below this limb count, schoolbook beats Karatsuba's bookkeeping.
constexpr size_t kKaratsubaThreshold = 24;
}  // namespace

BigInt BigInt::SchoolbookMul(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::MulMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() < kKaratsubaThreshold ||
      b.limbs_.size() < kKaratsubaThreshold) {
    return SchoolbookMul(a, b);
  }
  // Karatsuba: split both operands at m limbs; three recursive products.
  size_t m = std::min(a.limbs_.size(), b.limbs_.size()) / 2;
  auto split = [m](const BigInt& v, BigInt* lo, BigInt* hi) {
    lo->limbs_.assign(v.limbs_.begin(),
                      v.limbs_.begin() + static_cast<long>(m));
    lo->Trim();
    hi->limbs_.assign(v.limbs_.begin() + static_cast<long>(m),
                      v.limbs_.end());
    hi->Trim();
  };
  BigInt a0, a1, b0, b1;
  split(a, &a0, &a1);
  split(b, &b0, &b1);
  BigInt z0 = MulMagnitude(a0, b0);
  BigInt z2 = MulMagnitude(a1, b1);
  BigInt z1 =
      MulMagnitude(AddMagnitude(a1, a0), AddMagnitude(b1, b0)) - z2 - z0;
  return (z2 << (64 * m)) + (z1 << (32 * m)) + z0;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (IsZero() || rhs.IsZero()) return BigInt();
  BigInt out = MulMagnitude(*this, rhs);
  out.negative_ = (negative_ != rhs.negative_) && !out.IsZero();
  return out;
}

BigInt BigInt::operator<<(size_t bits) const {
  if (IsZero() || bits == 0) return *this;
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::operator>>(size_t bits) const {
  if (IsZero()) return *this;
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

void BigInt::DivModMagnitude(const BigInt& num, const BigInt& den, BigInt* quot,
                             BigInt* rem) {
  // Knuth Algorithm D on 32-bit limbs. den must be nonzero.
  if (CompareMagnitude(num, den) < 0) {
    *quot = BigInt();
    *rem = num;
    rem->negative_ = false;
    return;
  }
  if (den.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    uint64_t d = den.limbs_[0];
    BigInt q;
    q.limbs_.assign(num.limbs_.size(), 0);
    uint64_t r = 0;
    for (size_t i = num.limbs_.size(); i-- > 0;) {
      uint64_t cur = (r << 32) | num.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      r = cur % d;
    }
    q.Trim();
    *quot = q;
    *rem = BigInt(r, true);
    return;
  }

  // Normalize so the top limb of the divisor has its high bit set.
  size_t shift = 0;
  uint32_t top = den.limbs_.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  BigInt u = num;
  u.negative_ = false;
  u = u << shift;
  BigInt v = den;
  v.negative_ = false;
  v = v << shift;

  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // Extra headroom limb u[m+n].

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t kBase = 1ULL << 32;
  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numerator =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = numerator / v.limbs_[n - 1];
    uint64_t rhat = numerator % v.limbs_[n - 1];
    while (qhat >= kBase ||
           qhat * v.limbs_[n - 2] > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v.limbs_[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-and-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u.limbs_[i + j]) -
                  static_cast<int64_t>(p & 0xffffffffu) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u.limbs_[j + n]) -
                static_cast<int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        carry2 = sum >> 32;
      }
      t += static_cast<int64_t>(carry2);
      t &= static_cast<int64_t>(kBase - 1);
    }
    u.limbs_[j + n] = static_cast<uint32_t>(t);
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }
  q.Trim();
  u.limbs_.resize(n);
  u.Trim();
  *quot = q;
  *rem = u >> shift;
}

void BigInt::DivMod(const BigInt& num, const BigInt& den, BigInt* quot,
                    BigInt* rem) {
  BigInt q, r;
  DivModMagnitude(num, den, &q, &r);
  // C semantics: quotient truncates toward zero, remainder follows dividend.
  q.negative_ = (num.negative_ != den.negative_) && !q.IsZero();
  r.negative_ = num.negative_ && !r.IsZero();
  *quot = q;
  *rem = r;
}

BigInt BigInt::operator/(const BigInt& rhs) const {
  BigInt q, r;
  DivMod(*this, rhs, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& rhs) const {
  BigInt q, r;
  DivMod(*this, rhs, &q, &r);
  return r;
}

BigInt BigInt::Mod(const BigInt& m) const {
  BigInt r = *this % m;
  if (r.IsNegative()) r = r + (m.IsNegative() ? -m : m);
  return r;
}

BigInt BigInt::AddMod(const BigInt& rhs, const BigInt& m) const {
  return (*this + rhs).Mod(m);
}

BigInt BigInt::SubMod(const BigInt& rhs, const BigInt& m) const {
  return (*this - rhs).Mod(m);
}

BigInt BigInt::MulMod(const BigInt& rhs, const BigInt& m) const {
  return (*this * rhs).Mod(m);
}

BigInt BigInt::PowMod(const BigInt& e, const BigInt& m) const {
  BigInt base = Mod(m);
  BigInt result(1);
  if (m == BigInt(1)) return BigInt();
  // Fast path: Montgomery exponentiation for odd multi-limb moduli with
  // non-trivial exponents. The per-modulus context is cached process-wide,
  // so repeated exponentiations mod the same value (Paillier n^2, Pedersen
  // p, RSA n) skip the R^2-division setup entirely.
  if (m.IsOdd() && m.limbs_.size() >= 2 && e.BitLength() > 16) {
    auto ctx = MontgomeryContext::Shared(m);
    if (ctx.ok()) return (*ctx)->PowMod(*this, e);
  }
  size_t bits = e.BitLength();
  for (size_t i = bits; i-- > 0;) {
    result = result.MulMod(result, m);
    if (e.Bit(i)) result = result.MulMod(base, m);
  }
  return result;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a, y = b;
  x.negative_ = false;
  y.negative_ = false;
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = y;
    y = r;
  }
  return x;
}

BigInt BigInt::Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt g = Gcd(a, b);
  BigInt out = (a / g) * b;
  out.negative_ = false;
  return out;
}

namespace {

/// n0^{-1} mod 2^64 for odd n0, by Newton iteration: each step doubles the
/// number of correct low bits, so six steps reach 64.
uint64_t Inverse64(uint64_t n0) {
  uint64_t x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  return x;
}

/// `len` little-endian limbs: a -= b (requires a >= b).
void SubLimbs(uint64_t* a, const uint64_t* b, size_t len) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint64_t d = a[i] - b[i];
    const uint64_t out = (a[i] < b[i]) | (d < borrow);
    a[i] = d - borrow;
    borrow = out;
  }
}

/// `len` limbs: a += b (the caller guarantees no carry out).
void AddLimbs(uint64_t* a, const uint64_t* b, size_t len) {
  uint64_t carry = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint64_t t = a[i] + carry;
    carry = t < carry;
    a[i] = t + b[i];
    carry += a[i] < b[i];
  }
}

/// Strips the trailing zeros of the nonzero `len`-limb value a; returns
/// how many there were.
size_t StripTwos(uint64_t* a, size_t len) {
  size_t words = 0;
  while (a[words] == 0) ++words;
  const unsigned bits = static_cast<unsigned>(__builtin_ctzll(a[words]));
  if (words > 0) {
    for (size_t i = 0; i + words < len; ++i) a[i] = a[i + words];
    for (size_t i = len - words; i < len; ++i) a[i] = 0;
  }
  if (bits > 0) {
    for (size_t i = 0; i + 1 < len; ++i) {
      a[i] = (a[i] >> bits) | (a[i + 1] << (64 - bits));
    }
    a[len - 1] >>= bits;
  }
  return 64 * words + bits;
}

/// `len` limbs: a <<= t (the caller guarantees no bit is shifted out).
void ShiftLeftLimbs(uint64_t* a, size_t len, size_t t) {
  const size_t words = t / 64;
  const unsigned bits = static_cast<unsigned>(t % 64);
  if (words > 0) {
    for (size_t i = len; i-- > words;) a[i] = a[i - words];
    for (size_t i = 0; i < words; ++i) a[i] = 0;
  }
  if (bits > 0) {
    for (size_t i = len; i-- > 1;) {
      a[i] = (a[i] << bits) | (a[i - 1] >> (64 - bits));
    }
    a[0] <<= bits;
  }
}

/// a^{-1} mod m for odd m > 1 and 0 < a < m, on k-limb little-endian
/// arrays; writes it to `x` and returns false when gcd(a, m) != 1.
///
/// Binary extended gcd with deferred halving (Kaliski's almost-inverse):
/// with u = m, v = a, r = 0, s = 1 it keeps u*s + v*r = m exactly, and
/// a*r = -u*2^K, a*s = v*2^K (mod m). A step strips a whole run of twos
/// from u (doubling s as often) or from v (doubling r), or subtracts the
/// smaller of the odd u, v from the larger and adds r and s the same way.
/// The equality bounds r and s by m, so no step reduces mod m; at the end
/// u = gcd = 1 and a^{-1} = -r * 2^-K, which costs K/63 word-sized
/// Montgomery halvings. u and v shrink from the top as they go.
bool InvModOddLimbs(const uint64_t* a, const uint64_t* m, size_t k,
                    uint64_t* x) {
  std::vector<uint64_t> scratch(4 * k, 0);
  uint64_t* u = scratch.data();
  uint64_t* v = u + k;
  uint64_t* r = v + k;
  uint64_t* s = r + k;
  std::copy(m, m + k, u);
  std::copy(a, a + k, v);
  s[0] = 1;
  size_t shifts = StripTwos(v, k);  // r = 0 absorbs the doublings.
  size_t len = k;
  for (;;) {
    while (len > 1 && u[len - 1] == 0 && v[len - 1] == 0) --len;
    size_t top = len - 1;
    while (top > 0 && u[top] == v[top]) --top;
    if (u[top] == v[top]) break;  // u == v: the gcd.
    if (u[top] > v[top]) {
      SubLimbs(u, v, len);
      AddLimbs(r, s, k);
      const size_t t = StripTwos(u, len);
      ShiftLeftLimbs(s, k, t);
      shifts += t;
    } else {
      SubLimbs(v, u, len);
      AddLimbs(s, r, k);
      const size_t t = StripTwos(v, len);
      ShiftLeftLimbs(r, k, t);
      shifts += t;
    }
  }
  if (u[0] != 1) return false;
  for (size_t i = 1; i < len; ++i) {
    if (u[i] != 0) return false;
  }
  // x = -r mod m, then x * 2^-shifts: each round adds the multiple q*m
  // that clears the low `w` bits and shifts them out. x < m and q < 2^w
  // keep x + q*m below 2^w * m, so x stays below m with no subtraction.
  std::copy(m, m + k, x);
  SubLimbs(x, r, k);
  const uint64_t neg_minv = ~Inverse64(m[0]) + 1;
  uint64_t* t = u;  // k + 1 limbs over u and v, which are done.
  while (shifts > 0) {
    const unsigned w = static_cast<unsigned>(std::min<size_t>(shifts, 63));
    const uint64_t mask = (uint64_t{1} << w) - 1;
    const uint64_t q = PREVER_MUTATION(INVMOD_HALVE_WITHOUT_MODULUS,
                                       (x[0] * neg_minv) & mask, 0);
    unsigned __int128 carry = 0;
    for (size_t i = 0; i < k; ++i) {
      const unsigned __int128 cur =
          x[i] + static_cast<unsigned __int128>(q) * m[i] + carry;
      t[i] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    t[k] = static_cast<uint64_t>(carry);
    for (size_t i = 0; i < k; ++i) {
      x[i] = (t[i] >> w) | (t[i + 1] << (64 - w));
    }
    shifts -= w;
  }
  return true;
}

/// 64-bit limbs of |v|, zero-padded to k.
std::vector<uint64_t> PackLimbs64(const std::vector<uint32_t>& v, size_t k) {
  std::vector<uint64_t> out(k, 0);
  for (size_t i = 0; i < v.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(v[i]) << (32 * (i % 2));
  }
  return out;
}

/// a^{-1} mod m for an odd m > 1 and 0 < a < m.
Result<BigInt> InvModOdd(const BigInt& a, const BigInt& m) {
  const size_t k = (m.Limbs().size() + 1) / 2;
  const std::vector<uint64_t> a64 = PackLimbs64(a.Limbs(), k);
  const std::vector<uint64_t> m64 = PackLimbs64(m.Limbs(), k);
  std::vector<uint64_t> x64(k);
  if (!InvModOddLimbs(a64.data(), m64.data(), k, x64.data())) {
    return Status::InvalidArgument("no inverse: gcd != 1");
  }
  std::vector<uint32_t> x32(2 * k);
  for (size_t i = 0; i < k; ++i) {
    x32[2 * i] = static_cast<uint32_t>(x64[i]);
    x32[2 * i + 1] = static_cast<uint32_t>(x64[i] >> 32);
  }
  return BigInt::FromLimbs(std::move(x32));
}

}  // namespace

Result<BigInt> BigInt::InvMod(const BigInt& m) const {
  if (m.IsNegative() || m.IsZero()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  BigInt a = Mod(m);
  if (a.IsZero()) return Status::InvalidArgument("no inverse: zero");
  if (m.IsOdd()) return InvModOdd(a, m);
  // Even m (e^{-1} mod phi(n) at RSA keygen): a must be odd, and the roles
  // swap. With y = m^{-1} mod a, m*y = 1 + a*j for some j, so
  // x = (1 + m*(a - y)) / a is an exact quotient in [1, m) with a*x = 1
  // (mod m).
  if (a.IsEven()) return Status::InvalidArgument("no inverse: gcd != 1");
  if (a == BigInt(1)) return a;
  BigInt m_mod_a = m.Mod(a);
  if (m_mod_a.IsZero()) return Status::InvalidArgument("no inverse: gcd != 1");
  PREVER_ASSIGN_OR_RETURN(BigInt y, InvModOdd(m_mod_a, a));
  return (BigInt(1) + m * (a - y)) / a;
}

namespace bigint_internal {

Result<BigInt> InvModEuclid(const BigInt& value, const BigInt& m) {
  // Extended Euclid on (value mod m, m).
  BigInt a = value.Mod(m);
  if (a.IsZero()) return Status::InvalidArgument("no inverse: zero");
  BigInt r0 = m, r1 = a;
  BigInt t0(0), t1(1);
  while (!r1.IsZero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    r0 = r1;
    r1 = r2;
    BigInt t2 = t0 - q * t1;
    t0 = t1;
    t1 = t2;
  }
  if (r0 != BigInt(1)) {
    return Status::InvalidArgument("no inverse: gcd != 1");
  }
  return t0.Mod(m);
}

}  // namespace bigint_internal

}  // namespace prever::crypto
