#include "crypto/montgomery.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

namespace prever::crypto {

namespace {

/// -n0^{-1} mod 2^64 by Newton iteration (n0 odd). Each iteration doubles
/// the number of correct low bits: 6 iterations reach 64 bits.
uint64_t NegInverse64(uint64_t n0) {
  uint64_t x = 1;
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  return ~x + 1;  // -x mod 2^64.
}

/// Sliding-window width for an exponent of `bits` bits: the usual
/// precompute-vs-savings balance (2^(w-1) table entries against ~bits/(w+1)
/// saved multiplications).
size_t WindowBits(size_t bits) {
  if (bits >= 512) return 5;
  if (bits >= 128) return 4;
  if (bits >= 24) return 3;
  if (bits >= 8) return 2;
  return 1;
}

/// Jacobi symbol (a / n) for odd n; `a` and `n` are `len`-limb
/// little-endian scratch arrays (both clobbered). Binary algorithm: strip
/// the twos from a (an odd count flips the sign when n = 3, 5 mod 8), swap
/// so that a >= n (reciprocity flips it when both are 3 mod 4), subtract.
/// The limb count shrinks with the operands; the last limb runs on scalars.
int JacobiLimbs(uint64_t* a, uint64_t* n, size_t len) {
  int sign = 1;
  auto flip_for_twos = [&sign](size_t twos, uint64_t n0) {
    if ((twos & 1) && ((n0 & 7) == 3 || (n0 & 7) == 5)) sign = -sign;
  };
  while (len > 1) {
    if (a[len - 1] == 0 && n[len - 1] == 0) {
      --len;
      continue;
    }
    size_t words = 0;
    while (words < len && a[words] == 0) ++words;
    if (words == len) return 0;  // a == 0 and n > 1: not coprime.
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
    flip_for_twos(64 * words + bits, n[0]);
    // a and n are both odd now; make a the larger.
    size_t top = len - 1;
    while (top > 0 && a[top] == n[top]) --top;
    if (a[top] < n[top]) {
      std::swap(a, n);
      if ((a[0] & n[0] & 3) == 3) sign = -sign;
    }
    uint64_t borrow = 0;
    for (size_t i = 0; i < len; ++i) {
      const uint64_t d = a[i] - n[i];
      const uint64_t b = (a[i] < n[i]) | (d < borrow);
      a[i] = d - borrow;
      borrow = b;
    }
  }
  uint64_t x = a[0], y = n[0];
  while (x != 0) {
    const unsigned twos = static_cast<unsigned>(__builtin_ctzll(x));
    x >>= twos;
    flip_for_twos(twos, y);
    if (x < y) {
      std::swap(x, y);
      if ((x & y & 3) == 3) sign = -sign;
    }
    x -= y;
  }
  return y == 1 ? sign : 0;
}

/// CIOS (coarsely integrated operand scanning), Koç et al., on k 64-bit
/// limbs with 128-bit accumulation: t[0..k) = a * b * 2^(-64k) mod n, with
/// t of k + 2 limbs. K != 0 fixes k = K at compile time, so the loops
/// unroll; K == 0 takes k at run time.
template <size_t K>
void Cios(const uint64_t* a, const uint64_t* b, const uint64_t* n,
          uint64_t n_prime, size_t runtime_k, uint64_t* t) {
  const size_t k = K != 0 ? K : runtime_k;
  for (size_t j = 0; j < k + 2; ++j) t[j] = 0;
  for (size_t i = 0; i < k; ++i) {
    // t += a[i] * b.
    unsigned __int128 carry = 0;
    const uint64_t ai = a[i];
    for (size_t j = 0; j < k; ++j) {
      unsigned __int128 cur =
          t[j] + static_cast<unsigned __int128>(ai) * b[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    unsigned __int128 cur = t[k] + carry;
    t[k] = static_cast<uint64_t>(cur);
    t[k + 1] = static_cast<uint64_t>(cur >> 64);

    // Eliminate the lowest limb: m = t[0] * n' mod 2^64; t = (t + m*n)/2^64.
    const uint64_t m = t[0] * n_prime;
    cur = t[0] + static_cast<unsigned __int128>(m) * n[0];
    carry = cur >> 64;
    for (size_t j = 1; j < k; ++j) {
      cur = t[j] + static_cast<unsigned __int128>(m) * n[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    cur = static_cast<unsigned __int128>(t[k]) + carry;
    t[k - 1] = static_cast<uint64_t>(cur);
    t[k] = t[k + 1] + static_cast<uint64_t>(cur >> 64);
    t[k + 1] = 0;
  }
  // Conditional subtraction: result may be in [0, 2n).
  bool ge = t[k] != 0;
  if (!ge) {
    ge = true;
    for (size_t j = k; j-- > 0;) {
      if (t[j] != n[j]) {
        ge = t[j] > n[j];
        break;
      }
    }
  }
  if (ge) {
    unsigned __int128 borrow = 0;
    for (size_t j = 0; j < k; ++j) {
      unsigned __int128 diff =
          static_cast<unsigned __int128>(t[j]) - n[j] - borrow;
      t[j] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  }
}

}  // namespace

Result<MontgomeryContext> MontgomeryContext::Create(const BigInt& modulus) {
  if (modulus.IsNegative() || modulus.IsEven() || modulus <= BigInt(1)) {
    return Status::InvalidArgument("Montgomery modulus must be odd and > 1");
  }
  MontgomeryContext ctx;
  ctx.n_ = modulus;
  const std::vector<uint32_t>& limbs32 = modulus.Limbs();
  ctx.k_ = (limbs32.size() + 1) / 2;
  ctx.n64_.assign(ctx.k_, 0);
  for (size_t i = 0; i < limbs32.size(); ++i) {
    ctx.n64_[i / 2] |= static_cast<uint64_t>(limbs32[i]) << (32 * (i % 2));
  }
  ctx.n_prime_ = NegInverse64(ctx.n64_[0]);
  // R = 2^(64k); R^2 mod n and R mod n via one-time divisions.
  ctx.r2_ = ctx.Pack((BigInt(1) << (128 * ctx.k_)).Mod(modulus));
  ctx.one_ = ctx.Pack((BigInt(1) << (64 * ctx.k_)).Mod(modulus));
  ctx.unit_.assign(ctx.k_, 0);
  ctx.unit_[0] = 1;
  return ctx;
}

Result<std::shared_ptr<const MontgomeryContext>> MontgomeryContext::Shared(
    const BigInt& modulus) {
  static std::mutex mu;
  static auto* cache =
      new std::map<std::vector<uint32_t>,
                   std::shared_ptr<const MontgomeryContext>>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache->find(modulus.Limbs());
    if (it != cache->end()) return it->second;
  }
  // Build outside the lock: construction costs a division and may race with
  // other threads building the same context, in which case last-in wins
  // (both are equivalent immutable values).
  PREVER_ASSIGN_OR_RETURN(MontgomeryContext ctx, Create(modulus));
  auto shared = std::make_shared<const MontgomeryContext>(std::move(ctx));
  std::lock_guard<std::mutex> lock(mu);
  // Transient moduli (e.g. Miller–Rabin candidates during keygen) would
  // otherwise grow the cache without bound; a flush is cheap because live
  // users hold shared_ptrs.
  if (cache->size() >= 256) cache->clear();
  (*cache)[modulus.Limbs()] = shared;
  return shared;
}

MontgomeryContext::Limbs MontgomeryContext::Pack(const BigInt& v) const {
  const std::vector<uint32_t>& limbs32 = v.Limbs();
  Limbs out(k_, 0);
  for (size_t i = 0; i < limbs32.size() && i / 2 < k_; ++i) {
    out[i / 2] |= static_cast<uint64_t>(limbs32[i]) << (32 * (i % 2));
  }
  return out;
}

BigInt MontgomeryContext::Unpack(const Limbs& v) const {
  std::vector<uint32_t> limbs32(v.size() * 2);
  for (size_t i = 0; i < v.size(); ++i) {
    limbs32[2 * i] = static_cast<uint32_t>(v[i]);
    limbs32[2 * i + 1] = static_cast<uint32_t>(v[i] >> 32);
  }
  return BigInt::FromLimbs(std::move(limbs32));
}

void MontgomeryContext::MontMulRaw(const uint64_t* a, const uint64_t* b,
                                   uint64_t* t) const {
  // Fixed-width kernels for the widths the engines run most: 256-bit
  // Pedersen groups and RSA-CRT halves (4 limbs), 512-bit RSA and
  // Paillier moduli (8 limbs).
  switch (k_) {
    case 4:
      return Cios<4>(a, b, n64_.data(), n_prime_, k_, t);
    case 8:
      return Cios<8>(a, b, n64_.data(), n_prime_, k_, t);
    default:
      return Cios<0>(a, b, n64_.data(), n_prime_, k_, t);
  }
}

void MontgomeryContext::MulMontLimbs(const Limbs& a, const Limbs& b,
                                     Limbs* out) const {
  // Thread-local scratch: the kernel runs tens of thousands of times per
  // engine operation, so a malloc per product would rival the multiply
  // itself. Writing through scratch also makes aliasing (`out` == `a`/`b`)
  // safe.
  static thread_local Limbs scratch;
  scratch.resize(k_ + 2);
  MontMulRaw(a.data(), b.data(), scratch.data());
  out->assign(scratch.begin(), scratch.begin() + k_);
}

MontgomeryContext::Limbs MontgomeryContext::PackMont(const BigInt& a) const {
  Limbs out;
  MulMontLimbs(Pack(a), r2_, &out);
  return out;
}

BigInt MontgomeryContext::UnpackMont(const Limbs& a) const {
  Limbs out;
  MulMontLimbs(a, unit_, &out);
  return Unpack(out);
}

MontgomeryContext::Limbs MontgomeryContext::OneMont() const { return one_; }

BigInt MontgomeryContext::MulMont(const BigInt& a_mont,
                                  const BigInt& b_mont) const {
  Limbs out;
  MulMontLimbs(Pack(a_mont), Pack(b_mont), &out);
  return Unpack(out);
}

BigInt MontgomeryContext::ToMontgomery(const BigInt& a) const {
  return Unpack(PackMont(a));
}

BigInt MontgomeryContext::FromMontgomery(const BigInt& a_mont) const {
  return UnpackMont(Pack(a_mont));
}

MontgomeryContext::Limbs MontgomeryContext::PowMont(const Limbs& base_mont,
                                                    const BigInt& exp) const {
  const size_t bits = exp.BitLength();
  if (bits == 0) return one_;

  // Sliding window over precomputed odd powers base^1, base^3, ...,
  // base^(2^w - 1), flattened: power 2j + 1 starts at limb j * k_.
  const size_t w = WindowBits(bits);
  const size_t entries = size_t{1} << (w - 1);
  std::vector<uint64_t> odd(entries * k_);
  std::copy(base_mont.begin(), base_mont.end(), odd.begin());
  Limbs scratch(k_ + 2);
  uint64_t* t = scratch.data();
  if (entries > 1) {
    MontMulRaw(odd.data(), odd.data(), t);
    const Limbs sq(t, t + k_);
    for (size_t j = 1; j < entries; ++j) {
      MontMulRaw(&odd[(j - 1) * k_], sq.data(), t);
      std::copy(t, t + k_, &odd[j * k_]);
    }
  }

  Limbs acc = one_;
  auto square = [&] {
    MontMulRaw(acc.data(), acc.data(), t);
    std::copy(t, t + k_, acc.begin());
  };
  auto mul_by = [&](const uint64_t* v) {
    MontMulRaw(acc.data(), v, t);
    std::copy(t, t + k_, acc.begin());
  };
  // Bits straight off the limbs: every exponent bit is read about twice.
  const std::vector<uint32_t>& limbs = exp.Limbs();
  auto bit = [&limbs](size_t b) { return (limbs[b / 32] >> (b % 32)) & 1; };

  size_t i = bits;
  while (i > 0) {
    if (!bit(i - 1)) {
      square();
      --i;
      continue;
    }
    // Greedy window [l, i): starts at a set bit, ends at a set bit.
    size_t l = i >= w ? i - w : 0;
    while (!bit(l)) ++l;
    uint64_t digit = 0;
    for (size_t j = i; j-- > l;) digit = (digit << 1) | bit(j);
    for (size_t j = 0; j < i - l; ++j) square();
    mul_by(&odd[((digit - 1) >> 1) * k_]);
    i = l;
  }
  return acc;
}

MontgomeryContext::Limbs MontgomeryContext::MultiPowMont(
    const std::vector<Limbs>& bases_mont,
    const std::vector<BigInt>& exps) const {
  const size_t count = bases_mont.size();
  // Odd powers base^1, base^3, ..., base^(2^w - 1) of every base, flattened:
  // base j's table starts at residue first[j].
  std::vector<size_t> first(count + 1, 0);
  size_t top = 0;
  for (size_t j = 0; j < count; ++j) {
    const size_t bits = exps[j].BitLength();
    top = std::max(top, bits);
    first[j + 1] =
        first[j] + (bits == 0 ? 0 : size_t{1} << (WindowBits(bits) - 1));
  }
  if (top == 0) return one_;
  std::vector<uint64_t> odd(first[count] * k_);
  Limbs scratch(k_ + 2);
  uint64_t* t = scratch.data();
  Limbs sq(k_);
  for (size_t j = 0; j < count; ++j) {
    if (first[j + 1] == first[j]) continue;
    uint64_t* table = &odd[first[j] * k_];
    std::copy(bases_mont[j].begin(), bases_mont[j].end(), table);
    if (first[j + 1] - first[j] == 1) continue;
    MontMulRaw(table, table, t);
    std::copy(t, t + k_, sq.begin());
    for (size_t i = 1; i < first[j + 1] - first[j]; ++i) {
      MontMulRaw(table + (i - 1) * k_, sq.data(), t);
      std::copy(t, t + k_, table + i * k_);
    }
  }

  // Greedy sliding windows of every exponent (as in PowMont), threaded into
  // per-bit-position lists keyed by each window's lowest bit: the product
  // by base^digit happens when the shared chain reaches that bit.
  struct Window {
    size_t entry;  ///< Residue index into `odd`.
    size_t next;   ///< Next window ending at the same bit, or kNone.
  };
  constexpr size_t kNone = ~size_t{0};
  std::vector<size_t> head(top, kNone);
  std::vector<Window> windows;
  for (size_t j = 0; j < count; ++j) {
    // Bits straight off the limbs: every exponent bit is read about twice.
    const std::vector<uint32_t>& limbs = exps[j].Limbs();
    auto bit = [&limbs](size_t b) { return (limbs[b / 32] >> (b % 32)) & 1; };
    const size_t bits = exps[j].BitLength();
    const size_t w = bits == 0 ? 0 : WindowBits(bits);
    size_t i = bits;
    while (i > 0) {
      if (!bit(i - 1)) {
        --i;
        continue;
      }
      size_t l = i >= w ? i - w : 0;
      while (!bit(l)) ++l;
      uint64_t digit = 0;
      for (size_t b = i; b-- > l;) digit = (digit << 1) | bit(b);
      windows.push_back({first[j] + ((digit - 1) >> 1), head[l]});
      head[l] = windows.size() - 1;
      i = l;
    }
  }

  Limbs acc(k_);
  bool started = false;
  for (size_t pos = top; pos-- > 0;) {
    if (started) {
      MontMulRaw(acc.data(), acc.data(), t);
      std::copy(t, t + k_, acc.begin());
    }
    for (size_t wi = head[pos]; wi != kNone; wi = windows[wi].next) {
      const uint64_t* v = &odd[windows[wi].entry * k_];
      if (!started) {
        std::copy(v, v + k_, acc.begin());
        started = true;
        continue;
      }
      MontMulRaw(acc.data(), v, t);
      std::copy(t, t + k_, acc.begin());
    }
  }
  return acc;
}

int MontgomeryContext::Jacobi(const Limbs& a) const {
  Limbs scratch(2 * k_, 0);
  std::copy(a.begin(), a.begin() + std::min(a.size(), k_), scratch.begin());
  std::copy(n64_.begin(), n64_.end(), scratch.begin() + k_);
  return JacobiLimbs(scratch.data(), scratch.data() + k_, k_);
}

BigInt MontgomeryContext::PowMod(const BigInt& base, const BigInt& exp) const {
  return UnpackMont(PowMont(PackMont(base.Mod(n_)), exp));
}

FixedBaseTable::FixedBaseTable(std::shared_ptr<const MontgomeryContext> ctx,
                               const BigInt& base, size_t max_exp_bits,
                               size_t window_bits)
    : ctx_(std::move(ctx)),
      base_(base.Mod(ctx_->modulus())),
      window_bits_(window_bits == 0 ? 1 : window_bits),
      max_exp_bits_(max_exp_bits == 0 ? 1 : max_exp_bits) {
  windows_ = (max_exp_bits_ + window_bits_ - 1) / window_bits_;
  const size_t digits = (size_t{1} << window_bits_) - 1;
  table_.resize(windows_ * digits);
  // Entry (i, d) = base^(d * 2^(w*i)): within a window the entries are a
  // multiplication chain by `stride` = base^(2^(w*i)); the next window's
  // stride is this window's last entry times `stride` once more.
  MontgomeryContext::Limbs stride = ctx_->PackMont(base_);
  for (size_t i = 0; i < windows_; ++i) {
    table_[i * digits] = stride;
    for (size_t d = 1; d < digits; ++d) {
      ctx_->MulMontLimbs(table_[i * digits + d - 1], stride,
                         &table_[i * digits + d]);
    }
    if (i + 1 < windows_) {
      ctx_->MulMontLimbs(table_[i * digits + digits - 1], stride, &stride);
    }
  }
}

MontgomeryContext::Limbs FixedBaseTable::PowMont(const BigInt& exp) const {
  const size_t bits = exp.BitLength();
  if (bits == 0) return ctx_->OneMont();
  if (exp.IsNegative() || bits > max_exp_bits_) {
    // Out of the table's domain: generic path.
    return ctx_->PowMont(ctx_->PackMont(base_), exp);
  }
  const size_t digits = (size_t{1} << window_bits_) - 1;
  MontgomeryContext::Limbs acc = ctx_->OneMont();
  const size_t used_windows = (bits + window_bits_ - 1) / window_bits_;
  // Bits straight off the limbs, as in MontgomeryContext::PowMont.
  const std::vector<uint32_t>& limbs = exp.Limbs();
  auto bit = [&limbs](size_t b) { return (limbs[b / 32] >> (b % 32)) & 1; };
  for (size_t i = 0; i < used_windows; ++i) {
    uint64_t d = 0;
    const size_t top = std::min(bits, (i + 1) * window_bits_);
    for (size_t b = top; b-- > i * window_bits_;) d = (d << 1) | bit(b);
    if (d != 0) {
      ctx_->MulMontLimbs(acc, table_[i * digits + (d - 1)], &acc);
    }
  }
  return acc;
}

BigInt FixedBaseTable::PowMod(const BigInt& exp) const {
  return ctx_->UnpackMont(PowMont(exp));
}

}  // namespace prever::crypto
