// E3 — per-constraint verification cost by privacy mechanism (DESIGN.md
// §3). Paper anchor (§4, RC1): privacy-preserving techniques "have
// considerable overhead" — this bench quantifies the overhead of each
// mechanism PReVer composes, on the same logical check (a bounded
// aggregate).
//
// Expected shape, per verification:
//   plaintext eval  ~ microseconds (scan-bound)
//   MPC comparison  ~ tens of microseconds (bit circuit) + rounds
//   token spend     ~ RSA verify per unit
//   ZK range proof  ~ milliseconds (bit commitments, grows with bits)
//   Paillier path   ~ milliseconds (modular exponentiations)

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "constraint/eval.h"
#include "constraint/parser.h"
#include "constraint/verifier.h"
#include "core/prever.h"
#include "crypto/bigint_internal.h"
#include "crypto/montgomery.h"
#include "crypto/rsa_internal.h"
#include "crypto/zkp_internal.h"
#include "mpc/compare.h"

namespace {

using namespace prever;

// --------------------------------------------------------------- Plaintext

void BM_PlaintextEval(benchmark::State& state) {
  int64_t rows = state.range(0);
  storage::Database db;
  storage::Schema schema({{"id", storage::ValueType::kString},
                          {"worker", storage::ValueType::kString},
                          {"hours", storage::ValueType::kInt64},
                          {"at", storage::ValueType::kTimestamp}});
  (void)db.CreateTable("worklog", schema);
  auto* table = *db.GetMutableTable("worklog");
  for (int64_t i = 0; i < rows; ++i) {
    (void)table->Insert({storage::Value::String("t" + std::to_string(i)),
                         storage::Value::String("w" + std::to_string(i % 10)),
                         storage::Value::Int64(1),
                         storage::Value::Timestamp(i * kMinute)});
  }
  auto expr = constraint::ParseConstraint(
      "SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) + "
      "update.hours <= 1000000");
  constraint::UpdateFields fields = {
      {"worker", storage::Value::String("w3")},
      {"hours", storage::Value::Int64(2)}};
  constraint::EvalContext ctx{&db, &fields, rows * kMinute};
  obs::Histogram* op = benchutil::OpHistogram("e3", "plaintext_eval");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    auto ok = constraint::EvaluateBool(**expr, ctx);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_PlaintextEval)->Arg(64)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// -------------------------------------- compiled + incremental aggregate

// The same bounded-aggregate check as BM_PlaintextEval, verified through
// the compiled path: bytecode top-level program plus an incrementally
// maintained windowed aggregate. Each iteration is one verify-and-commit
// cycle — the commit flows through the verifier's observer, so the cache's
// O(1) delta path (not a rebuild) carries the steady state, vs the
// interpreter's O(rows) rescan above. The counters prove which path ran:
// agg_rebuilds must stay O(1) while iterations climb into the thousands.
void BM_CompiledVerifyCommit(benchmark::State& state) {
  int64_t rows = state.range(0);
  storage::Database db;
  storage::Schema schema({{"id", storage::ValueType::kString},
                          {"worker", storage::ValueType::kString},
                          {"hours", storage::ValueType::kInt64},
                          {"at", storage::ValueType::kTimestamp}});
  (void)db.CreateTable("worklog", schema);
  constraint::ConstraintCatalog catalog;
  (void)catalog.Add("cap", constraint::ConstraintScope::kInternal,
                    constraint::ConstraintVisibility::kPublic,
                    "SUM(worklog.hours WHERE worker = update.worker "
                    "WINDOW 7d) + update.hours <= 1000000000");
  constraint::CompiledVerifier verifier(catalog, db);
  auto insert = [&db](int64_t i) {
    storage::Mutation m;
    m.op = storage::Mutation::Op::kInsert;
    m.table = "worklog";
    m.row = {storage::Value::String("t" + std::to_string(i)),
             storage::Value::String("w" + std::to_string(i % 10)),
             storage::Value::Int64(1),
             storage::Value::Timestamp(static_cast<SimTime>(i) * kMinute)};
    (void)db.Apply(m);
  };
  for (int64_t i = 0; i < rows; ++i) insert(i);
  constraint::UpdateFields fields = {
      {"worker", storage::Value::String("w3")},
      {"hours", storage::Value::Int64(2)}};
  int64_t next = rows;
  obs::Histogram* op = benchutil::OpHistogram("e3", "compiled_verify_commit");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    constraint::EvalContext ctx{&db, &fields,
                                static_cast<SimTime>(next) * kMinute};
    Status ok = verifier.VerifyAll(ctx);
    benchmark::DoNotOptimize(ok);
    insert(next++);
  }
  auto stats = verifier.stats();
  state.counters["verifies/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["agg_cache_hits"] =
      static_cast<double>(stats.agg.cache_hits);
  state.counters["agg_rebuilds"] =
      static_cast<double>(stats.agg.cache_builds);
  state.counters["agg_delta_applies"] =
      static_cast<double>(stats.agg.delta_applies);
  state.counters["agg_scan_evals"] = static_cast<double>(stats.agg.scan_evals);
  state.counters["compiled"] =
      static_cast<double>(stats.compiled_constraints);
}
BENCHMARK(BM_CompiledVerifyCommit)->Arg(64)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// Pure read steady state: verifies with no interleaved commits and a fixed
// `now`, so after the first call every verification rides the shared-lock
// fast path (TryReadEvaluate under std::shared_mutex) — the concurrent-
// reader throughput ceiling.
void BM_CompiledVerifySteady(benchmark::State& state) {
  int64_t rows = state.range(0);
  storage::Database db;
  storage::Schema schema({{"id", storage::ValueType::kString},
                          {"worker", storage::ValueType::kString},
                          {"hours", storage::ValueType::kInt64},
                          {"at", storage::ValueType::kTimestamp}});
  (void)db.CreateTable("worklog", schema);
  constraint::ConstraintCatalog catalog;
  (void)catalog.Add("cap", constraint::ConstraintScope::kInternal,
                    constraint::ConstraintVisibility::kPublic,
                    "SUM(worklog.hours WHERE worker = update.worker "
                    "WINDOW 7d) + update.hours <= 1000000000");
  constraint::CompiledVerifier verifier(catalog, db);
  for (int64_t i = 0; i < rows; ++i) {
    storage::Mutation m;
    m.op = storage::Mutation::Op::kInsert;
    m.table = "worklog";
    m.row = {storage::Value::String("t" + std::to_string(i)),
             storage::Value::String("w" + std::to_string(i % 10)),
             storage::Value::Int64(1),
             storage::Value::Timestamp(static_cast<SimTime>(i) * kMinute)};
    (void)db.Apply(m);
  }
  constraint::UpdateFields fields = {
      {"worker", storage::Value::String("w3")},
      {"hours", storage::Value::Int64(2)}};
  constraint::EvalContext ctx{&db, &fields,
                              static_cast<SimTime>(rows) * kMinute};
  (void)verifier.VerifyAll(ctx);  // Warm: build cache, park the cursor.
  obs::Histogram* op = benchutil::OpHistogram("e3", "compiled_verify_steady");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    Status ok = verifier.VerifyAll(ctx);
    benchmark::DoNotOptimize(ok);
  }
  auto stats = verifier.stats();
  state.counters["verifies/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["fast_path"] =
      static_cast<double>(stats.fast_path_verifies);
}
BENCHMARK(BM_CompiledVerifySteady)->Arg(64)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

// --------------------------------------------------------------------- MPC

void BM_MpcCompare(benchmark::State& state) {
  size_t parties = static_cast<size_t>(state.range(0));
  size_t bits = static_cast<size_t>(state.range(1));
  Rng dealer(7);
  std::vector<uint64_t> inputs(parties, 10);
  mpc::MpcTranscript transcript;
  obs::Histogram* op = benchutil::OpHistogram("e3", "mpc_compare");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    auto r = mpc::SecureComparison::SumLessEqual(inputs, 1000, bits, dealer,
                                                 &transcript);
    benchmark::DoNotOptimize(r);
  }
  state.counters["rounds/op"] = static_cast<double>(transcript.rounds) /
                                static_cast<double>(state.iterations());
  state.counters["bytes/op"] = static_cast<double>(transcript.bytes) /
                               static_cast<double>(state.iterations());
}
BENCHMARK(BM_MpcCompare)
    ->Args({2, 16})->Args({3, 16})->Args({5, 16})
    ->Args({3, 32})->Args({3, 48})
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------------- Token

void BM_TokenWithdrawSpend(benchmark::State& state) {
  token::TokenAuthority authority(512, 1u << 30, kWeek, 3);
  ledger::LedgerDb ledger;
  token::TokenVerifier verifier(authority.public_key());
  token::TokenWallet wallet(authority.public_key(), 5);
  obs::Histogram* op = benchutil::OpHistogram("e3", "token_withdraw_spend");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    (void)wallet.Withdraw(authority, "w", 1, 0);
    auto t = wallet.Take();
    Status s = verifier.Spend(*t, ledger, 0);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_TokenWithdrawSpend)->Unit(benchmark::kMillisecond)
    ->Iterations(50);

void BM_TokenSpendOnly(benchmark::State& state) {
  token::TokenAuthority authority(512, 1u << 30, kWeek, 3);
  ledger::LedgerDb ledger;
  token::TokenVerifier verifier(authority.public_key());
  token::TokenWallet wallet(authority.public_key(), 5);
  (void)wallet.Withdraw(authority, "w", 2000, 0);
  for (auto _ : state) {
    auto t = wallet.Take();
    if (!t.ok()) {
      state.SkipWithError("wallet drained");
      break;
    }
    Status s = verifier.Spend(*t, ledger, 0);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_TokenSpendOnly)->Unit(benchmark::kMicrosecond)
    ->Iterations(1000);

// ---------------------------------------------------------------------- ZK

void BM_ZkUpperBoundProve(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  const auto& params = crypto::PedersenParams::Test256();
  crypto::Drbg drbg(uint64_t{9});
  auto opening = crypto::PedersenCommitFresh(params, crypto::BigInt(38), drbg);
  obs::Histogram* op = benchutil::OpHistogram("e3", "zk_prove");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    auto proof = crypto::ProveUpperBound(params, opening.commitment,
                                         crypto::BigInt(38),
                                         opening.randomness,
                                         crypto::BigInt(40), bits, drbg);
    benchmark::DoNotOptimize(proof);
  }
}
BENCHMARK(BM_ZkUpperBoundProve)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(20);

void BM_ZkUpperBoundVerify(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  const auto& params = crypto::PedersenParams::Test256();
  crypto::Drbg drbg(uint64_t{9});
  auto opening = crypto::PedersenCommitFresh(params, crypto::BigInt(38), drbg);
  auto proof = crypto::ProveUpperBound(params, opening.commitment,
                                       crypto::BigInt(38), opening.randomness,
                                       crypto::BigInt(40), bits, drbg);
  obs::Histogram* op = benchutil::OpHistogram("e3", "zk_verify");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    bool ok = crypto::VerifyUpperBound(params, opening.commitment, *proof,
                                       crypto::BigInt(40), bits);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ZkUpperBoundVerify)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(20);

// Range-proof verification alone, batched against the per-bit oracle. The
// batched VerifyRange folds every bit equation into one multi-
// exponentiation; the per-bit loop runs VerifyBit (two variable-base
// exponentiations) per bit plus the same product check.
crypto::RangeProof RangeProofFixture(size_t bits,
                                     crypto::PedersenOpening* opening) {
  const auto& params = crypto::PedersenParams::Test256();
  crypto::Drbg drbg(uint64_t{17});
  crypto::BigInt m = (crypto::BigInt(1) << bits) - crypto::BigInt(1);
  *opening = crypto::PedersenCommitFresh(params, m, drbg);
  return crypto::ProveRange(params, opening->commitment, m,
                            opening->randomness, bits, drbg)
      .value();
}

void BM_ZkRangeVerify(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  crypto::PedersenOpening opening;
  crypto::RangeProof proof = RangeProofFixture(bits, &opening);
  for (auto _ : state) {
    bool ok = crypto::VerifyRange(crypto::PedersenParams::Test256(),
                                  opening.commitment, proof, bits);
    if (!ok) state.SkipWithError("honest range proof rejected");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ZkRangeVerify)->Arg(18)->Unit(benchmark::kMicrosecond);

void BM_ZkRangeVerifyPerBit(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  crypto::PedersenOpening opening;
  crypto::RangeProof proof = RangeProofFixture(bits, &opening);
  for (auto _ : state) {
    bool ok = crypto::zkp_internal::VerifyRangePerBit(
        crypto::PedersenParams::Test256(), opening.commitment, proof, bits);
    if (!ok) state.SkipWithError("honest range proof rejected");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ZkRangeVerifyPerBit)->Arg(18)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------- Paillier

void BM_PaillierVerificationChain(benchmark::State& state) {
  // The RC1 inner loop per verification: 1 encrypt (incoming value) +
  // k homomorphic adds (window) + 1 decrypt (owner side).
  int64_t window_rows = state.range(0);
  crypto::Drbg drbg(uint64_t{11});
  auto key = crypto::PaillierGenerateKey(256, drbg).value();
  std::vector<crypto::PaillierCiphertext> window;
  for (int64_t i = 0; i < window_rows; ++i) {
    window.push_back(
        crypto::PaillierEncrypt(key.pub, crypto::BigInt(i % 8), drbg).value());
  }
  obs::Histogram* op = benchutil::OpHistogram("e3", "paillier_chain");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    auto fresh = crypto::PaillierEncrypt(key.pub, crypto::BigInt(5), drbg);
    crypto::PaillierCiphertext acc = *fresh;
    for (const auto& ct : window) acc = crypto::PaillierAdd(key.pub, acc, ct);
    auto total = crypto::PaillierDecrypt(key, acc);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PaillierVerificationChain)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Iterations(20);

void BM_PaillierVerificationChain512(benchmark::State& state) {
  // Same chain at 512-bit modulus: parameter-scale ablation.
  crypto::Drbg drbg(uint64_t{13});
  auto key = crypto::PaillierGenerateKey(512, drbg).value();
  std::vector<crypto::PaillierCiphertext> window;
  for (int64_t i = 0; i < 16; ++i) {
    window.push_back(
        crypto::PaillierEncrypt(key.pub, crypto::BigInt(i % 8), drbg).value());
  }
  for (auto _ : state) {
    auto fresh = crypto::PaillierEncrypt(key.pub, crypto::BigInt(5), drbg);
    crypto::PaillierCiphertext acc = *fresh;
    for (const auto& ct : window) acc = crypto::PaillierAdd(key.pub, acc, ct);
    auto total = crypto::PaillierDecrypt(key, acc);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PaillierVerificationChain512)->Unit(benchmark::kMillisecond)
    ->Iterations(10);

// ------------------------------------------- modular-arithmetic ablation

// The engineering lever under every crypto mechanism: Montgomery (CIOS)
// exponentiation vs classic divide-and-reduce square-and-multiply.
void BM_PowModMontgomery(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  crypto::Drbg drbg(uint64_t{42});
  crypto::BigInt m = drbg.RandomBits(bits);
  if (m.IsEven()) m = m + crypto::BigInt(1);
  crypto::BigInt base = drbg.RandomBelow(m);
  crypto::BigInt exp = drbg.RandomBits(bits);
  auto ctx = crypto::MontgomeryContext::Create(m).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.PowMod(base, exp));
  }
}
BENCHMARK(BM_PowModMontgomery)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Iterations(20);

void BM_PowModClassic(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  crypto::Drbg drbg(uint64_t{42});
  crypto::BigInt m = drbg.RandomBits(bits);
  if (m.IsEven()) m = m + crypto::BigInt(1);
  crypto::BigInt base = drbg.RandomBelow(m);
  crypto::BigInt exp = drbg.RandomBits(bits);
  for (auto _ : state) {
    // Classic square-and-multiply with a division-based reduction per step.
    crypto::BigInt b = base.Mod(m);
    crypto::BigInt result(1);
    for (size_t i = exp.BitLength(); i-- > 0;) {
      result = result.MulMod(result, m);
      if (exp.Bit(i)) result = result.MulMod(b, m);
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PowModClassic)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

// Modular inverse: the limb-level binary inverse behind BigInt::InvMod (one
// per blinded token, per VerifyUpperBound, per ElGamal decryption) against
// the extended-Euclid oracle it replaced, on an odd modulus of the given
// width and 64 invertible operands below it.
std::vector<crypto::BigInt> InvModOperands(const crypto::BigInt& m,
                                           crypto::Drbg& drbg) {
  std::vector<crypto::BigInt> out;
  while (out.size() < 64) {
    crypto::BigInt a = drbg.RandomNonZeroBelow(m);
    if (crypto::bigint_internal::InvModEuclid(a, m).ok()) out.push_back(a);
  }
  return out;
}

void BM_InvMod(benchmark::State& state) {
  crypto::Drbg drbg(uint64_t{43});
  crypto::BigInt m = drbg.RandomBits(static_cast<size_t>(state.range(0)));
  if (m.IsEven()) m = m + crypto::BigInt(1);
  std::vector<crypto::BigInt> operands = InvModOperands(m, drbg);
  size_t i = 0;
  for (auto _ : state) {
    auto inv = operands[i++ % operands.size()].InvMod(m);
    if (!inv.ok()) state.SkipWithError("invertible operand refused");
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_InvMod)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_InvModEuclid(benchmark::State& state) {
  crypto::Drbg drbg(uint64_t{43});
  crypto::BigInt m = drbg.RandomBits(static_cast<size_t>(state.range(0)));
  if (m.IsEven()) m = m + crypto::BigInt(1);
  std::vector<crypto::BigInt> operands = InvModOperands(m, drbg);
  size_t i = 0;
  for (auto _ : state) {
    auto inv =
        crypto::bigint_internal::InvModEuclid(operands[i++ % operands.size()], m);
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_InvModEuclid)->Arg(512)->Unit(benchmark::kMicrosecond);

// The token authority's signing step: RSA-CRT with its s^e fault check
// against the full-exponent c^d mod n oracle, on blinded 32-byte serials.
std::vector<crypto::BigInt> BlindedSerials(const crypto::RsaPublicKey& pub) {
  crypto::Drbg drbg(uint64_t{45});
  std::vector<crypto::BigInt> out;
  for (int i = 0; i < 16; ++i) {
    out.push_back(
        crypto::RsaBlind(pub, drbg.Generate(32), drbg)->blinded_message);
  }
  return out;
}

void BM_RsaBlindSign(benchmark::State& state) {
  crypto::Drbg keygen(uint64_t{44});
  auto key =
      crypto::RsaGenerateKey(static_cast<size_t>(state.range(0)), keygen)
          .value();
  std::vector<crypto::BigInt> blinded = BlindedSerials(key.pub);
  size_t i = 0;
  for (auto _ : state) {
    auto sig = crypto::RsaBlindSign(key, blinded[i++ % blinded.size()]);
    if (!sig.ok()) state.SkipWithError("CRT signing failed");
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_RsaBlindSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RsaBlindSignNoCrt(benchmark::State& state) {
  crypto::Drbg keygen(uint64_t{44});
  auto key =
      crypto::RsaGenerateKey(static_cast<size_t>(state.range(0)), keygen)
          .value();
  std::vector<crypto::BigInt> blinded = BlindedSerials(key.pub);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_internal::PrivateOpNoCrt(
        key, blinded[i++ % blinded.size()]));
  }
}
BENCHMARK(BM_RsaBlindSignNoCrt)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  prever::benchutil::ParseTraceFlag(&argc, argv);
  std::printf(
      "E3: one bounded-aggregate verification under each mechanism.\n"
      "Expected shape: plaintext (us) < MPC (us, +rounds) < token (RSA "
      "verify/unit) < ZK range proof (ms, ~linear in bits) ~ Paillier "
      "chain (ms, grows with window and modulus).\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  prever::benchutil::EmitMetricsJson("e3");
  prever::benchutil::MaybeWriteTrace("e3");
  return 0;
}
