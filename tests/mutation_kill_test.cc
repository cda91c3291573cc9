// Mutation kill driver: enumerates every site in mutate/sites.def,
// activates one mutant at a time, and runs a targeted detector that must
// observe a behavioral difference ("kill" the mutant). Survivors are
// reported with their site id and a rationale so they can be replayed:
//
//   PREVER_MUTATION=<site> ./tests/<binary>     (env-based activation)
//   ./tests/mutation_kill_test <site>           (single-site debug mode)
//
// The driver runs two passes:
//  1. clean pass — every detector runs unmutated and must NOT flag a kill
//     (a detector that fires on correct code is broken; exit 2), then
//  2. mutation matrix — per site: activate, detect, deactivate, recording
//     whether the instrumented decision point was even reached.
//
// Exit 0 iff the kill rate over all sites is >= 95%. The report ends with a
// machine-readable line:
//
//   PREVER_MUTATION_REPORT {"sites":N,...}
//
// consumed by scripts/mutation_smoke.sh.

#ifndef PREVER_MUTATIONS

#include <cstdio>

int main() {
  std::printf(
      "mutation harness compiled out; reconfigure with -DPREVER_MUTATIONS=ON\n");
  return 0;
}

#else  // PREVER_MUTATIONS

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/serial.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "constraint/agg_cache.h"
#include "constraint/constraint.h"
#include "constraint/eval.h"
#include "constraint/linear.h"
#include "constraint/parser.h"
#include "constraint/program.h"
#include "core/encrypted_engine.h"
#include "core/federated_token_engine.h"
#include "core/ordering.h"
#include "crypto/bigint.h"
#include "crypto/drbg.h"
#include "crypto/merkle.h"
#include "crypto/paillier.h"
#include "crypto/pedersen.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "crypto/zkp.h"
#include "crypto/zkp_internal.h"
#include "ledger/ledger_db.h"
#include "mutate/mutation.h"
#include "net/sim_net.h"
#include "recovery/checkpoint.h"
#include "storage/database.h"
#include "storage/wal.h"
#include "token/token.h"
#include "test_util.h"
#include "zkp_crafted.h"

namespace prever {
namespace {

using crypto::BigInt;
using crypto::Drbg;
using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

/// Result of running one detector: did it observe a behavioral difference,
/// and how would it explain the verdict to a human?
struct Detection {
  bool killed = false;
  std::string rationale;
};

Detection Killed(std::string why) { return {true, std::move(why)}; }
Detection Survived(std::string why) { return {false, std::move(why)}; }

// ===================================================================
// Constraint-golden fixture: a worklog database with rows pinned to the
// exact boundary slots the window/aggregate mutants move, plus literal-free
// comparison probes over update fields (so the comparison routes through
// EvaluateComparison, not the parser's constant folding).
// ===================================================================

class ConstraintFixture {
 public:
  ConstraintFixture() {
    Schema worklog({{"id", ValueType::kString},
                    {"worker", ValueType::kString},
                    {"hours", ValueType::kInt64},
                    {"at", ValueType::kTimestamp}});
    (void)db_.CreateTable("worklog", worklog);
    AddRow("t1", "w1", 10, 1 * kDay);
    AddRow("t2", "w1", 20, 3 * kDay);
    AddRow("t3", "w2", 35, 3 * kDay);
    AddRow("t4", "w1", 8, 20 * kDay);       // Future w.r.t. now; no window.
    AddRow("t5", "w1", 100, 2 * kDay);      // ts == now - 5d exactly.
    AddRow("t6", "w1", 50, 2 * kDay + 1);   // First slot inside the window.
    AddRow("t7", "w1", 30, 7 * kDay);       // ts == now exactly.
    AddRow("t8", "w1", 9, 8 * kDay);        // Just past now.
  }

  Result<Value> Eval(const std::string& text) const {
    auto e = constraint::ParseConstraint(text);
    if (!e.ok()) return e.status();
    constraint::EvalContext ctx{&db_, &update_, now_};
    return constraint::Evaluate(**e, ctx);
  }

  const storage::Database& db() const { return db_; }
  const constraint::UpdateFields& update() const { return update_; }
  SimTime now() const { return now_; }

 private:
  void AddRow(const std::string& id, const std::string& worker, int64_t hours,
              SimTime at) {
    Mutation m;
    m.op = Mutation::Op::kInsert;
    m.table = "worklog";
    m.row = {Value::String(id), Value::String(worker), Value::Int64(hours),
             Value::Timestamp(at)};
    (void)db_.Apply(m);
  }

  storage::Database db_;
  // a = c = 2, b = 1: every comparison probe sits exactly on the boundary
  // its mutant widens or narrows. `hours` feeds the catalog probe.
  constraint::UpdateFields update_ = {{"a", Value::Int64(2)},
                                      {"b", Value::Int64(1)},
                                      {"c", Value::Int64(2)},
                                      {"hours", Value::Int64(50)}};
  SimTime now_ = 7 * kDay;
};

Detection ExpectValue(const ConstraintFixture& fx, const std::string& text,
                      const Value& want) {
  auto got = fx.Eval(text);
  if (!got.ok()) {
    return Killed("evaluation of \"" + text +
                  "\" errored: " + got.status().message());
  }
  if (!(*got == want)) {
    return Killed("\"" + text + "\" diverged from its golden value");
  }
  return Survived("\"" + text + "\" still matches its golden value");
}

// The windowed SUM whose three edges (start-inclusive, start-off-by-one,
// end-exclusive) each shift onto a dedicated row: golden value 100
// (t6=50 + t2=20 + t7=30); mutants produce 200 / 50 / 70 / 101.
constexpr char kWindowSum[] =
    "SUM(worklog.hours WHERE worker = 'w1' WINDOW 5d)";

// ===================================================================
// Compiled-path golden helpers: the same probes as the interpreter
// detectors, routed through CompileConstraint + RunScalar with aggregates
// served by an AggregateCache — the exact plumbing CompiledVerifier uses,
// never touching constraint::Evaluate.
// ===================================================================

Result<Value> RegValToValue(const constraint::RegVal& r) {
  switch (r.tag) {
    case constraint::RegVal::Tag::kNum:
      return Value::Int64(r.num);
    case constraint::RegVal::Tag::kBool:
      return Value::Bool(r.b);
    case constraint::RegVal::Tag::kStr:
      return Value::String(*r.str);
  }
  return Status::Internal("unreachable register tag");
}

Result<Value> EvalCompiled(const storage::Database& db,
                           const constraint::UpdateFields& update, SimTime now,
                           const std::string& text,
                           constraint::AggregateCache& cache) {
  auto e = constraint::ParseConstraint(text);
  if (!e.ok()) return e.status();
  auto cc = constraint::CompileConstraint(**e);
  if (!cc.ok()) return cc.status();
  constraint::EvalContext ctx{&db, &update, now};
  constraint::AggFn agg_fn = [&](size_t i) {
    return cache.Evaluate(*cc->aggs[i], ctx);
  };
  PREVER_ASSIGN_OR_RETURN(
      constraint::RegVal top,
      constraint::RunScalar(cc->top, ctx, /*row=*/nullptr, &agg_fn));
  return RegValToValue(top);
}

Detection ExpectCompiled(const ConstraintFixture& fx, const std::string& text,
                         const Value& want) {
  constraint::AggregateCache cache;
  auto got = EvalCompiled(fx.db(), fx.update(), fx.now(), text, cache);
  if (!got.ok()) {
    return Killed("compiled evaluation of \"" + text +
                  "\" errored: " + got.status().message());
  }
  if (!(*got == want)) {
    return Killed("compiled \"" + text + "\" diverged from its golden value");
  }
  return Survived("compiled \"" + text + "\" still matches its golden value");
}

// ===================================================================
// Crypto fixtures — built ONCE, unmutated, before any pass. Proof forging
// and tampering happen here so per-site detectors only re-run the verifier.
// ===================================================================

struct CryptoFixture {
  const crypto::PedersenParams& params = crypto::PedersenParams::Test256();
  Drbg drbg{20260808};

  // Opening proof on C5 = Commit(5, r), with z1 bumped off the transcript.
  crypto::PedersenOpening c5;
  crypto::OpeningProof opening_bad;

  // Honest bit proofs with the REAL branch response tampered (the simulated
  // branch still verifies, so only the skipped-branch mutant accepts).
  crypto::PedersenOpening cb0, cb1;
  crypto::BitProof bit0_bad, bit1_bad;

  // Both-branches-simulated bit proof on Commit(7, r): each branch equation
  // holds by construction but e0 + e1 cannot match the Fiat–Shamir
  // challenge, so only the split check rejects it.
  crypto::PedersenOpening c7;
  crypto::BitProof bit_forged;

  // Range proof material: honest 4-bit proof for Commit(5, r), a copy with
  // one bit response tampered, and an unrelated Commit(9, r').
  crypto::PedersenOpening range5;
  crypto::RangeProof range5_proof;
  crypto::RangeProof range5_badbit;
  crypto::PedersenOpening c9;

  // Violating commitments for the bound verifiers: 50 > 40 and 10 < 20.
  crypto::PedersenOpening c50, c10;

  // A 1-bit range transcript on a non-residue commitment whose branch-0
  // challenge e0 is even: VerifyBit rejects it on the sign alone, while
  // every order-q component of the batched check matches.
  crypto::PedersenCommitment nonresidue_statement;
  crypto::RangeProof nonresidue_even;

  // RSA: a valid signature, the same signature with a leading zero byte
  // (valid value, wrong length), and — when the modulus leaves headroom —
  // a message whose signature survives adding n without growing a byte.
  crypto::RsaKeyPair rsa;
  Bytes msg_a, msg_b, sig_a, sig_prefixed;
  Bytes overrange_msg, overrange_sig;
  bool have_overrange = false;

  crypto::PaillierKeyPair paillier;

  // Single-leaf Merkle root captured unmutated; the domain-tag mutant
  // changes it.
  Bytes merkle_leaf = ToBytes("prever-mutation-leaf");
  Bytes merkle_baseline_root;

  CryptoFixture() {
    const BigInt& q = params.q;
    // --- opening proof ---
    c5 = crypto::PedersenCommitFresh(params, BigInt(5), drbg);
    opening_bad = crypto::ProveOpening(params, c5.commitment, BigInt(5),
                                       c5.randomness, drbg);
    opening_bad.z1 = opening_bad.z1.AddMod(BigInt(1), q);

    // --- bit proofs, real branch tampered ---
    cb0 = crypto::PedersenCommitFresh(params, BigInt(0), drbg);
    bit0_bad = *crypto::ProveBit(params, cb0.commitment, 0, cb0.randomness,
                                 drbg);
    bit0_bad.z0 = bit0_bad.z0.AddMod(BigInt(1), q);
    cb1 = crypto::PedersenCommitFresh(params, BigInt(1), drbg);
    bit1_bad = *crypto::ProveBit(params, cb1.commitment, 1, cb1.randomness,
                                 drbg);
    bit1_bad.z1 = bit1_bad.z1.AddMod(BigInt(1), q);

    // --- dual-simulated bit proof (kills only via the split check) ---
    c7 = crypto::PedersenCommitFresh(params, BigInt(7), drbg);
    {
      // Branch 0: y0 = C; branch 1: y1 = C * g^-1. Pick (e, z) freely and
      // solve t = h^z * y^-e so each branch equation holds on its own.
      BigInt y0 = c7.commitment.c;
      BigInt y1 = y0.MulMod(*params.g.InvMod(params.p), params.p);
      auto simulate = [&](const BigInt& y, const BigInt& e, const BigInt& z) {
        BigInt ye = y.PowMod(e, params.p);
        return params.h.PowMod(z, params.p)
            .MulMod(*ye.InvMod(params.p), params.p);
      };
      bit_forged.e0 = BigInt(5);
      bit_forged.z0 = BigInt(11);
      bit_forged.t0 = simulate(y0, bit_forged.e0, bit_forged.z0);
      bit_forged.e1 = BigInt(7);
      bit_forged.z1 = BigInt(13);
      bit_forged.t1 = simulate(y1, bit_forged.e1, bit_forged.z1);
    }

    // --- range proofs ---
    range5 = crypto::PedersenCommitFresh(params, BigInt(5), drbg);
    range5_proof = *crypto::ProveRange(params, range5.commitment, BigInt(5),
                                       range5.randomness, 4, drbg);
    range5_badbit = range5_proof;
    range5_badbit.bit_proofs[0].z0 =
        range5_badbit.bit_proofs[0].z0.AddMod(BigInt(1), q);
    c9 = crypto::PedersenCommitFresh(params, BigInt(9), drbg);
    c50 = crypto::PedersenCommitFresh(params, BigInt(50), drbg);
    c10 = crypto::PedersenCommitFresh(params, BigInt(10), drbg);

    // --- RSA ---
    // Regenerate until the modulus leaves >= n/4 of headroom below 2^512,
    // so the over-range search below succeeds after a handful of tries.
    Bytes two_512(65, 0);
    two_512[0] = 1;
    BigInt cap = BigInt::FromBytes(two_512);
    for (uint64_t seed = 31;; ++seed) {
      Drbg key_drbg(seed);
      rsa = *crypto::RsaGenerateKey(512, key_drbg);
      BigInt headroom = cap - rsa.pub.n;
      if (!(headroom + headroom + headroom + headroom < rsa.pub.n)) break;
    }
    msg_a = ToBytes("prever token serial A");
    msg_b = ToBytes("prever token serial B");
    sig_a = *crypto::RsaSign(rsa, msg_a);
    sig_prefixed.push_back(0x00);
    sig_prefixed.insert(sig_prefixed.end(), sig_a.begin(), sig_a.end());
    for (int i = 0; i < 2000 && !have_overrange; ++i) {
      Bytes m = ToBytes("prever overrange probe " + std::to_string(i));
      Bytes sig = *crypto::RsaSign(rsa, m);
      BigInt shifted = BigInt::FromBytes(sig) + rsa.pub.n;
      if (shifted.BitLength() <= 512) {
        overrange_msg = m;
        overrange_sig = *shifted.ToBytesPadded(rsa.pub.ModulusBytes());
        have_overrange = true;
      }
    }

    // --- Paillier ---
    Drbg pdrbg(77);
    paillier = *crypto::PaillierGenerateKey(384, pdrbg);

    // --- Merkle baseline ---
    crypto::MerkleTree t;
    t.Append(merkle_leaf);
    merkle_baseline_root = t.Root();

    // --- non-residue range transcript with even e0 ---
    Drbg crafted_drbg(91);
    do {
      nonresidue_even = crypto::CraftNonResidueRange(params, crafted_drbg,
                                                     &nonresidue_statement);
    } while (nonresidue_even.bit_proofs[0].e0.IsOdd());
  }
};

// ===================================================================
// Consensus rigs: one replica under test plus spy nodes that capture every
// message the replica emits; forged protocol messages are injected through
// the simulated network from the spies' node ids.
// ===================================================================

net::SimNetConfig QuietNet() {
  net::SimNetConfig cfg;
  cfg.min_latency = 1 * kMillisecond;
  cfg.max_latency = 2 * kMillisecond;
  cfg.drop_rate = 0.0;
  cfg.seed = 17;
  return cfg;
}

// Raft message types (mirrors src/consensus/raft.cc).
constexpr uint32_t kRaftRequestVote = 10;
constexpr uint32_t kRaftVoteReply = 11;
constexpr uint32_t kRaftAppendEntries = 12;
constexpr uint32_t kRaftAppendReply = 13;
constexpr uint32_t kRaftInstallSnapshot = 14;

struct RaftRig {
  net::SimNetwork net{QuietNet()};
  std::vector<net::Message> captured;
  std::unique_ptr<consensus::RaftReplica> replica;

  explicit RaftRig(size_t num_replicas, bool start_timers) {
    consensus::RaftConfig cfg;
    cfg.num_replicas = num_replicas;
    replica = std::make_unique<consensus::RaftReplica>(0, cfg, &net, 11);
    net.AddNode([this](const net::Message& m) { replica->OnMessage(m); });
    for (size_t i = 1; i < num_replicas; ++i) {
      net.AddNode([this](const net::Message& m) { captured.push_back(m); });
    }
    if (start_timers) replica->Start();
  }

  void Run(SimTime delta) { net.RunUntil(net.Now() + delta); }

  void SendAppendEntries(net::NodeId from, uint64_t term, uint64_t prev_index,
                         uint64_t prev_term, uint64_t commit,
                         const std::vector<std::pair<uint64_t, Bytes>>& ents) {
    BinaryWriter w;
    w.WriteU64(term);
    w.WriteU64(prev_index);
    w.WriteU64(prev_term);
    w.WriteU64(commit);
    w.WriteU32(static_cast<uint32_t>(ents.size()));
    for (const auto& [t, cmd] : ents) {
      w.WriteU64(t);
      w.WriteBytes(cmd);
    }
    net.Send(from, 0, kRaftAppendEntries, w.bytes());
  }

  void SendRequestVote(net::NodeId from, uint64_t term, uint64_t last_index,
                       uint64_t last_term) {
    BinaryWriter w;
    w.WriteU64(term);
    w.WriteU64(last_index);
    w.WriteU64(last_term);
    net.Send(from, 0, kRaftRequestVote, w.bytes());
  }

  void SendVoteReply(net::NodeId from, uint64_t term, bool grant) {
    BinaryWriter w;
    w.WriteU64(term);
    w.WriteBool(grant);
    net.Send(from, 0, kRaftVoteReply, w.bytes());
  }

  void SendAppendReply(net::NodeId from, uint64_t term, bool success,
                       uint64_t match) {
    BinaryWriter w;
    w.WriteU64(term);
    w.WriteBool(success);
    w.WriteU64(match);
    w.WriteU64(0);  // hint
    net.Send(from, 0, kRaftAppendReply, w.bytes());
  }

  /// Drives the replica until it is a candidate, then feeds it granted
  /// votes from `voters` until it is leader (bounded; false on timeout).
  bool ElectLeader(const std::vector<net::NodeId>& voters) {
    for (int round = 0; round < 200; ++round) {
      if (replica->role() == consensus::RaftReplica::Role::kLeader) {
        return true;
      }
      if (replica->role() == consensus::RaftReplica::Role::kCandidate) {
        for (net::NodeId v : voters) SendVoteReply(v, replica->term(), true);
      }
      Run(10 * kMillisecond);
    }
    return false;
  }
};

// PBFT message types (mirrors src/consensus/pbft.cc).
constexpr uint32_t kPbftPrePrepare = 2;
constexpr uint32_t kPbftPrepare = 3;
constexpr uint32_t kPbftCommit = 4;
constexpr uint32_t kPbftViewChange = 5;
constexpr uint32_t kPbftNewView = 6;
constexpr uint32_t kPbftCheckpoint = 7;
constexpr uint32_t kPbftStateResponse = 9;

struct PbftRig {
  net::SimNetwork net{QuietNet()};
  std::vector<net::Message> captured;
  std::unique_ptr<consensus::PbftReplica> replica;  // Backup, node id 1.

  explicit PbftRig(
      uint64_t watermark_window = 128,
      uint64_t checkpoint_interval = consensus::kDefaultCheckpointInterval) {
    consensus::PbftConfig cfg;
    cfg.num_replicas = 4;
    cfg.high_watermark_window = watermark_window;
    cfg.checkpoint_interval = checkpoint_interval;
    net.AddNode([this](const net::Message& m) { captured.push_back(m); });
    replica = std::make_unique<consensus::PbftReplica>(1, cfg, &net);
    net.AddNode([this](const net::Message& m) { replica->OnMessage(m); });
    net.AddNode([this](const net::Message& m) { captured.push_back(m); });
    net.AddNode([this](const net::Message& m) { captured.push_back(m); });
  }

  void Run(SimTime delta) { net.RunUntil(net.Now() + delta); }

  static Bytes EncodeProposal(uint64_t view, uint64_t seq, const Bytes& body) {
    BinaryWriter w;
    w.WriteU64(view);
    w.WriteU64(seq);
    w.WriteBytes(body);
    return w.bytes();
  }

  void SendPrePrepare(net::NodeId from, uint64_t view, uint64_t seq,
                      const Bytes& command) {
    net.Send(from, 1, kPbftPrePrepare, EncodeProposal(view, seq, command));
  }
  void SendPrepare(net::NodeId from, uint64_t view, uint64_t seq,
                   const Bytes& digest) {
    net.Send(from, 1, kPbftPrepare, EncodeProposal(view, seq, digest));
  }
  void SendCommit(net::NodeId from, uint64_t view, uint64_t seq,
                  const Bytes& digest) {
    net.Send(from, 1, kPbftCommit, EncodeProposal(view, seq, digest));
  }
  void SendViewChange(net::NodeId from, uint64_t new_view) {
    BinaryWriter w;
    w.WriteU64(new_view);
    w.WriteU32(0);  // No prepared entries.
    net.Send(from, 1, kPbftViewChange, w.bytes());
  }
  void SendNewView(net::NodeId from, uint64_t new_view) {
    BinaryWriter w;
    w.WriteU64(new_view);
    w.WriteU32(0);
    net.Send(from, 1, kPbftNewView, w.bytes());
  }

  /// Counts captured messages of `type` sent by the replica, optionally
  /// requiring a payload digest match (for Prepare/Commit votes).
  size_t CountFromReplica(uint32_t type, const Bytes* digest = nullptr) const {
    size_t n = 0;
    for (const net::Message& m : captured) {
      if (m.from != 1 || m.type != type) continue;
      if (digest != nullptr) {
        BinaryReader r(m.payload);
        (void)r.ReadU64();
        (void)r.ReadU64();
        auto d = r.ReadBytes();
        if (!d.ok() || *d != *digest) continue;
      }
      ++n;
    }
    return n;
  }
};

// ===================================================================
// Recovery fixtures: scratch checkpoint directories. Probes hand-craft
// corrupt checkpoints through storage::WriteAheadLog, the record-file codec
// checkpoints are written in.
// ===================================================================

/// Fresh scratch directory for a checkpoint-store probe. Recreated from
/// empty on every call so the clean pass and the matrix pass never see
/// each other's files.
std::string RecoveryScratchDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("prever_mutation_" + tag))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// ===================================================================
// Engine fixtures (shared; expensive keys generated once).
// ===================================================================

struct EngineFixture {
  core::DataOwner owner{320, crypto::PedersenParams::Test256(), 99};
  token::TokenAuthority authority{512, 3, 1000 * kDay, 123};
  uint64_t probe_counter = 0;

  /// Fresh participant per call so the shared authority's per-(participant,
  /// period) budget ledger never leaks state between passes.
  std::string FreshName(const std::string& prefix) {
    return prefix + std::to_string(probe_counter++);
  }
};

core::Update MakeWorklogUpdate(const std::string& id,
                               const std::string& worker, int64_t hours,
                               SimTime at) {
  core::Update u;
  u.id = id;
  u.producer = worker;
  u.timestamp = at;
  u.fields = {{"worker", Value::String(worker)},
              {"hours", Value::Int64(hours)}};
  u.mutation.op = Mutation::Op::kInsert;
  u.mutation.table = "worklog";
  u.mutation.row = {Value::String(id), Value::String(worker),
                    Value::Int64(hours), Value::Timestamp(at)};
  return u;
}

Status CreateWorklogTable(storage::Database& db) {
  Schema worklog({{"id", ValueType::kString},
                  {"worker", ValueType::kString},
                  {"hours", ValueType::kInt64},
                  {"at", ValueType::kTimestamp}});
  return db.CreateTable("worklog", worklog);
}

/// A one-platform token engine over a centralized ledger.
struct TokenEngineRig {
  explicit TokenEngineRig(EngineFixture& efx)
      : engine({&platform}, &efx.authority, &ordering, "hours") {
    platform.id = "p0";
    setup = CreateWorklogTable(platform.db);
  }
  core::FederatedPlatform platform;
  core::CentralizedOrdering ordering;
  core::FederatedTokenEngine engine;
  Status setup;
};

/// The TOKEN_* sites sit behind both TokenVerifier::Spend and
/// FederatedTokenEngine, which spends through the same verifier. A mutant
/// counts as killed only when both probes notice it; unmutated, either
/// probe firing is a detector bug the clean pass must report.
Detection KilledThroughBoth(const Detection& verifier,
                            const Detection& engine) {
  const bool clean = mutate::ActiveSite() == mutate::MutationSite::kNumSites;
  return {clean ? verifier.killed || engine.killed
                : verifier.killed && engine.killed,
          "verifier: " + verifier.rationale + "; engine: " + engine.rationale};
}

// ===================================================================
// Detector registry.
// ===================================================================

using Detector = std::function<Detection()>;

std::map<std::string, Detector> BuildDetectors(
    const ConstraintFixture& cfx, const CryptoFixture& kfx,
    EngineFixture& efx) {
  std::map<std::string, Detector> d;

  // ------------------------------------------------- constraint-golden
  auto expect = [&cfx](const std::string& text, const Value& want) {
    return [&cfx, text, want] { return ExpectValue(cfx, text, want); };
  };
  d["EVAL_CMP_EQ_WIDENED"] = expect("update.a = update.b", Value::Bool(false));
  d["EVAL_CMP_NE_NARROWED"] = expect("update.b != update.a", Value::Bool(true));
  d["EVAL_CMP_LT_INCLUSIVE"] = expect("update.a < update.c", Value::Bool(false));
  d["EVAL_CMP_LE_EXCLUSIVE"] = expect("update.a <= update.c", Value::Bool(true));
  d["EVAL_CMP_GT_INCLUSIVE"] = expect("update.a > update.c", Value::Bool(false));
  d["EVAL_CMP_GE_EXCLUSIVE"] = expect("update.a >= update.c", Value::Bool(true));
  d["EVAL_WINDOW_START_INCLUSIVE"] = expect(kWindowSum, Value::Int64(100));
  d["EVAL_WINDOW_END_EXCLUSIVE"] = expect(kWindowSum, Value::Int64(100));
  d["EVAL_WINDOW_START_OFFBYONE"] = expect(kWindowSum, Value::Int64(100));
  d["EVAL_SUM_OFFBYONE"] = expect(kWindowSum, Value::Int64(100));
  d["EVAL_COUNT_OFFBYONE"] =
      expect("COUNT(worklog WHERE worker = 'w2')", Value::Int64(1));
  d["EVAL_AVG_EMPTY_GUARD"] =
      expect("AVG(worklog.hours WHERE worker = 'w2')", Value::Int64(35));
  d["EVAL_MIN_UPDATE_SKIP"] = expect("MIN(worklog.hours)", Value::Int64(8));
  d["EVAL_MAX_UPDATE_SKIP"] = expect("MAX(worklog.hours)", Value::Int64(100));
  d["EVAL_EXISTS_ALWAYS"] =
      expect("EXISTS(worklog WHERE worker = 'zz')", Value::Bool(false));
  d["EVAL_WHERE_INVERTED"] =
      expect("COUNT(worklog WHERE worker = 'w2')", Value::Int64(1));
  d["EVAL_AND_SHORTCIRCUIT_SKIP"] =
      expect("update.a = update.b AND update.a = update.c", Value::Bool(false));
  d["EVAL_OR_SHORTCIRCUIT_SKIP"] =
      expect("update.a = update.c OR update.a = update.b", Value::Bool(true));
  d["EVAL_NOT_DROPPED"] =
      expect("NOT (update.a = update.b)", Value::Bool(true));
  d["EVAL_FORALL_IGNORE_VIOLATION"] = expect(
      "FORALL(worklog.worker : SUM(worklog.hours WHERE worker = group) <= 40)",
      Value::Bool(false));

  d["LINEAR_LT_BOUND_OFFBYONE"] = [] {
    auto e = constraint::ParseConstraint("COUNT(worklog) < 500");
    if (!e.ok()) return Killed("parse failed: " + e.status().message());
    auto form = constraint::ExtractLinearBound(**e);
    if (!form.ok()) {
      return Killed("extraction failed: " + form.status().message());
    }
    if (form->bound != 499) return Killed("strict < bound not tightened");
    return Survived("agg < 500 still extracts inclusive bound 499");
  };
  d["LINEAR_GT_BOUND_OFFBYONE"] = [] {
    auto e = constraint::ParseConstraint("SUM(worklog.hours) > 10");
    if (!e.ok()) return Killed("parse failed: " + e.status().message());
    auto form = constraint::ExtractLinearBound(**e);
    if (!form.ok()) {
      return Killed("extraction failed: " + form.status().message());
    }
    if (form->bound != 11) return Killed("strict > bound not tightened");
    return Survived("agg > 10 still extracts inclusive bound 11");
  };
  d["CATALOG_IGNORE_VIOLATION"] = [&cfx] {
    constraint::ConstraintCatalog catalog;
    Status added = catalog.Add("weekly-cap", constraint::ConstraintScope::kRegulation,
                               constraint::ConstraintVisibility::kPublic,
                               "update.hours <= 40");
    if (!added.ok()) return Killed("catalog rejected a valid constraint");
    constraint::EvalContext ctx{&cfx.db(), &cfx.update(), cfx.now()};
    Status s = catalog.CheckAll(ctx);  // update.hours = 50 violates the cap.
    if (s.ok()) return Killed("catalog accepted a violating update");
    return Survived("violating update still rejected by CheckAll");
  };

  // -------------------------------------------------- compiled-diff
  // Bytecode/aggregate-cache twins of the interpreter probes above. Each
  // drives the exact decision point its mutant flips through the compiled
  // path; the EVAL_* detectors keep the interpreter honest independently,
  // so the pair doubles as a standing differential check.
  auto expect_compiled = [&cfx](const std::string& text, const Value& want) {
    return [&cfx, text, want] { return ExpectCompiled(cfx, text, want); };
  };
  d["PROG_CMP_LE_EXCLUSIVE"] =
      expect_compiled("update.a <= update.c", Value::Bool(true));
  d["PROG_AND_SHORTCIRCUIT_SKIP"] = expect_compiled(
      "update.a = update.b AND update.a = update.c", Value::Bool(false));
  d["PROG_MIN_UPDATE_SKIP"] =
      expect_compiled("MIN(worklog.hours)", Value::Int64(8));
  d["PROG_EXISTS_ALWAYS"] = expect_compiled("EXISTS(worklog WHERE worker = 'zz')",
                                            Value::Bool(false));
  d["PROG_SUM_OFFBYONE"] = expect_compiled(kWindowSum, Value::Int64(100));
  d["PROG_WINDOW_START_INCLUSIVE"] = [&cfx] {
    // The cache keeps window edges by cursor arithmetic and never calls
    // InWindow, so this probe must take the scan path (scalar row loop →
    // InWindow) where the mutant lives.
    auto e = constraint::ParseConstraint(kWindowSum);
    if (!e.ok()) return Killed("parse failed: " + e.status().message());
    auto cc = constraint::CompileConstraint(**e);
    if (!cc.ok() || cc->aggs.size() != 1) {
      return Killed("windowed SUM no longer compiles to a single spec");
    }
    auto table = cfx.db().GetTable("worklog");
    if (!table.ok()) return Killed("fixture table missing");
    auto bound = constraint::BindSpec(*cc->aggs[0], (*table)->schema());
    if (!bound.ok()) return Killed("bind failed: " + bound.status().message());
    constraint::EvalContext ctx{&cfx.db(), &cfx.update(), cfx.now()};
    auto got = constraint::EvaluateSpecByScan(*bound, ctx);
    if (!got.ok()) return Killed("scan errored: " + got.status().message());
    if (!(*got == Value::Int64(100))) {
      return Killed("scalar window scan pulled in the start-boundary row");
    }
    return Survived("scan-path window start still exclusive");
  };
  d["PROG_SCAN_WHERE_SKIP"] = [&cfx] {
    // `hours > update.hours` compares a row against the update outside the
    // single equality selector, so the cache must route it to the scalar
    // scan. Golden: only t5 (100) exceeds update.hours = 50.
    const std::string text = "SUM(worklog.hours WHERE hours > update.hours)";
    constraint::AggregateCache cache;
    auto got = EvalCompiled(cfx.db(), cfx.update(), cfx.now(), text, cache);
    if (cache.stats().scan_evals != 1) {
      return Killed("non-cacheable golden no longer takes the scan path");
    }
    if (!got.ok()) return Killed("scan errored: " + got.status().message());
    if (!(*got == Value::Int64(100))) {
      return Killed("scan folded rows its WHERE predicate rejects");
    }
    return Survived("scan-path WHERE still filters rows");
  };
  d["AGG_CACHE_EVICT_SKIP"] = [] {
    storage::Database db;
    if (!CreateWorklogTable(db).ok()) return Killed("table setup failed");
    auto add = [&db](const char* id, int64_t hours, SimTime at) {
      Mutation m;
      m.op = Mutation::Op::kInsert;
      m.table = "worklog";
      m.row = {Value::String(id), Value::String("w1"), Value::Int64(hours),
               Value::Timestamp(at)};
      return db.Apply(m);
    };
    if (!add("e1", 10, 1 * kDay).ok() || !add("e2", 20, 3 * kDay).ok()) {
      return Killed("row setup failed");
    }
    auto e = constraint::ParseConstraint("SUM(worklog.hours WINDOW 3d)");
    if (!e.ok()) return Killed("parse failed: " + e.status().message());
    auto cc = constraint::CompileConstraint(**e);
    if (!cc.ok() || cc->aggs.size() != 1) {
      return Killed("window sum not compiled");
    }
    constraint::AggregateCache cache;
    constraint::UpdateFields u;
    constraint::EvalContext c1{&db, &u, 3 * kDay};
    auto v1 = cache.Evaluate(*cc->aggs[0], c1);
    if (!v1.ok() || !(*v1 == Value::Int64(30))) {
      return Killed("warm window sum wrong at build time");
    }
    // Advance now so e1 leaves the window: the monotone cursor must
    // subtract the evicted row from the running sum.
    constraint::EvalContext c2{&db, &u, 5 * kDay};
    auto v2 = cache.Evaluate(*cc->aggs[0], c2);
    if (!v2.ok()) return Killed("advance errored: " + v2.status().message());
    if (!(*v2 == Value::Int64(20))) {
      return Killed("evicted row still counted in the window sum");
    }
    return Survived("window eviction still subtracts departing rows");
  };
  d["AGG_CACHE_DELTA_SKIP"] = [] {
    storage::Database db;
    if (!CreateWorklogTable(db).ok()) return Killed("table setup failed");
    Mutation m0;
    m0.op = Mutation::Op::kInsert;
    m0.table = "worklog";
    m0.row = {Value::String("e1"), Value::String("w1"), Value::Int64(10),
              Value::Timestamp(1 * kDay)};
    if (!db.Apply(m0).ok()) return Killed("row setup failed");
    auto e = constraint::ParseConstraint("SUM(worklog.hours)");
    if (!e.ok()) return Killed("parse failed: " + e.status().message());
    auto cc = constraint::CompileConstraint(**e);
    if (!cc.ok() || cc->aggs.size() != 1) return Killed("sum not compiled");
    constraint::AggregateCache cache;
    constraint::UpdateFields u;
    constraint::EvalContext ctx{&db, &u, 2 * kDay};
    auto v1 = cache.Evaluate(*cc->aggs[0], ctx);
    if (!v1.ok() || !(*v1 == Value::Int64(10))) return Killed("build sum wrong");
    Mutation m1;
    m1.op = Mutation::Op::kInsert;
    m1.table = "worklog";
    m1.row = {Value::String("e2"), Value::String("w1"), Value::Int64(25),
              Value::Timestamp(1 * kDay + 1)};
    if (!db.Apply(m1).ok()) return Killed("insert failed");
    cache.OnCommitted(m1);
    auto v2 = cache.Evaluate(*cc->aggs[0], ctx);
    if (!v2.ok()) return Killed("post-commit eval errored");
    if (!(*v2 == Value::Int64(35))) {
      return Killed("committed insert missing from the cached sum");
    }
    return Survived("insert deltas still folded into the cached aggregate");
  };
  d["AGG_CACHE_EPOCH_SKIP"] = [] {
    storage::Database db;
    if (!CreateWorklogTable(db).ok()) return Killed("table setup failed");
    auto add = [&db](const char* id, int64_t hours) {
      Mutation m;
      m.op = Mutation::Op::kInsert;
      m.table = "worklog";
      m.row = {Value::String(id), Value::String("w1"), Value::Int64(hours),
               Value::Timestamp(1 * kDay)};
      return db.Apply(m);
    };
    if (!add("e1", 10).ok() || !add("e2", 20).ok()) {
      return Killed("row setup failed");
    }
    auto e = constraint::ParseConstraint("SUM(worklog.hours)");
    if (!e.ok()) return Killed("parse failed: " + e.status().message());
    auto cc = constraint::CompileConstraint(**e);
    if (!cc.ok() || cc->aggs.size() != 1) return Killed("sum not compiled");
    constraint::AggregateCache cache;
    constraint::UpdateFields u;
    constraint::EvalContext ctx{&db, &u, 2 * kDay};
    auto v1 = cache.Evaluate(*cc->aggs[0], ctx);
    if (!v1.ok() || !(*v1 == Value::Int64(30))) return Killed("build sum wrong");
    Mutation del;
    del.op = Mutation::Op::kDelete;
    del.table = "worklog";
    del.key = Value::String("e2");
    if (!db.Apply(del).ok()) return Killed("delete failed");
    cache.OnCommitted(del);
    auto v2 = cache.Evaluate(*cc->aggs[0], ctx);
    if (!v2.ok()) return Killed("post-delete eval errored");
    if (!(*v2 == Value::Int64(10))) {
      return Killed("deleted row still counted by the cached sum");
    }
    return Survived("non-insert commits still epoch-invalidate the cache");
  };
  d["AGG_CACHE_GROUP_COLLAPSE"] = [] {
    storage::Database db;
    if (!CreateWorklogTable(db).ok()) return Killed("table setup failed");
    auto add = [&db](const char* id, const char* worker, int64_t hours) {
      Mutation m;
      m.op = Mutation::Op::kInsert;
      m.table = "worklog";
      m.row = {Value::String(id), Value::String(worker), Value::Int64(hours),
               Value::Timestamp(1 * kDay)};
      return db.Apply(m);
    };
    if (!add("g1", "w1", 10).ok() || !add("g2", "w2", 20).ok()) {
      return Killed("row setup failed");
    }
    auto e = constraint::ParseConstraint(
        "SUM(worklog.hours WHERE worker = update.worker)");
    if (!e.ok()) return Killed("parse failed: " + e.status().message());
    auto cc = constraint::CompileConstraint(**e);
    if (!cc.ok() || cc->aggs.size() != 1) {
      return Killed("grouped sum not compiled");
    }
    constraint::AggregateCache cache;
    constraint::UpdateFields u = {{"worker", Value::String("w1")}};
    constraint::EvalContext ctx{&db, &u, 2 * kDay};
    auto v = cache.Evaluate(*cc->aggs[0], ctx);
    if (!v.ok()) return Killed("grouped eval errored: " + v.status().message());
    if (!(*v == Value::Int64(10))) {
      return Killed("other workers' rows leaked into the w1 group sum");
    }
    return Survived("group keys still partition the cached aggregate");
  };

  // -------------------------------------------------- crypto-negative
  d["ZKP_OPENING_ACCEPT"] = [&kfx] {
    if (crypto::VerifyOpening(kfx.params, kfx.c5.commitment, kfx.opening_bad)) {
      return Killed("tampered opening proof accepted");
    }
    return Survived("tampered opening proof still rejected");
  };
  d["ZKP_BIT_SPLIT_SKIP"] = [&kfx] {
    if (crypto::VerifyBit(kfx.params, kfx.c7.commitment, kfx.bit_forged)) {
      return Killed("dual-simulated bit proof (e0+e1 != e) accepted");
    }
    return Survived("forged challenge split still rejected");
  };
  d["ZKP_BIT_BRANCH0_SKIP"] = [&kfx] {
    if (crypto::VerifyBit(kfx.params, kfx.cb0.commitment, kfx.bit0_bad)) {
      return Killed("bit=0 proof with tampered branch-0 response accepted");
    }
    return Survived("tampered branch-0 equation still rejected");
  };
  d["ZKP_BIT_BRANCH1_SKIP"] = [&kfx] {
    if (crypto::VerifyBit(kfx.params, kfx.cb1.commitment, kfx.bit1_bad)) {
      return Killed("bit=1 proof with tampered branch-1 response accepted");
    }
    return Survived("tampered branch-1 equation still rejected");
  };
  d["ZKP_RANGE_WIDTH_SKIP"] = [&kfx] {
    if (crypto::VerifyRange(kfx.params, kfx.range5.commitment,
                            kfx.range5_proof, 5)) {
      return Killed("4-bit transcript accepted against a 5-bit claim");
    }
    return Survived("wrong-width transcript still rejected");
  };
  d["ZKP_RANGE_BIT_SKIP"] = [&kfx] {
    if (crypto::VerifyRange(kfx.params, kfx.range5.commitment,
                            kfx.range5_badbit, 4)) {
      return Killed("range proof with a tampered bit proof accepted");
    }
    return Survived("tampered bit proof still rejected");
  };
  d["ZKP_RANGE_PRODUCT_ACCEPT"] = [&kfx] {
    if (crypto::VerifyRange(kfx.params, kfx.c9.commitment, kfx.range5_proof,
                            4)) {
      return Killed("range proof for Commit(5) accepted against Commit(9)");
    }
    return Survived("unbound transcript still rejected");
  };
  d["ZKP_BATCH_SIGN_SKIP"] = [&kfx] {
    if (crypto::VerifyRange(kfx.params, kfx.nonresidue_statement,
                            kfx.nonresidue_even, 1)) {
      return Killed("non-residue transcript with even e0 accepted: its "
                    "branch-0 equation is off by a factor of -1");
    }
    return Survived("sign of every bit equation still checked");
  };
  d["ZKP_BATCH_UNIT_WEIGHTS"] = [&kfx] {
    // z0 + 1 on bit 0 and z0 - 1 on bit 1: the two h-offsets cancel in an
    // unweighted product.
    crypto::RangeProof tampered = kfx.range5_proof;
    BigInt& z0_a = tampered.bit_proofs[0].z0;
    BigInt& z0_b = tampered.bit_proofs[1].z0;
    z0_a = z0_a.AddMod(BigInt(1), kfx.params.q);
    z0_b = z0_b.SubMod(BigInt(1), kfx.params.q);
    if (crypto::VerifyRange(kfx.params, kfx.range5.commitment, tampered, 4)) {
      return Killed("offsetting z0 tampers on two bits accepted");
    }
    return Survived("equations still weighted independently");
  };
  d["ZKP_BATCH_SEED_OMITS_RESPONSES"] = [&kfx] {
    // Offsets rho0_1 on bit 0's z0 and -rho0_0 on bit 1's z0 cancel under
    // the untampered transcript's weights; weights that hash the responses
    // move with the tamper and expose it. Derived here, under whichever
    // mutant is active, not in the fixture.
    const BigInt& q = kfx.params.q;
    std::vector<BigInt> rho = crypto::zkp_internal::BatchWeights(
        kfx.range5.commitment, kfx.range5_proof);
    crypto::RangeProof tampered = kfx.range5_proof;
    BigInt& z0_a = tampered.bit_proofs[0].z0;
    BigInt& z0_b = tampered.bit_proofs[1].z0;
    z0_a = z0_a.AddMod(rho[2], q);
    z0_b = z0_b.SubMod(rho[0], q);
    if (crypto::VerifyRange(kfx.params, kfx.range5.commitment, tampered, 4)) {
      return Killed("z0 offsets chosen against the weights accepted");
    }
    return Survived("weights still bind the responses");
  };
  d["ZKP_UPPER_SLACK_ACCEPT"] = [&kfx] {
    if (crypto::VerifyUpperBound(kfx.params, kfx.c50.commitment,
                                 kfx.range5_proof, BigInt(40), 4)) {
      return Killed("50 <= 40 'proved' by an unrelated transcript");
    }
    return Survived("violating upper bound still rejected");
  };
  d["ZKP_LOWER_SLACK_ACCEPT"] = [&kfx] {
    if (crypto::VerifyLowerBound(kfx.params, kfx.c10.commitment,
                                 kfx.range5_proof, BigInt(20), 4)) {
      return Killed("10 >= 20 'proved' by an unrelated transcript");
    }
    return Survived("violating lower bound still rejected");
  };
  d["RSA_VERIFY_LENGTH_SKIP"] = [&kfx] {
    if (crypto::RsaVerify(kfx.rsa.pub, kfx.msg_a, kfx.sig_prefixed)) {
      return Killed("zero-prefixed (wrong-length) signature accepted");
    }
    return Survived("wrong-length signature still rejected");
  };
  d["RSA_VERIFY_RANGE_SKIP"] = [&kfx] {
    if (!kfx.have_overrange) {
      return Survived(
          "no sig + n fits the modulus width for this key; range mutant "
          "unreachable by a well-formed probe");
    }
    if (crypto::RsaVerify(kfx.rsa.pub, kfx.overrange_msg, kfx.overrange_sig)) {
      return Killed("signature value >= n accepted");
    }
    return Survived("over-range signature still rejected");
  };
  d["RSA_VERIFY_ACCEPT"] = [&kfx] {
    if (crypto::RsaVerify(kfx.rsa.pub, kfx.msg_b, kfx.sig_a)) {
      return Killed("signature for message A accepted for message B");
    }
    return Survived("cross-message signature still rejected");
  };
  d["INVMOD_HALVE_WITHOUT_MODULUS"] = [&kfx] {
    // The blinding-factor inverse of a token withdrawal, on the RSA modulus.
    const BigInt& n = kfx.rsa.pub.n;
    BigInt r = n - BigInt(12345);
    auto inv = r.InvMod(n);
    if (!inv.ok()) return Killed("invertible operand refused");
    if (r.MulMod(*inv, n) != BigInt(1)) {
      return Killed("r * InvMod(r) != 1 (mod n)");
    }
    return Survived("inverse still checks out");
  };
  d["RSA_CRT_FAULT_CHECK_SKIP"] = [&kfx] {
    // A corrupted dp makes the p-half wrong: the signer must refuse.
    crypto::RsaKeyPair bad = kfx.rsa;
    bad.dp = bad.dp + BigInt(2);
    auto sig = crypto::RsaSign(bad, kfx.msg_a);
    if (sig.ok()) return Killed("faulty CRT signature released");
    return Survived("faulty CRT signature withheld");
  };
  d["RSA_CRT_GARNER_OFF_BY_ONE"] = [&kfx] {
    auto sig = crypto::RsaSign(kfx.rsa, kfx.msg_a);
    if (!sig.ok()) return Killed("honest key failed its own fault check");
    if (*sig != kfx.sig_a) return Killed("signature differs from baseline");
    return Survived("signature matches the unmutated baseline");
  };
  d["PAILLIER_ENCRYPT_RANGE_SKIP"] = [&kfx] {
    Drbg drbg(5);
    auto ct = crypto::PaillierEncrypt(kfx.paillier.pub, kfx.paillier.pub.n,
                                      drbg);
    if (ct.ok()) return Killed("plaintext m = n encrypted without error");
    return Survived("out-of-range plaintext still rejected");
  };
  d["PAILLIER_DECRYPT_RANGE_SKIP"] = [&kfx] {
    Drbg drbg(6);
    auto ct = crypto::PaillierEncrypt(kfx.paillier.pub, BigInt(5), drbg);
    if (!ct.ok()) return Killed("honest encryption failed");
    crypto::PaillierCiphertext bad{ct->c + kfx.paillier.pub.n2};
    auto m = crypto::PaillierDecrypt(kfx.paillier, bad);
    if (m.ok()) return Killed("ciphertext >= n^2 decrypted without error");
    return Survived("out-of-range ciphertext still rejected");
  };
  d["MERKLE_INCLUSION_BOUNDS_SKIP"] = [&kfx] {
    Bytes root = crypto::MerkleTree::HashLeaf(kfx.merkle_leaf);
    if (crypto::MerkleTree::VerifyInclusion(kfx.merkle_leaf, 1, 1, {}, root)) {
      return Killed("index == tree_size accepted by inclusion verify");
    }
    return Survived("out-of-bounds index still rejected");
  };
  d["MERKLE_INCLUSION_ACCEPT"] = [] {
    crypto::MerkleTree t;
    t.Append(ToBytes("a"));
    t.Append(ToBytes("b"));
    t.Append(ToBytes("c"));
    auto proof = t.InclusionProof(0, 3);
    if (!proof.ok()) return Killed("inclusion proof generation failed");
    if (crypto::MerkleTree::VerifyInclusion(ToBytes("x"), 0, 3, *proof,
                                            t.Root())) {
      return Killed("wrong leaf accepted by inclusion verify");
    }
    return Survived("wrong leaf still rejected");
  };
  d["MERKLE_CONSISTENCY_ACCEPT"] = [] {
    crypto::MerkleTree t;
    for (const char* s : {"a", "b", "c", "d", "e"}) t.Append(ToBytes(s));
    auto proof = t.ConsistencyProof(2, 5);
    if (!proof.ok()) return Killed("consistency proof generation failed");
    Bytes wrong_old = crypto::MerkleTree::HashLeaf(ToBytes("not-the-root"));
    if (crypto::MerkleTree::VerifyConsistency(2, 5, wrong_old, t.Root(),
                                              *proof)) {
      return Killed("wrong old root accepted by consistency verify");
    }
    return Survived("wrong old root still rejected");
  };
  d["MERKLE_LEAF_DOMAIN_TAG"] = [&kfx] {
    crypto::MerkleTree t;
    t.Append(kfx.merkle_leaf);
    if (t.Root() != kfx.merkle_baseline_root) {
      return Killed("leaf domain tag changed the Merkle root");
    }
    return Survived("root still matches the unmutated baseline");
  };
  d["SHA256_NI_FEEDFORWARD_SKIP"] = [] {
    // The check of Sha256DiffTest: the dispatched compressor must agree
    // with the portable one on a (state, block) pair.
    namespace sha = crypto::sha256_internal;
    if (sha::Dispatched() == &sha::CompressPortable) {
      return Survived("CPU lacks the SHA extensions: SHA-NI path never runs");
    }
    uint32_t portable[8], dispatched[8];
    uint8_t block[64];
    for (int i = 0; i < 8; ++i) portable[i] = 0x9e3779b9u * (i + 1);
    for (int i = 0; i < 64; ++i) block[i] = static_cast<uint8_t>(7 * i + 1);
    std::memcpy(dispatched, portable, sizeof(portable));
    sha::CompressPortable(portable, block, 1);
    sha::Dispatched()(dispatched, block, 1);
    if (std::memcmp(portable, dispatched, sizeof(portable)) != 0) {
      return Killed("SHA-NI compressor disagrees with the portable one");
    }
    return Survived("SHA-NI compressor still matches the portable one");
  };

  // ------------------------------------------------------ ledger-audit
  d["LEDGER_AUDIT_ROOT_SKIP"] = [] {
    ledger::LedgerDb db;
    for (int i = 0; i < 3; ++i) db.Append(ToBytes("entry"), i);
    (void)db.TamperWithEntryForTest(1, ToBytes("rewritten"));
    if (db.Audit().ok()) return Killed("tampered payload passed the audit");
    return Survived("tampered payload still fails the audit");
  };
  d["LEDGER_AUDIT_SEQUENCE_SKIP"] = [] {
    ledger::LedgerDb db;
    for (int i = 0; i < 3; ++i) db.Append(ToBytes("entry"), i);
    (void)db.RenumberEntryForTest(2, 7);  // Root recommitted; only the
    if (db.Audit().ok()) {                // dense-sequence check can object.
      return Killed("renumbered entry passed the audit");
    }
    return Survived("sequence gap still fails the audit");
  };
  d["LEDGER_PROOF_SIZE_SKIP"] = [] {
    ledger::LedgerDb db;
    for (int i = 0; i < 3; ++i) {
      db.Append(ToBytes("entry " + std::to_string(i)), i);
    }
    auto entry = db.GetEntry(1);
    auto proof = db.ProveInclusion(1, 2);
    auto digest2 = db.DigestAt(2);
    if (!entry.ok() || !proof.ok() || !digest2.ok()) {
      return Killed("proof material generation failed");
    }
    // Mismatched wrapper: proof carved at size 2, digest claims size 3 but
    // carries the size-2 root, so the inner Merkle check succeeds and only
    // the preamble can reject.
    ledger::LedgerDigest digest{3, digest2->root};
    if (ledger::LedgerDb::VerifyInclusion(*entry, *proof, digest)) {
      return Killed("proof/digest size mismatch accepted");
    }
    return Survived("size mismatch still rejected by the preamble");
  };

  // ------------------------------------------------------ consensus-sim
  d["RAFT_VOTE_QUORUM_MINUS_ONE"] = [] {
    RaftRig rig(3, /*start_timers=*/true);
    rig.Run(350 * kMillisecond);  // Elections fire; nobody ever votes.
    if (rig.replica->role() == consensus::RaftReplica::Role::kLeader) {
      return Killed("candidate won with 1 of 3 votes");
    }
    return Survived("single self-vote still loses the election");
  };
  d["RAFT_ELECTION_RESTRICTION_SKIP"] = [] {
    RaftRig rig(3, /*start_timers=*/false);
    rig.SendAppendEntries(1, 1, 0, 0, 0, {{1, ToBytes("cmd")}});
    rig.Run(10 * kMillisecond);
    if (rig.replica->log_size() != 1) return Killed("log seeding failed");
    rig.captured.clear();
    // Spy 2 campaigns with an EMPTY log at a higher term.
    rig.SendRequestVote(2, 2, 0, 0);
    rig.Run(10 * kMillisecond);
    for (const net::Message& m : rig.captured) {
      if (m.type != kRaftVoteReply || m.to != 2) continue;
      BinaryReader r(m.payload);
      (void)r.ReadU64();
      auto grant = r.ReadBool();
      if (grant.ok() && *grant) {
        return Killed("vote granted to a candidate with a stale log");
      }
      return Survived("stale-log candidate still denied");
    }
    return Killed("no vote reply observed");
  };
  d["RAFT_STALE_TERM_ACCEPT"] = [] {
    RaftRig rig(3, /*start_timers=*/false);
    rig.SendRequestVote(1, 5, 0, 0);  // Push the replica to term 5.
    rig.Run(10 * kMillisecond);
    rig.SendAppendEntries(2, 3, 0, 0, 0, {{3, ToBytes("stale")}});
    rig.Run(10 * kMillisecond);
    if (rig.replica->log_size() == 1) {
      return Killed("stale-term AppendEntries appended an entry");
    }
    return Survived("stale-term AppendEntries still refused");
  };
  d["RAFT_LOG_MATCH_SKIP"] = [] {
    RaftRig rig(3, /*start_timers=*/false);
    rig.SendAppendEntries(1, 1, 0, 0, 0, {{1, ToBytes("cmd1")}});
    rig.Run(10 * kMillisecond);
    if (rig.replica->log_size() != 1) return Killed("log seeding failed");
    // prev entry exists but with term 1, not the claimed term 9.
    rig.SendAppendEntries(1, 1, 1, 9, 0, {{1, ToBytes("cmd2")}});
    rig.Run(10 * kMillisecond);
    if (rig.replica->log_size() == 2) {
      return Killed("entry appended despite prev-term mismatch");
    }
    return Survived("prev-term mismatch still refused");
  };
  d["RAFT_COMMIT_QUORUM_MINUS_ONE"] = [] {
    RaftRig rig(5, /*start_timers=*/true);  // Majority is 3.
    if (!rig.ElectLeader({1, 2})) return Survived("no leader elected");
    if (!rig.replica->Submit(ToBytes("op")).ok()) {
      return Survived("leader submit failed");
    }
    rig.Run(10 * kMillisecond);
    rig.SendAppendReply(1, rig.replica->term(), true, 1);  // 2 of 5 match.
    rig.Run(10 * kMillisecond);
    if (rig.replica->commit_index() >= 1) {
      return Killed("entry committed with 2 of 5 replicas matching");
    }
    return Survived("entry still uncommitted below majority");
  };
  d["RAFT_COMMIT_FOREIGN_TERM"] = [] {
    RaftRig rig(3, /*start_timers=*/false);
    rig.SendAppendEntries(1, 1, 0, 0, 0, {{1, ToBytes("old")}});
    rig.Run(10 * kMillisecond);
    if (rig.replica->log_size() != 1) return Killed("log seeding failed");
    rig.replica->Start();  // Now campaign past term 1.
    if (!rig.ElectLeader({1})) return Survived("no leader elected");
    if (rig.replica->TermAt(1) >= rig.replica->term()) {
      return Survived("seeded entry unexpectedly at the current term");
    }
    rig.SendAppendReply(2, rig.replica->term(), true, 1);  // Quorum on idx 1.
    rig.Run(10 * kMillisecond);
    if (rig.replica->commit_index() >= 1) {
      return Killed("prior-term entry committed by count alone");
    }
    return Survived("prior-term entry still held back");
  };
  d["PBFT_PRIMARY_CHECK_SKIP"] = [] {
    PbftRig rig;
    rig.SendPrePrepare(2, 0, 1, ToBytes("impostor"));  // Primary of v0 is 0.
    rig.Run(10 * kMillisecond);
    if (rig.CountFromReplica(kPbftPrepare) > 0) {
      return Killed("backup prepared a pre-prepare from a non-primary");
    }
    return Survived("non-primary pre-prepare still ignored");
  };
  d["PBFT_WATERMARK_SKIP"] = [] {
    PbftRig rig(/*watermark_window=*/1);  // Backup cap: last_executed + 2.
    rig.SendPrePrepare(0, 0, 3, ToBytes("beyond"));
    rig.Run(10 * kMillisecond);
    if (rig.CountFromReplica(kPbftPrepare) > 0) {
      return Killed("pre-prepare beyond the high watermark prepared");
    }
    return Survived("beyond-watermark pre-prepare still deferred");
  };
  d["PBFT_CONFLICTING_DIGEST_ACCEPT"] = [] {
    PbftRig rig;
    rig.SendPrePrepare(0, 0, 1, ToBytes("cmd-A"));
    rig.Run(10 * kMillisecond);
    rig.captured.clear();
    rig.SendPrePrepare(0, 0, 1, ToBytes("cmd-B"));  // Equivocation.
    rig.Run(10 * kMillisecond);
    Bytes digest_b = crypto::Sha256::Hash(ToBytes("cmd-B"));
    if (rig.CountFromReplica(kPbftPrepare, &digest_b) > 0) {
      return Killed("conflicting second pre-prepare prepared");
    }
    return Survived("conflicting pre-prepare still refused");
  };
  d["PBFT_PREPARE_QUORUM_MINUS_ONE"] = [] {
    PbftRig rig;
    Bytes cmd = ToBytes("cmd");
    // The pre-prepare is the primary's vote: prepares = {0, 1}, one short
    // of 3.
    rig.SendPrePrepare(0, 0, 1, cmd);
    rig.Run(10 * kMillisecond);
    if (rig.CountFromReplica(kPbftCommit) > 0) {
      return Killed("commit sent with 2f prepares");
    }
    return Survived("no commit below the 2f+1 prepare quorum");
  };
  d["PBFT_COMMIT_QUORUM_MINUS_ONE"] = [] {
    PbftRig rig;
    Bytes cmd = ToBytes("cmd");
    Bytes digest = crypto::Sha256::Hash(cmd);
    rig.SendPrePrepare(0, 0, 1, cmd);
    rig.Run(10 * kMillisecond);
    rig.SendPrepare(2, 0, 1, digest);
    rig.SendPrepare(3, 0, 1, digest);  // Prepared; replica commits itself.
    rig.Run(10 * kMillisecond);
    rig.SendCommit(0, 0, 1, digest);  // commits = {0, 1}: one short of 3.
    rig.Run(10 * kMillisecond);
    if (rig.replica->num_executed() >= 1) {
      return Killed("executed with 2f commits");
    }
    return Survived("no execution below the 2f+1 commit quorum");
  };
  d["PBFT_EXEC_DEDUP_SKIP"] = [] {
    PbftRig rig;
    Bytes cmd = ToBytes("cmd");
    Bytes digest = crypto::Sha256::Hash(cmd);
    for (uint64_t seq = 1; seq <= 2; ++seq) {  // Same command, two slots.
      rig.SendPrePrepare(0, 0, seq, cmd);
      rig.Run(8 * kMillisecond);
      rig.SendPrepare(2, 0, seq, digest);
      rig.SendPrepare(3, 0, seq, digest);
      rig.Run(8 * kMillisecond);
      rig.SendCommit(0, 0, seq, digest);
      rig.SendCommit(2, 0, seq, digest);
      rig.Run(8 * kMillisecond);
    }
    if (rig.replica->num_executed() >= 2) {
      return Killed("duplicate request digest executed twice");
    }
    return Survived("duplicate digest still executed once");
  };
  d["PBFT_VIEWCHANGE_STALE_ACCEPT"] = [] {
    PbftRig rig;
    rig.SendNewView(0, 8);  // 8 % 4 == 0: node 0 may install view 8.
    rig.Run(8 * kMillisecond);
    if (rig.replica->view() != 8) return Killed("NewView(8) not installed");
    // Two ViewChange(10) messages put the replica in view_changing_ state
    // without installing anything (10 % 4 == 2, not us).
    rig.SendViewChange(0, 10);
    rig.SendViewChange(2, 10);
    rig.Run(8 * kMillisecond);
    // Stale view changes: 5 < 8, but 5 % 4 == 1 == our id, so the mutant
    // walks into MaybeBecomeNewPrimary(5) and installs a view REGRESSION.
    rig.SendViewChange(0, 5);
    rig.SendViewChange(2, 5);
    rig.SendViewChange(3, 5);
    rig.Run(8 * kMillisecond);
    if (rig.replica->view() == 5) {
      return Killed("stale ViewChange(5) regressed the view from 8 to 5");
    }
    return Survived("stale view changes still discarded");
  };

  // ---------------------------------------------------------- recovery
  d["RECOVERY_CRC_CHECK_SKIP"] = [] {
    std::string dir = RecoveryScratchDir("crc_skip");
    recovery::CheckpointStore store(dir);
    if (!store.Init().ok()) return Killed("checkpoint store init failed");
    ledger::LedgerDb ledger;
    ledger.Append(ToBytes("crc-entry-0"), 1);
    ledger.Append(ToBytes("crc-entry-1"), 2);
    recovery::CheckpointContents contents;
    contents.ledger = &ledger;
    contents.consensus_seq = 2;
    contents.app_state = ToBytes("app-state-blob");
    if (!store.Save(contents).ok()) return Killed("checkpoint save failed");
    // Flip the file's final byte: it lands in the app-state record body,
    // so every frame length stays intact and only the CRC can object.
    std::vector<std::string> files = store.ListFiles();
    if (files.empty()) return Killed("no checkpoint file on disk");
    std::string path = dir + "/" + files.back();
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr) return Killed("cannot reopen checkpoint file");
    std::fseek(f, -1, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
    if (store.LoadLatest().ok()) {
      return Killed("corrupt checkpoint loaded despite a CRC mismatch");
    }
    return Survived("corrupt checkpoint still quarantined");
  };
  d["RECOVERY_ROOT_CHECK_SKIP"] = [] {
    std::string dir = RecoveryScratchDir("root_skip");
    recovery::CheckpointStore store(dir);
    if (!store.Init().ok()) return Killed("checkpoint store init failed");
    ledger::LedgerDb ledger;
    ledger.Append(ToBytes("root-entry-A"), 1);
    ledger.Append(ToBytes("root-entry-B"), 2);
    recovery::CheckpointContents contents;
    contents.ledger = &ledger;
    contents.consensus_seq = 2;
    if (!store.Save(contents).ok()) return Killed("checkpoint save failed");
    // Swap the first embedded ledger entry for a different one, re-framed
    // with a valid CRC: every record parses, but the recomputed Merkle
    // root no longer matches the manifest's commitment.
    std::vector<std::string> files = store.ListFiles();
    if (files.empty()) return Killed("no checkpoint file on disk");
    std::string path = dir + "/" + files.back();
    auto records = storage::WriteAheadLog::Recover(path);
    if (!records.ok() || records->size() < 2) {
      return Killed("cannot parse checkpoint frames");
    }
    ledger::LedgerDb other;
    other.Append(ToBytes("root-entry-X"), 1);
    auto swapped = other.GetEntry(0);
    if (!swapped.ok()) return Killed("cannot build substitute entry");
    (*records)[1] = swapped->Encode();
    if (!storage::WriteAheadLog::Rewrite(path, *records).ok()) {
      return Killed("cannot rewrite checkpoint file");
    }
    if (store.LoadLatest().ok()) {
      return Killed("checkpoint loaded with a mismatched Merkle root");
    }
    return Survived("root-mismatched checkpoint still rejected");
  };
  d["RECOVERY_STALE_CHECKPOINT_ACCEPT"] = [] {
    std::string dir = RecoveryScratchDir("stale_accept");
    recovery::CheckpointStore store(dir);
    if (!store.Init().ok()) return Killed("checkpoint store init failed");
    ledger::LedgerDb ledger;
    for (int i = 0; i < 3; ++i) {
      ledger.Append(ToBytes("stale-" + std::to_string(i)), i + 1);
    }
    recovery::CheckpointContents contents;
    contents.ledger = &ledger;
    contents.consensus_seq = 3;
    if (!store.Save(contents).ok()) return Killed("first save failed");
    for (int i = 3; i < 6; ++i) {
      ledger.Append(ToBytes("stale-" + std::to_string(i)), i + 1);
    }
    contents.consensus_seq = 6;
    if (!store.Save(contents).ok()) return Killed("second save failed");
    auto loaded = store.LoadLatest();
    if (!loaded.ok()) return Killed("no checkpoint loaded");
    if (loaded->manifest.consensus_seq != 6) {
      return Killed("stale checkpoint restored over the newest intact one");
    }
    return Survived("newest intact checkpoint still wins");
  };
  d["RECOVERY_REPLAY_OFF_BY_ONE"] = [] {
    ledger::LedgerDb full;
    ledger::LedgerDb restored;
    for (int i = 0; i < 4; ++i) {
      Bytes payload = ToBytes("replay-" + std::to_string(i));
      full.Append(payload, i + 1);
      if (i < 2) restored.Append(payload, i + 1);  // Checkpoint covers 2.
    }
    std::vector<Bytes> records;
    for (uint64_t seq = 0; seq < full.size(); ++seq) {
      auto entry = full.GetEntry(seq);
      if (!entry.ok()) return Killed("cannot encode journal record");
      records.push_back(entry->Encode());
    }
    auto appended = recovery::ReplayLedgerSuffix(records, &restored);
    if (!appended.ok() || restored.size() != 4) {
      return Killed("replay dropped the first post-checkpoint entry");
    }
    if (restored.Digest().root != full.Digest().root) {
      return Killed("replayed ledger diverged from the source");
    }
    return Survived("suffix replay still lands every entry");
  };
  d["RAFT_COMPACT_BEYOND_APPLIED"] = [] {
    RaftRig rig(3, /*start_timers=*/false);
    rig.SendAppendEntries(
        1, 1, 0, 0, /*commit=*/2,
        {{1, ToBytes("c1")}, {1, ToBytes("c2")}, {1, ToBytes("c3")}});
    rig.Run(10 * kMillisecond);
    if (rig.replica->log_size() != 3) return Killed("log seeding failed");
    // Entry 3 is committed=2's successor: in the log but never applied.
    auto reclaimed = rig.replica->CompactTo(3, ToBytes("snap"));
    if (!reclaimed.ok()) return Killed("compaction failed outright");
    if (rig.replica->snapshot_index() > 2) {
      return Killed("compaction discarded an entry never applied");
    }
    return Survived("compaction still clamped to the applied prefix");
  };
  d["RAFT_SNAPSHOT_STALE_ACCEPT"] = [] {
    RaftRig rig(3, /*start_timers=*/false);
    std::vector<uint64_t> installs;
    rig.replica->SetSnapshotInstaller(
        [&installs](uint64_t index, const Bytes&) {
          installs.push_back(index);
        });
    auto send_snapshot = [&rig](uint64_t index, const std::string& blob) {
      BinaryWriter w;
      w.WriteU64(1);  // term
      w.WriteU64(index);
      w.WriteU64(1);  // snapshot term
      w.WriteBytes(ToBytes(blob));
      rig.net.Send(1, 0, kRaftInstallSnapshot, w.bytes());
    };
    send_snapshot(10, "snap-10");
    rig.Run(10 * kMillisecond);
    if (rig.replica->snapshot_index() != 10) {
      return Killed("fresh snapshot was not installed");
    }
    send_snapshot(5, "snap-5");  // Stale: covered by the idx-10 install.
    rig.Run(10 * kMillisecond);
    if (installs.size() >= 2) {
      return Killed("stale snapshot reinstalled, rewinding restored state");
    }
    return Survived("stale snapshot still acknowledged without installing");
  };
  d["PBFT_STATE_MATCH_QUORUM_MINUS_ONE"] = [] {
    PbftRig rig;  // f = 1: state install requires f+1 = 2 vouchers.
    // A self-consistent stable state at seq 4 with nothing executed: the
    // certificate's running hash over zero digests is its 32-byte seed.
    BinaryWriter cert;
    cert.WriteU64(4);  // Claimed stable sequence.
    cert.WriteU64(0);  // No executed digests...
    cert.WriteBytes(Bytes(32, 0));  // ...so the running hash is the seed.
    cert.WriteBytes(Bytes{});       // No app-summary callback set.
    BinaryWriter state;
    state.WriteBytes(cert.bytes());
    state.WriteU64(0);         // Digest list.
    state.WriteBytes(Bytes{});  // Empty app state.
    BinaryWriter w;
    w.WriteU64(0);  // view
    w.WriteBytes(state.bytes());
    w.WriteU32(0);  // Empty executed suffix.
    rig.net.Send(0, 1, kPbftStateResponse, w.bytes());
    rig.Run(8 * kMillisecond);
    if (rig.replica->last_executed() >= 4) {
      return Killed("checkpoint installed from a single (f) voucher");
    }
    return Survived("state transfer still demands f+1 matching vouchers");
  };
  d["PBFT_GC_BEYOND_STABLE"] = [] {
    PbftRig rig(/*watermark_window=*/128, /*checkpoint_interval=*/2);
    Bytes c1 = ToBytes("gc-cmd-1");
    Bytes c2 = ToBytes("gc-cmd-2");
    Bytes c3 = ToBytes("gc-cmd-3");
    auto execute = [&rig](uint64_t seq, const Bytes& cmd) {
      Bytes digest = crypto::Sha256::Hash(cmd);
      rig.SendPrePrepare(0, 0, seq, cmd);
      rig.Run(8 * kMillisecond);
      rig.SendPrepare(2, 0, seq, digest);
      rig.SendPrepare(3, 0, seq, digest);
      rig.Run(8 * kMillisecond);
      rig.SendCommit(0, 0, seq, digest);
      rig.SendCommit(2, 0, seq, digest);
      rig.Run(8 * kMillisecond);
    };
    execute(1, c1);
    execute(2, c2);  // Interval boundary: replica checkpoints itself here.
    execute(3, c3);
    if (rig.replica->last_executed() != 3) {
      return Killed("execution never reached seq 3");
    }
    if (!rig.replica->HasSlot(3)) return Killed("slot 3 missing before GC");
    // Forge the two missing checkpoint votes for the replica's OWN
    // certificate at seq 2 by echoing the checkpoint it broadcast;
    // stabilization then garbage-collects the log below the watermark.
    Bytes own_cert;
    for (const net::Message& m : rig.captured) {
      if (m.type == kPbftCheckpoint && m.from == 1) own_cert = m.payload;
    }
    if (own_cert.empty()) return Killed("no checkpoint broadcast at seq 2");
    rig.net.Send(0, 1, kPbftCheckpoint, own_cert);
    rig.net.Send(2, 1, kPbftCheckpoint, own_cert);
    rig.Run(8 * kMillisecond);
    if (rig.replica->stable_checkpoint_seq() != 2) {
      return Killed("checkpoint at seq 2 never stabilized");
    }
    if (!rig.replica->HasSlot(3)) {
      return Killed("GC erased the slot just above the stable watermark");
    }
    return Survived("slots above the stable watermark still retained");
  };

  // ----------------------------------------------------------- engine
  d["ENC_WINDOW_START_INCLUSIVE"] = [&efx] {
    core::CentralizedOrdering ordering;
    core::EncryptedEngine engine(
        &efx.owner, &ordering, "worker", "hours",
        {{constraint::BoundDirection::kUpper, 8, 100, 32}}, 8,
        efx.probe_counter + 1);
    std::string w = efx.FreshName("wsi");
    Status s1 = engine.SubmitUpdate(MakeWorklogUpdate("u1", w, 5, 50));
    // Window (50, 150] excludes the first row; total 4 <= 8 must pass.
    Status s2 = engine.SubmitUpdate(MakeWorklogUpdate("u2", w, 4, 150));
    if (!s1.ok()) return Killed("in-window accept flipped: " + s1.message());
    if (!s2.ok()) {
      return Killed("row at ts == now - window counted into the aggregate");
    }
    return Survived("expired edge row still excluded");
  };
  d["ENC_WINDOW_END_EXCLUSIVE"] = [&efx] {
    core::CentralizedOrdering ordering;
    core::EncryptedEngine engine(
        &efx.owner, &ordering, "worker", "hours",
        {{constraint::BoundDirection::kUpper, 8, 100, 32}}, 8,
        efx.probe_counter + 1);
    std::string w = efx.FreshName("wee");
    Status s1 = engine.SubmitUpdate(MakeWorklogUpdate("u1", w, 5, 200));
    // Same timestamp: 5 + 4 = 9 > 8 must be rejected.
    Status s2 = engine.SubmitUpdate(MakeWorklogUpdate("u2", w, 4, 200));
    if (!s1.ok()) return Killed("first accept flipped: " + s1.message());
    if (s2.ok()) {
      return Killed("row at ts == now dropped from the aggregate");
    }
    return Survived("same-timestamp row still counted");
  };
  d["ENC_BOUND_OFFBYONE"] = [&efx] {
    Drbg drbg(41);
    const auto& pub = efx.owner.paillier_pub();
    const auto& params = efx.owner.pedersen();
    BigInt r(12345);
    auto enc_v = crypto::PaillierEncrypt(pub, BigInt(9), drbg);
    auto enc_r = crypto::PaillierEncrypt(pub, r, drbg);
    if (!enc_v.ok() || !enc_r.ok()) return Killed("encryption failed");
    auto cm = crypto::PedersenCommit(params, BigInt(9), r);
    auto proof = efx.owner.AttestUpperBound(*enc_v, *enc_r, cm, 8, 16);
    // Correct: 9 > 8 is a ConstraintViolation. The mutant lets 9 through
    // the bound check and then fails INSIDE proof generation instead
    // (InvalidArgument) — the status code is the observable difference.
    if (!proof.ok() &&
        proof.status().code() == StatusCode::kConstraintViolation) {
      return Survived("total == bound + 1 still reported as a violation");
    }
    return Killed("bound + 1 no longer classified as a constraint violation");
  };
  d["ENC_BINDING_SKIP"] = [&efx] {
    Drbg drbg(43);
    const auto& pub = efx.owner.paillier_pub();
    const auto& params = efx.owner.pedersen();
    auto enc_v = crypto::PaillierEncrypt(pub, BigInt(5), drbg);
    auto enc_r = crypto::PaillierEncrypt(pub, BigInt(7), drbg);
    if (!enc_v.ok() || !enc_r.ok()) return Killed("encryption failed");
    // Commitment opens to 6, ciphertexts decrypt to 5: inconsistent.
    auto cm = crypto::PedersenCommit(params, BigInt(6), BigInt(7));
    auto proof = efx.owner.AttestUpperBound(*enc_v, *enc_r, cm, 10, 16);
    if (proof.ok()) {
      return Killed("attested totals that contradict the commitment");
    }
    return Survived("ciphertext/commitment mismatch still rejected");
  };
  d["ENC_RANGE_PROOF_SKIP"] = [&efx] {
    core::CentralizedOrdering ordering;
    core::EncryptedEngine engine(
        &efx.owner, &ordering, "worker", "hours",
        {{constraint::BoundDirection::kUpper, 100, 0, 32}}, 8,
        efx.probe_counter + 1);
    std::string w = efx.FreshName("rps");
    auto sealed = engine.Seal(MakeWorklogUpdate("u1", w, 5, 10));
    if (!sealed.ok()) return Killed("sealing failed");
    sealed->sealed.range_proof.bit_proofs[0].z0 =
        sealed->sealed.range_proof.bit_proofs[0].z0.AddMod(
            BigInt(1), efx.owner.pedersen().q);
    Status s = engine.SubmitSealed(*sealed);
    if (s.ok()) return Killed("update accepted with a broken range proof");
    return Survived("broken producer range proof still rejected");
  };
  d["ENC_ATTEST_ACCEPT"] = [&efx] {
    // A Byzantine owner attests every upper bound against a loosened
    // statement: the returned proof is well-formed — for the WRONG bound.
    // Only the manager-side VerifyUpperBound (the mutated decision) stands
    // between that proof and a compliance certificate.
    class ByzantineOwner : public core::DataOwner {
     public:
      using core::DataOwner::DataOwner;
      Result<crypto::RangeProof> AttestUpperBound(
          const crypto::PaillierCiphertext& total_value_ct,
          const crypto::PaillierCiphertext& total_rand_ct,
          const crypto::PedersenCommitment& total_cm, int64_t bound,
          size_t slack_bits) override {
        return core::DataOwner::AttestUpperBound(
            total_value_ct, total_rand_ct, total_cm, bound + 1024, slack_bits);
      }
    };
    // Static: one Paillier keygen shared by the clean pass and the matrix.
    static ByzantineOwner byzantine{320, crypto::PedersenParams::Test256(),
                                    1313};
    core::CentralizedOrdering ordering;
    core::EncryptedEngine engine(
        &byzantine, &ordering, "worker", "hours",
        {{constraint::BoundDirection::kUpper, 100, 0, 32}}, 8,
        efx.probe_counter + 1);
    std::string w = efx.FreshName("byz");
    Status s = engine.SubmitUpdate(MakeWorklogUpdate("u1", w, 5, 10));
    if (s.ok()) {
      return Killed("proof for a loosened bound accepted as the attestation");
    }
    if (s.code() != StatusCode::kIntegrityViolation) {
      return Killed("wrong-statement proof misclassified: " + s.message());
    }
    return Survived("wrong-statement attestation still rejected by verify");
  };
  d["TOKEN_BUDGET_OFFBYONE"] = [&efx] {
    token::TokenWallet wallet(efx.authority.public_key(),
                              7000 + efx.probe_counter);
    std::string who = efx.FreshName("budget");
    auto got = wallet.Withdraw(efx.authority, who, 4, 10);  // Budget is 3.
    if (!got.ok() && wallet.NumTokens() == 0) {
      return Killed("withdrawal failed outright: " + got.status().message());
    }
    Detection direct =
        wallet.NumTokens() > 3
            ? Killed("authority issued past the period budget")
            : Survived("issuance still capped at the period budget");
    TokenEngineRig rig(efx);
    if (!rig.setup.ok()) return Killed("platform setup failed");
    std::string worker = efx.FreshName("ftebudget");
    Status s = rig.engine.SubmitVia(
        0, MakeWorklogUpdate("u-" + worker, worker, 4, 10));
    Detection engine =
        s.ok() ? Killed("engine spent past the period budget")
               : Survived("engine still rejects a spend past the budget");
    return KilledThroughBoth(direct, engine);
  };
  d["TOKEN_SIG_ACCEPT"] = [&efx] {
    token::Token forged;
    forged.serial = ToBytes(efx.FreshName("forged-serial"));
    forged.signature = Bytes(efx.authority.public_key().ModulusBytes(), 0x5a);
    token::TokenVerifier verifier(efx.authority.public_key());
    ledger::LedgerDb ledger;
    Detection direct = verifier.Spend(forged, ledger, 10).ok()
                           ? Killed("forged token signature accepted")
                           : Survived("forged token signature still rejected");
    TokenEngineRig rig(efx);
    if (!rig.setup.ok()) return Killed("platform setup failed");
    std::string who = efx.FreshName("ftesig");
    rig.engine.WalletOf(who).PutForTest(forged);
    Status s =
        rig.engine.SubmitVia(0, MakeWorklogUpdate("u-" + who, who, 1, 10));
    Detection engine = s.ok() ? Killed("spend with a forged signature accepted")
                              : Survived("forged token spend still rejected");
    return KilledThroughBoth(direct, engine);
  };
  d["TOKEN_DOUBLE_SPEND_SKIP"] = [&efx] {
    token::TokenWallet wallet(efx.authority.public_key(),
                              8000 + efx.probe_counter);
    std::string who = efx.FreshName("dspend");
    auto got = wallet.Withdraw(efx.authority, who, 1, 10);
    if (!got.ok() || wallet.NumTokens() != 1) {
      return Killed("withdrawal failed");
    }
    auto tok = wallet.Take();
    if (!tok.ok()) return Killed("wallet take failed");
    token::TokenVerifier verifier(efx.authority.public_key());
    ledger::LedgerDb ledger;
    if (!verifier.Spend(*tok, ledger, 10).ok()) {
      return Killed("first spend rejected");
    }
    Detection direct = verifier.Spend(*tok, ledger, 10).ok()
                           ? Killed("same serial spent twice")
                           : Survived("double spend still detected");

    // The engine replays one serial across two updates.
    TokenEngineRig rig(efx);
    if (!rig.setup.ok()) return Killed("platform setup failed");
    std::string replayer = efx.FreshName("ftedup");
    token::TokenWallet& engine_wallet = rig.engine.WalletOf(replayer);
    auto fresh = engine_wallet.Withdraw(efx.authority, replayer, 1, 10);
    if (!fresh.ok() || engine_wallet.NumTokens() != 1) {
      return Killed("engine withdrawal failed");
    }
    auto replayed = engine_wallet.Take();
    if (!replayed.ok()) return Killed("engine wallet take failed");
    engine_wallet.PutForTest(*replayed);  // Same serial, twice.
    engine_wallet.PutForTest(*replayed);
    Status s1 = rig.engine.SubmitVia(
        0, MakeWorklogUpdate("a-" + replayer, replayer, 1, 10));
    if (!s1.ok()) return Killed("first engine spend rejected: " + s1.message());
    Status s2 = rig.engine.SubmitVia(
        0, MakeWorklogUpdate("b-" + replayer, replayer, 1, 11));
    Detection engine = s2.ok() ? Killed("replayed serial accepted by the engine")
                               : Survived("replayed serial still rejected");
    return KilledThroughBoth(direct, engine);
  };

  // ------------------------------------------------------- commit-order
  d["COMMIT_APPLY_ON_UNSETTLED"] = [] {
    // The append fails and the settling Flush returns OK without the
    // payload on the ledger: the step must not apply it.
    core::FailingAppendOrdering ordering(/*fail_at=*/0);
    bool applied = false;
    Status s = core::OrderThenApply(ordering, ToBytes("update"), 10, [&] {
      applied = true;
      return Status::Ok();
    });
    if (s.ok()) return Killed("failed append reported as committed");
    return applied ? Killed("applied an update the ledger does not hold")
                   : Survived("unledgered update still left unapplied");
  };
  d["RESTART_JOURNAL_NOT_REPLAYED"] = [] {
    // A backup commits past its first durable checkpoint, crashes and
    // restarts: before consensus re-delivers anything, its durable record
    // alone must rebuild the ledger it had at the crash.
    const std::string dir = RecoveryScratchDir("restart_journal");
    core::PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-mutation",
                                core::OrderingPipelineConfig(),
                                /*checkpoint_interval=*/4, dir);
    for (int k = 0; k < 6; ++k) {
      if (!ordering.Append(ToBytes("r" + std::to_string(k)), 0).ok()) {
        return Killed("append failed");
      }
    }
    ordering.network().RunUntil(ordering.network().Now() + kSecond);
    const ledger::LedgerDigest at_crash = ordering.ReplicaLedger(3).Digest();
    if (!ordering.CrashReplica(3).ok() || !ordering.RestartReplica(3).ok()) {
      return Killed("crash/restart failed");
    }
    const bool rebuilt = ordering.ReplicaLedger(3).Digest() == at_crash;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return rebuilt ? Survived("the journal suffix is still replayed")
                   : Killed("restart lost the commits past the checkpoint");
  };

  return d;
}

// Sites whose survival is expected and documented; they count against the
// kill rate but are listed with their rationale instead of failing silently.
// Currently empty: the last documented survivor (ENC_ATTEST_ACCEPT) fell to
// the Byzantine-owner negative-path probe.
const std::map<std::string, std::string>& ExpectedSurvivors() {
  static const std::map<std::string, std::string> kExpected = {};
  return kExpected;
}

struct SiteOutcome {
  const mutate::SiteInfo* info = nullptr;
  bool reached = false;
  bool killed = false;
  std::string rationale;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

int RunDriver(int argc, char** argv) {
  ConstraintFixture cfx;
  CryptoFixture kfx;
  EngineFixture efx;
  auto detectors = BuildDetectors(cfx, kfx, efx);

  // Every site must have a detector; every detector must name a site.
  bool wired = true;
  for (size_t i = 0; i < mutate::kNumMutationSites; ++i) {
    const mutate::SiteInfo& info = mutate::AllSites()[i];
    if (detectors.find(info.name) == detectors.end()) {
      std::printf("UNWIRED site %s has no detector\n", info.name);
      wired = false;
    }
  }
  for (const auto& [name, fn] : detectors) {
    if (mutate::FindSiteByName(name) == nullptr) {
      std::printf("UNKNOWN detector %s names no registered site\n",
                  name.c_str());
      wired = false;
    }
  }
  if (!wired) return 2;

  // Single-site debug mode: mutate + detect one site, verbosely.
  if (argc > 1) {
    const mutate::SiteInfo* info = mutate::FindSiteByName(argv[1]);
    if (info == nullptr) {
      std::printf("unknown site '%s'\n", argv[1]);
      return 2;
    }
    mutate::ResetReachedFlags();
    mutate::ActivateSite(info->site);
    Detection det = detectors.at(info->name)();
    bool reached = mutate::SiteReached(info->site);
    mutate::ClearActiveSite();
    std::printf("site      %s\n  category %s\n  location %s\n  mutant   %s\n",
                info->name, mutate::CategoryName(info->category),
                info->location, info->description);
    std::printf("  reached  %s\n  verdict  %s\n  why      %s\n",
                reached ? "yes" : "no", det.killed ? "KILLED" : "SURVIVED",
                det.rationale.c_str());
    return det.killed ? 0 : 1;
  }

  // Clean pass: no detector may flag correct code.
  mutate::ClearActiveSite();
  size_t clean_failures = 0;
  for (size_t i = 0; i < mutate::kNumMutationSites; ++i) {
    const mutate::SiteInfo& info = mutate::AllSites()[i];
    Detection det = detectors.at(info.name)();
    if (det.killed) {
      std::printf("CLEAN-FAIL %-32s %s\n", info.name, det.rationale.c_str());
      ++clean_failures;
    }
  }
  if (clean_failures > 0) {
    std::printf(
        "PREVER_MUTATION_REPORT {\"sites\":%zu,\"clean_failures\":%zu,"
        "\"killed\":0,\"kill_rate\":0.0,\"survivors\":[]}\n",
        mutate::kNumMutationSites, clean_failures);
    return 2;
  }

  // Mutation matrix.
  std::vector<SiteOutcome> outcomes;
  size_t killed = 0, reached = 0;
  for (size_t i = 0; i < mutate::kNumMutationSites; ++i) {
    const mutate::SiteInfo& info = mutate::AllSites()[i];
    mutate::ResetReachedFlags();
    mutate::ActivateSite(info.site);
    Detection det = detectors.at(info.name)();
    SiteOutcome out;
    out.info = &info;
    out.reached = mutate::SiteReached(info.site);
    out.killed = det.killed;
    out.rationale = det.rationale;
    mutate::ClearActiveSite();
    if (out.killed) ++killed;
    if (out.reached) ++reached;
    std::printf("%-8s %-34s %-11s %s\n", out.killed ? "KILLED" : "SURVIVED",
                info.name, mutate::CategoryName(info.category),
                out.reached ? "" : "(site never reached)");
    outcomes.push_back(std::move(out));
  }

  const double rate =
      static_cast<double>(killed) / static_cast<double>(outcomes.size());
  std::printf("\n%zu/%zu mutants killed (%.1f%%), %zu sites reached\n", killed,
              outcomes.size(), 100.0 * rate, reached);

  std::string survivors_json;
  for (const SiteOutcome& out : outcomes) {
    if (out.killed) continue;
    auto expected = ExpectedSurvivors().find(out.info->name);
    bool is_expected = expected != ExpectedSurvivors().end();
    std::printf("\nSURVIVOR %s%s\n  location  %s\n  mutant    %s\n",
                out.info->name, is_expected ? " (expected)" : "",
                out.info->location, out.info->description);
    std::printf("  reached   %s\n  rationale %s\n  replay    "
                "PREVER_MUTATION=%s ./tests/mutation_kill_test %s\n",
                out.reached ? "yes" : "no",
                is_expected ? expected->second.c_str() : out.rationale.c_str(),
                out.info->name, out.info->name);
    if (!survivors_json.empty()) survivors_json += ",";
    survivors_json +=
        "{\"site\":\"" + std::string(out.info->name) +
        "\",\"reached\":" + (out.reached ? "true" : "false") +
        ",\"expected\":" + (is_expected ? "true" : "false") +
        ",\"rationale\":\"" +
        JsonEscape(is_expected ? expected->second : out.rationale) + "\"}";
  }

  std::printf(
      "PREVER_MUTATION_REPORT {\"sites\":%zu,\"reached\":%zu,\"killed\":%zu,"
      "\"kill_rate\":%.4f,\"clean_failures\":0,\"survivors\":[%s]}\n",
      outcomes.size(), reached, killed, rate, survivors_json.c_str());
  return rate >= 0.95 ? 0 : 1;
}

}  // namespace
}  // namespace prever

int main(int argc, char** argv) { return prever::RunDriver(argc, argv); }

#endif  // PREVER_MUTATIONS
