// prever_bench: the PReVer end-to-end benchmark (perfbench/README.md).
//
// One process runs one workload. The update stream, the preload rows and the
// receipt picks are generated from --seed before anything is timed; the
// engine only ever sees those generated inputs. A single client drives the
// stream as a closed loop with no think time through the engine's public
// entry point (SubmitUpdate / SubmitVia), and after every update reads one
// receipt for a seeded-random committed sequence number: Digest ->
// ProveInclusion -> GetEntry -> VerifyInclusion.
//
// Per-update cost depends on history (table size, log length), so a workload
// is a FIXED number of updates — a "round" — replayed on a freshly built
// engine. A run repeats rounds while the next one still fits in --seconds
// (at least three), so every round measures the same program. Every round
// also re-does set-up (preload, keygen, engine/cluster construction), which
// is what setup_s measures.
//
// A fixed reference loop (SpeedProbe) runs between ops every 10 ms, outside
// the timed spans. The end-to-end timings divide each span by the machine's
// slowdown around it and take each op's median over the rounds
// (AddEndToEnd), so they report what the program costs at one reference
// speed rather than how busy the shared host was.
//
// With --trace=FILE (bench_common.h's flag) the run is split in two: half of
// the time untraced, then traced rounds with the causal tracer on and the
// bench-side decorators (ordering timer, owner-attestation timer, storage
// apply counter) installed. Per-layer metrics come from the traced rounds,
// read as deltas of the engines' own registry histograms and counters.
//
// Output: human-readable lines, then ONE JSON object as the last stdout line
// (correctness verdict, op counts, outcome counts, every metric by name);
// perfbench/run.py attaches units and bounds from BENCHMARK.json.
//
// Usage: prever_bench --workload NAME [--seed N] [--seconds S] [--scale F]
//                     [--trace=FILE]
//   --scale F   run F (0 < F <= 1) of the workload's op count per round

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/prever.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/tracing.h"
#include "workload/ycsb.h"

namespace {

using namespace prever;

// ------------------------------------------------------------- workloads

enum class Kind { kYcsbUpsert, kYcsbInsertPbft, kTokenBudget, kEncryptedRc1 };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  uint64_t ops;              ///< Updates per round.
  double insert_proportion;  ///< YCSB insert share; the rest are upserts.
  int64_t max_amount;        ///< Per-update amount drawn from [0, max_amount].
  int64_t cap;               ///< Per-owner daily SUM cap (plaintext engine).
  const char* engine;        ///< EngineMetrics label of the engine under test.
};

// Why each workload is in the benchmark:
//  - ycsb-upsert: the constraint layer does most of the work. Every accepted
//    upsert epoch-invalidates the aggregate cache, so the next verify
//    rebuilds it; the cap binds for the heavier owners late in the round, so
//    both verdicts occur. The mix is 30% insert / 70% upsert: at 50/50 the
//    median update sits exactly on the cliff between the O(1) delta path and
//    the O(rows) rebuild path, and swings by a quarter with the seed.
//  - ycsb-insert-pbft: consensus, net and the ordering pipeline do most of
//    the work and their cost grows with history; verify stays on the O(1)
//    insert-delta path, so a constraint change should show no change here.
//    The same regulation with a cap that never binds keeps every update on
//    the ordering path.
//  - token-budget: token and RSA crypto do most of the work, with one ledger
//    append per spent token (many per update), so the ledger layer is used
//    very differently from the one-append workloads.
//  - encrypted-rc1: Paillier, Pedersen and ZK crypto do most of the work
//    through code the token path does not use; no constraint or consensus.
// A round takes 1.8 to 5 seconds on a 4-vCPU Xeon VM, so a 30-second run
// holds five to fifteen rounds. Every round has at least 1 000 updates, so
// its p99 has ten samples beyond it. Token amounts are drawn from [0, 10]:
// with eleven equally likely costs the median update sits well inside the
// 5-token cluster for every seed, and a round stays short.
constexpr WorkloadSpec kWorkloads[] = {
    {"ycsb-upsert", Kind::kYcsbUpsert, 8000, 0.3, 100, 1700, "plaintext"},
    {"ycsb-insert-pbft", Kind::kYcsbInsertPbft, 10000, 1.0, 100, 1000000,
     "plaintext"},
    {"token-budget", Kind::kTokenBudget, 1500, 0.5, 10, 0,
     "federated-token-rc2"},
    {"encrypted-rc1", Kind::kEncryptedRc1, 1000, 0.5, 100, 0, "encrypted-rc1"},
};

constexpr uint64_t kPreloadRows = 512;
// usertable columns (YcsbWorkload::TableSchema): key, owner, amount, at.
constexpr size_t kOwnerColumn = 1;
constexpr size_t kAtColumn = 3;

std::string Regulation(int64_t cap) {
  return "SUM(usertable.amount WHERE owner = update.owner WINDOW 1d) + "
         "update.amount <= " +
         std::to_string(cap);
}

constexpr size_t kOracleEvery = 50;  ///< Interpreter cross-check period.
constexpr int kAuditRepeats = 5;
constexpr int kSetupRepeats = 3;
constexpr size_t kTokenPlatforms = 3;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Everything generated from the seed, before timing starts.
struct Stream {
  std::vector<storage::Row> preload;
  std::vector<core::Update> updates;
  std::vector<uint64_t> receipt_picks;  ///< Reduced mod ledger size at use.
};

Stream MakeStream(const WorkloadSpec& spec, uint64_t seed, uint64_t ops) {
  workload::YcsbConfig config;
  config.record_count = kPreloadRows;
  config.insert_proportion = spec.insert_proportion;
  config.max_amount = spec.max_amount;
  config.seed = seed;
  workload::YcsbWorkload ycsb(config);
  Stream s;
  s.preload = ycsb.InitialLoad();
  s.updates.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) s.updates.push_back(ycsb.Next());
  Rng picks(seed ^ 0x9e3779b97f4a7c15ull);
  s.receipt_picks.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) s.receipt_picks.push_back(picks.NextU64());
  return s;
}

// ---------------------------------------------- bench-side decorators

/// Forwards every OrderingService virtual to `inner`, timing the calls that
/// can block on ordering (Append / SubmitAsync / Flush).
class TimedOrdering : public core::OrderingService {
 public:
  explicit TimedOrdering(core::OrderingService* inner) : inner_(inner) {}

  Status Append(const Bytes& payload, SimTime timestamp) override {
    uint64_t t0 = obs::MonotonicNanos();
    Status s = inner_->Append(payload, timestamp);
    call_ns_.push_back(obs::MonotonicNanos() - t0);
    return s;
  }
  Result<Ticket> SubmitAsync(const Bytes& payload, SimTime timestamp) override {
    uint64_t t0 = obs::MonotonicNanos();
    Result<Ticket> r = inner_->SubmitAsync(payload, timestamp);
    call_ns_.push_back(obs::MonotonicNanos() - t0);
    return r;
  }
  Status Flush() override {
    uint64_t t0 = obs::MonotonicNanos();
    Status s = inner_->Flush();
    call_ns_.push_back(obs::MonotonicNanos() - t0);
    return s;
  }
  const ledger::LedgerDb& Ledger() const override { return inner_->Ledger(); }
  uint64_t CommittedCount() const override { return inner_->CommittedCount(); }

  const std::vector<uint64_t>& call_ns() const { return call_ns_; }

 private:
  core::OrderingService* inner_;
  std::vector<uint64_t> call_ns_;
};

/// Times the owner's bound attestations (decrypt + range proof).
class TimedDataOwner : public core::DataOwner {
 public:
  using DataOwner::DataOwner;

  Result<crypto::RangeProof> AttestUpperBound(
      const crypto::PaillierCiphertext& total_value_ct,
      const crypto::PaillierCiphertext& total_rand_ct,
      const crypto::PedersenCommitment& total_cm, int64_t bound,
      size_t slack_bits) override {
    uint64_t t0 = obs::MonotonicNanos();
    auto r = DataOwner::AttestUpperBound(total_value_ct, total_rand_ct,
                                         total_cm, bound, slack_bits);
    attest_ns_.push_back(obs::MonotonicNanos() - t0);
    return r;
  }
  Result<crypto::RangeProof> AttestLowerBound(
      const crypto::PaillierCiphertext& total_value_ct,
      const crypto::PaillierCiphertext& total_rand_ct,
      const crypto::PedersenCommitment& total_cm, int64_t bound,
      size_t slack_bits) override {
    uint64_t t0 = obs::MonotonicNanos();
    auto r = DataOwner::AttestLowerBound(total_value_ct, total_rand_ct,
                                         total_cm, bound, slack_bits);
    attest_ns_.push_back(obs::MonotonicNanos() - t0);
    return r;
  }

  const std::vector<uint64_t>& attest_ns() const { return attest_ns_; }

 private:
  std::vector<uint64_t> attest_ns_;
};

/// Per-round counts that must repeat exactly for a fixed stream.
using Counts = std::map<std::string, uint64_t>;

/// The counts that are the stream's outcome rather than work a layer did: a
/// change that keeps the engines' behaviour cannot move them, so results
/// from two builds must agree on them exactly. The other counts (aggregate
/// rebuilds, messages sent, ...) are what an optimisation moves.
const char* const kOutcomes[] = {
    "updates",        "accepted",       "rejected",      "ledger_entries",
    "rows_final",     "tokens_spent",   "applies_insert", "applies_upsert"};

/// Counts committed mutations per op type (storage layer work).
void CountApplies(storage::Database* db, Counts* counts) {
  db->AddCommitObserver([counts](const storage::Mutation& m, uint64_t) {
    ++(*counts)[m.op == storage::Mutation::Op::kInsert ? "applies_insert"
                                                       : "applies_upsert"];
  });
}

void CreateUsertable(storage::Database* db) {
  (void)db->CreateTable(workload::YcsbWorkload::kTableName,
                        workload::YcsbWorkload::TableSchema());
}

void Preload(storage::Database* db, const std::vector<storage::Row>& rows) {
  CreateUsertable(db);
  storage::Table* table =
      *db->GetMutableTable(workload::YcsbWorkload::kTableName);
  for (const storage::Row& row : rows) (void)table->Insert(row);
}

std::vector<storage::Row> Rows(const storage::Database& db) {
  std::vector<storage::Row> rows;
  auto table = db.GetTable(workload::YcsbWorkload::kTableName);
  if (!table.ok()) return rows;
  (*table)->Scan([&](const storage::Row& row) {
    rows.push_back(row);
    return true;
  });
  return rows;
}

// ------------------------------------------------------------------- rigs

/// Everything one round builds and tears down: the engine under test, its
/// ordering service and, in traced rounds, the bench-side decorators.
class Rig {
 public:
  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  virtual ~Rig() = default;

  virtual Status Submit(size_t index, const core::Update& update) = 0;
  /// The undecorated ordering service (ledger reads, committed count).
  virtual const core::OrderingService& Ordering() const = 0;
  /// Interpreter verdict on the current pre-state; nullopt for engines
  /// without a plaintext catalog.
  virtual std::optional<Status> Oracle(const core::Update&) const {
    return std::nullopt;
  }
  /// Workload-specific end-of-round checks; appends one line per failure.
  virtual void CheckFinal(const Counts& counts,
                          std::vector<std::string>* failures) = 0;
  /// Per-round layer counts (verifier stats, rows, tokens, ...).
  virtual void AddCounts(Counts* counts) const = 0;

  const TimedOrdering* timed_ordering() const { return timed_.get(); }
  virtual const TimedDataOwner* timed_owner() const { return nullptr; }

 protected:
  /// Wraps `base` in the timing decorator when traced.
  core::OrderingService* MaybeTime(core::OrderingService* base, bool traced) {
    if (!traced) return base;
    timed_ = std::make_unique<TimedOrdering>(base);
    return timed_.get();
  }
  std::unique_ptr<TimedOrdering> timed_;
};

/// PlaintextEngine over CentralizedOrdering (ycsb-upsert) or a 4-replica
/// PBFT cluster on the simulated network (ycsb-insert-pbft).
class PlaintextRig : public Rig {
 public:
  PlaintextRig(const Stream& stream, int64_t cap, bool pbft, bool traced,
               Counts* counts)
      : preload_(&stream.preload) {
    Preload(&db_, stream.preload);
    (void)catalog_.Add("cap", constraint::ConstraintScope::kRegulation,
                       constraint::ConstraintVisibility::kPublic,
                       Regulation(cap));
    core::OrderingService* base;
    if (pbft) {
      pbft_ = std::make_unique<core::PbftOrdering>(4, net::SimNetConfig{});
      base = pbft_.get();
    } else {
      central_ = std::make_unique<core::CentralizedOrdering>();
      base = central_.get();
    }
    if (traced) CountApplies(&db_, counts);
    engine_ = std::make_unique<core::PlaintextEngine>(&db_, &catalog_,
                                                      MaybeTime(base, traced));
  }

  Status Submit(size_t, const core::Update& update) override {
    return engine_->SubmitUpdate(update);
  }
  const core::OrderingService& Ordering() const override {
    if (pbft_) return *pbft_;
    return *central_;
  }
  std::optional<Status> Oracle(const core::Update& update) const override {
    constraint::EvalContext ctx{&db_, &update.fields, update.timestamp};
    return catalog_.CheckAll(ctx);
  }

  void CheckFinal(const Counts& counts,
                  std::vector<std::string>* failures) override {
    const ledger::LedgerDb& ledger = Ordering().Ledger();
    if (ledger.size() != counts.at("accepted")) {
      failures->push_back("ledger holds " + std::to_string(ledger.size()) +
                          " entries for " +
                          std::to_string(counts.at("accepted")) +
                          " accepted updates");
    }
    // The database must equal a replay of the ledger onto the preload.
    storage::Database replay;
    Preload(&replay, *preload_);
    for (uint64_t seq = 0; seq < ledger.size(); ++seq) {
      auto entry = ledger.GetEntry(seq);
      auto update = entry.ok() ? core::Update::Decode(entry->payload)
                               : Result<core::Update>(entry.status());
      Status applied =
          update.ok() ? replay.Apply(update->mutation) : update.status();
      if (!applied.ok()) {
        failures->push_back("ledger replay failed at entry " +
                            std::to_string(seq) + ": " + applied.ToString());
        return;
      }
    }
    std::vector<storage::Row> rows = Rows(db_);
    if (Rows(replay) != rows) {
      failures->push_back("database differs from a replay of the ledger");
    }
    // Every accepted update kept its owner's windowed SUM within the cap, so
    // the final state must admit a zero-amount update from every owner.
    std::set<storage::Value> owners;
    SimTime now = 0;
    for (const storage::Row& row : rows) {
      owners.insert(row[kOwnerColumn]);
      auto at = row[kAtColumn].AsTimestamp();
      if (at.ok()) now = std::max(now, *at);
    }
    for (const storage::Value& owner : owners) {
      constraint::UpdateFields fields = {{"owner", owner},
                                         {"amount", storage::Value::Int64(0)}};
      Status holds = catalog_.CheckAll({&db_, &fields, now});
      if (!holds.ok()) {
        failures->push_back("final state breaks the regulation: " +
                            holds.ToString());
        break;
      }
    }
    if (pbft_) {
      // Append returns once a quorum executed; let the last replica catch
      // up, then every replica must hold the whole committed log.
      net::SimNetwork& net = pbft_->network();
      net.RunUntil(net.Now() + kSecond);
      std::vector<const ledger::LedgerDb*> replicas;
      for (size_t i = 0; i < pbft_->num_replicas(); ++i) {
        replicas.push_back(&pbft_->ReplicaLedger(i));
      }
      Status agree = core::IntegrityAuditor::CheckReplicaAgreement(replicas);
      if (!agree.ok()) {
        failures->push_back("PBFT replicas disagree: " + agree.ToString());
      }
      for (const ledger::LedgerDb* r : replicas) {
        if (r->size() != ledger.size()) {
          failures->push_back("a PBFT replica ledger is missing entries");
          break;
        }
      }
    }
  }

  void AddCounts(Counts* counts) const override {
    constraint::CompiledVerifier::Stats v = engine_->verifier().stats();
    (*counts)["agg_rebuilds"] = v.agg.cache_builds;
    (*counts)["agg_delta_applies"] = v.agg.delta_applies;
    (*counts)["agg_invalidations"] = v.agg.invalidations;
    (*counts)["fast_path_verifies"] = v.fast_path_verifies;
    (*counts)["slow_path_verifies"] = v.slow_path_verifies;
    auto table = db_.GetTable(workload::YcsbWorkload::kTableName);
    (*counts)["rows_final"] = table.ok() ? (*table)->size() : 0;
  }

 private:
  const std::vector<storage::Row>* preload_;
  storage::Database db_;
  constraint::ConstraintCatalog catalog_;
  std::unique_ptr<core::CentralizedOrdering> central_;
  std::unique_ptr<core::PbftOrdering> pbft_;
  std::unique_ptr<core::PlaintextEngine> engine_;  // Last: dies first.
};

/// FederatedTokenEngine: three platforms round-robin, a weekly token budget
/// large enough never to bind, and a 2-worker pool for RSA token checks.
class TokenRig : public Rig {
 public:
  TokenRig(bool traced, Counts* counts)
      : authority_(512, 1u << 20, kWeek, 11), pool_(3) {
    std::vector<core::FederatedPlatform*> raw;
    for (size_t i = 0; i < kTokenPlatforms; ++i) {
      auto p = std::make_unique<core::FederatedPlatform>();
      p->id = "p" + std::to_string(i);
      CreateUsertable(&p->db);
      if (traced) CountApplies(&p->db, counts);
      raw.push_back(p.get());
      platforms_.push_back(std::move(p));
    }
    engine_ = std::make_unique<core::FederatedTokenEngine>(
        raw, &authority_, MaybeTime(&ordering_, traced), "amount");
    engine_->set_thread_pool(&pool_);
  }

  Status Submit(size_t index, const core::Update& update) override {
    return engine_->SubmitVia(index % kTokenPlatforms, update);
  }
  const core::OrderingService& Ordering() const override { return ordering_; }

  void CheckFinal(const Counts&,
                  std::vector<std::string>* failures) override {
    const ledger::LedgerDb& ledger = ordering_.Ledger();
    if (ledger.size() != engine_->tokens_spent()) {
      failures->push_back("ledger holds " + std::to_string(ledger.size()) +
                          " entries for " +
                          std::to_string(engine_->tokens_spent()) +
                          " spent tokens");
    }
    std::set<Bytes> serials;
    for (uint64_t seq = 0; seq < ledger.size(); ++seq) {
      auto entry = ledger.GetEntry(seq);
      if (!entry.ok() || !serials.insert(entry->payload).second) {
        failures->push_back("token serial recorded twice (entry " +
                            std::to_string(seq) + ")");
        return;
      }
    }
  }

  void AddCounts(Counts* counts) const override {
    (*counts)["tokens_spent"] = engine_->tokens_spent();
    uint64_t rows = 0;
    for (const auto& p : platforms_) {
      auto table = p->db.GetTable(workload::YcsbWorkload::kTableName);
      if (table.ok()) rows += (*table)->size();
    }
    (*counts)["rows_final"] = rows;
  }

 private:
  token::TokenAuthority authority_;
  core::CentralizedOrdering ordering_;
  common::ThreadPool pool_;
  std::vector<std::unique_ptr<core::FederatedPlatform>> platforms_;
  std::unique_ptr<core::FederatedTokenEngine> engine_;  // Last: dies first.
};

/// EncryptedEngine (RC1): Paillier-sealed amounts, a per-owner daily bound
/// attested by the data owner with ZK range proofs.
class EncryptedRig : public Rig {
 public:
  EncryptedRig(const Stream& stream, bool traced) {
    const crypto::PedersenParams& pedersen = crypto::PedersenParams::Test256();
    if (traced) {
      auto timed = std::make_unique<TimedDataOwner>(256, pedersen, 7);
      timed_owner_ = timed.get();
      owner_ = std::move(timed);
    } else {
      owner_ = std::make_unique<core::DataOwner>(256, pedersen, 7);
    }
    std::vector<core::RegulatedBound> bounds = {
        {constraint::BoundDirection::kUpper, 100000, kDay, 18}};
    engine_ = std::make_unique<core::EncryptedEngine>(
        owner_.get(), MaybeTime(&ordering_, traced), "owner", "amount", bounds,
        /*value_bits=*/7, /*seed=*/3);
    for (const core::Update& u : stream.updates) {
      auto owner = u.fields.at("owner").AsString();
      if (owner.ok()) groups_.insert(*owner);
    }
  }

  Status Submit(size_t, const core::Update& update) override {
    return engine_->SubmitUpdate(update);
  }
  const core::OrderingService& Ordering() const override { return ordering_; }
  const TimedDataOwner* timed_owner() const override { return timed_owner_; }

  void CheckFinal(const Counts& counts,
                  std::vector<std::string>* failures) override {
    uint64_t accepted = counts.at("accepted");
    if (ordering_.Ledger().size() != accepted) {
      failures->push_back("ledger holds " +
                          std::to_string(ordering_.Ledger().size()) +
                          " entries for " + std::to_string(accepted) +
                          " accepted updates");
    }
    if (SealedRows() != accepted) {
      failures->push_back("manager stores " + std::to_string(SealedRows()) +
                          " sealed rows for " + std::to_string(accepted) +
                          " accepted updates");
    }
  }

  void AddCounts(Counts* counts) const override {
    (*counts)["rows_final"] = SealedRows();
  }

 private:
  uint64_t SealedRows() const {
    uint64_t rows = 0;
    for (const std::string& g : groups_) rows += engine_->NumRows(g);
    return rows;
  }

  std::unique_ptr<core::DataOwner> owner_;
  TimedDataOwner* timed_owner_ = nullptr;  ///< owner_ itself, when traced.
  core::CentralizedOrdering ordering_;
  std::set<std::string> groups_;
  std::unique_ptr<core::EncryptedEngine> engine_;  // Last: dies first.
};

std::unique_ptr<Rig> MakeRig(const WorkloadSpec& spec, const Stream& stream,
                             bool traced, Counts* counts) {
  switch (spec.kind) {
    case Kind::kYcsbUpsert:
      return std::make_unique<PlaintextRig>(stream, spec.cap, false, traced,
                                            counts);
    case Kind::kYcsbInsertPbft:
      return std::make_unique<PlaintextRig>(stream, spec.cap, true, traced,
                                            counts);
    case Kind::kTokenBudget:
      return std::make_unique<TokenRig>(traced, counts);
    case Kind::kEncryptedRc1:
      return std::make_unique<EncryptedRig>(stream, traced);
  }
  return nullptr;
}

// --------------------------------------------------------- registry reads

/// A registry histogram read as the delta since construction.
class HistDelta {
 public:
  HistDelta(const std::string& name, const obs::Labels& labels)
      : hist_(obs::Registry::Default().GetHistogram(name, labels)),
        start_(hist_->snapshot()) {}
  obs::HistogramSnapshot Take() const {
    return hist_->snapshot().Delta(start_);
  }

 private:
  obs::Histogram* hist_;
  obs::HistogramSnapshot start_;
};

uint64_t CounterValue(const std::string& name, const obs::Labels& labels) {
  return obs::Registry::Default().GetCounter(name, labels)->value();
}

const char* const kPhases[] = {"verify", "crypto", "token", "ledger"};

// ------------------------------------------------------------ speed probe

/// A fixed reference loop that tells how fast the machine runs right now.
/// On a shared host one vCPU's speed swings by up to 2x within a second and
/// can stay low for minutes (neighbours' load on the same cores, caches and
/// memory bus); CPU time swings with wall time, so neither removes it. The
/// loop has two parts: a 16-limb multiply-accumulate carry chain (the shape
/// of the bignum crypto) and 500 inserts into a fresh std::map (allocation
/// and pointer chasing, the shape of tables, indexes and the ledger). Run()
/// returns the slowdown: the geometric mean of each part's time over its
/// reference time. It never calls into the engines, so a change to them
/// cannot move it.
class SpeedProbe {
 public:
  double Run() {
    uint64_t t0 = obs::MonotonicNanos();
    uint64_t x[kLimbs], y[kLimbs], z[kLimbs] = {};
    for (size_t i = 0; i < kLimbs; ++i) {
      x[i] = sink_ + i * 0x9e3779b97f4a7c15ull;
      y[i] = ~x[i] * 0xbf58476d1ce4e5b9ull;
    }
    for (int rep = 0; rep < kMulReps; ++rep) {
      for (size_t i = 0; i < kLimbs; ++i) {
        uint64_t carry = 0;
        for (size_t j = 0; j < kLimbs; ++j) {
          unsigned __int128 t =
              static_cast<unsigned __int128>(x[i]) * y[j] + z[j] + carry;
          z[j] = static_cast<uint64_t>(t);
          carry = static_cast<uint64_t>(t >> 64);
        }
        x[i] ^= carry;
      }
    }
    uint64_t t1 = obs::MonotonicNanos();
    std::map<uint64_t, uint64_t> m;
    uint64_t k = z[0];
    for (int i = 0; i < kInserts; ++i) {
      k = k * 6364136223846793005ull + 1442695040888963407ull;
      m[k >> 20] = static_cast<uint64_t>(i);
    }
    uint64_t t2 = obs::MonotonicNanos();
    sink_ += z[kLimbs - 1] + m.begin()->first;  // Keeps both parts live.
    return std::sqrt(static_cast<double>(t1 - t0) / kMulRefNs *
                     static_cast<double>(t2 - t1) / kMapRefNs);
  }

 private:
  static constexpr size_t kLimbs = 16;
  static constexpr int kMulReps = 100;
  static constexpr int kInserts = 500;
  // Reference times, near each part's time on a 4-vCPU Xeon VM, where the
  // slowdown reads 0.8 in quiet stretches and up to 1.6 in busy ones.
  static constexpr double kMulRefNs = 30000;
  static constexpr double kMapRefNs = 60000;
  uint64_t sink_ = 0;
};

SpeedProbe& Probe() {
  static SpeedProbe probe;
  return probe;
}

/// Probe period inside a round; one probe costs about 0.1 ms.
constexpr uint64_t kProbeEveryNs = 10'000'000;

/// Runs `work` between two speed probes; returns its time in ns at the
/// reference speed (wall time over the mean slowdown of the two).
template <typename Work>
double ReferenceNanos(Work&& work) {
  double before = Probe().Run();
  uint64_t t0 = obs::MonotonicNanos();
  work();
  uint64_t ns = obs::MonotonicNanos() - t0;
  return static_cast<double>(ns) / ((before + Probe().Run()) / 2);
}

// ----------------------------------------------------------------- rounds

struct RoundResult {
  // Times at the reference speed (SpeedProbe), for the end-to-end metrics.
  std::vector<double> setup_ref_ns;
  std::vector<double> update_ref_ns;
  std::vector<double> receipt_ref_ns;
  std::vector<double> audit_ref_ns;
  std::vector<double> slowdowns;  ///< Every probe taken between ops.
  // Wall-clock times as measured, for the per-layer metrics.
  std::vector<uint64_t> update_ns;
  std::vector<uint64_t> prove_ns;     ///< Traced rounds only.
  std::vector<uint64_t> verify_ns;    ///< Traced rounds only.
  std::vector<uint64_t> ordering_ns;  ///< Traced rounds only.
  std::vector<uint64_t> attest_ns;    ///< Traced rounds only.
  Counts counts;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Registry deltas over the timed phase.
  obs::HistogramSnapshot submit;
  std::map<std::string, obs::HistogramSnapshot> phase;
  obs::HistogramSnapshot sim_commit_us;
};

RoundResult RunRound(const WorkloadSpec& spec, const Stream& stream,
                     size_t ops, bool traced,
                     const obs::TracerConfig* trace_config) {
  RoundResult r;
  // Set-up is short next to a round (well under a millisecond for the
  // plaintext rigs), so it is repeated and every repeat is a sample; the
  // last rig built runs the round.
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    r.setup_ref_ns.push_back(ReferenceNanos(
        [&] { rig = MakeRig(spec, stream, traced, &r.counts); }));
  }

  HistDelta submit("prever_engine_submit_ns", {{"engine", spec.engine}});
  std::vector<HistDelta> phases;
  for (const char* p : kPhases) {
    phases.emplace_back("prever_engine_phase_ns",
                        obs::Labels{{"engine", spec.engine}, {"phase", p}});
  }
  HistDelta sim_commit("prever_consensus_commit_latency_us",
                       {{"proto", "pbft"}});
  const uint64_t net_sent0 =
      CounterValue("prever_net_msgs_total", {{"outcome", "sent"}});
  const uint64_t view_changes0 =
      CounterValue("prever_consensus_view_changes_total", {{"proto", "pbft"}});

  uint64_t accepted = 0, rejected = 0, oracle_checked = 0;
  auto fail = [&](std::string why) {
    ++r.failed;
    if (r.failures.size() < 8) r.failures.push_back(std::move(why));
  };
  // Speed probes between ops, outside every timed span: (index of the
  // next op, slowdown).
  std::vector<std::pair<size_t, double>> probes;
  uint64_t next_probe = 0;
  std::vector<uint64_t> receipt_ns;
  std::vector<size_t> receipt_op;  ///< The op each receipt followed.
  r.update_ns.reserve(ops);
  if (trace_config != nullptr) obs::Tracer::Get().Configure(*trace_config);
  for (size_t i = 0; i < ops; ++i) {
    if (obs::MonotonicNanos() >= next_probe) {
      probes.emplace_back(i, Probe().Run());
      next_probe = obs::MonotonicNanos() + kProbeEveryNs;
    }
    const core::Update& update = stream.updates[i];
    // Oracle on the pre-state, outside every timed span.
    std::optional<Status> oracle;
    if (i % kOracleEvery == 0) oracle = rig->Oracle(update);

    uint64_t t0 = obs::MonotonicNanos();
    Status s = rig->Submit(i, update);
    r.update_ns.push_back(obs::MonotonicNanos() - t0);
    ++r.attempted;
    bool rejected_by_rule = s.code() == StatusCode::kConstraintViolation;
    if (s.ok()) {
      ++accepted;
    } else if (rejected_by_rule) {
      ++rejected;
    } else {
      fail("update " + update.id + ": " + s.ToString());
    }
    if (oracle.has_value()) {
      ++oracle_checked;
      bool oracle_rejects =
          oracle->code() == StatusCode::kConstraintViolation;
      if (!oracle->ok() && !oracle_rejects) {
        fail("oracle error on " + update.id + ": " + oracle->ToString());
      } else if ((s.ok() || rejected_by_rule) && oracle->ok() != s.ok()) {
        fail("verdict on " + update.id + " is " + s.ToString() +
             ", the interpreter says " + oracle->ToString());
      }
    }

    // Receipt read for a seeded-random committed entry.
    const ledger::LedgerDb& ledger = rig->Ordering().Ledger();
    if (ledger.size() == 0) continue;
    uint64_t seq = stream.receipt_picks[i] % ledger.size();
    uint64_t r0 = obs::MonotonicNanos();
    ledger::LedgerDigest digest = ledger.Digest();
    auto proof = ledger.ProveInclusion(seq, digest.size);
    uint64_t r1 = traced ? obs::MonotonicNanos() : 0;
    auto entry = ledger.GetEntry(seq);
    uint64_t r2 = traced ? obs::MonotonicNanos() : 0;
    bool ok = proof.ok() && entry.ok() &&
              ledger::LedgerDb::VerifyInclusion(*entry, *proof, digest);
    uint64_t r3 = obs::MonotonicNanos();
    receipt_ns.push_back(r3 - r0);
    receipt_op.push_back(i);
    if (traced) {
      r.prove_ns.push_back(r1 - r0);
      r.verify_ns.push_back(r3 - r2);
    }
    ++r.attempted;
    if (!ok) fail("receipt for entry " + std::to_string(seq) + " failed");
  }
  probes.emplace_back(ops, Probe().Run());
  if (trace_config != nullptr) obs::Tracer::Get().SetEnabled(false);

  // Op i ran between probes k and k + 1; its slowdown is their mean.
  std::vector<double> slowdown(ops);
  for (size_t i = 0, k = 0; i < ops; ++i) {
    while (probes[k + 1].first <= i) ++k;
    slowdown[i] = (probes[k].second + probes[k + 1].second) / 2;
  }
  for (size_t i = 0; i < ops; ++i) {
    r.update_ref_ns.push_back(static_cast<double>(r.update_ns[i]) /
                              slowdown[i]);
  }
  for (size_t j = 0; j < receipt_ns.size(); ++j) {
    r.receipt_ref_ns.push_back(static_cast<double>(receipt_ns[j]) /
                               slowdown[receipt_op[j]]);
  }
  for (const auto& p : probes) r.slowdowns.push_back(p.second);

  r.submit = submit.Take();
  for (size_t p = 0; p < phases.size(); ++p) {
    r.phase[kPhases[p]] = phases[p].Take();
  }
  r.sim_commit_us = sim_commit.Take();
  r.counts["net_msgs_sent"] =
      CounterValue("prever_net_msgs_total", {{"outcome", "sent"}}) - net_sent0;
  r.counts["view_changes"] =
      CounterValue("prever_consensus_view_changes_total", {{"proto", "pbft"}}) -
      view_changes0;
  r.counts["updates"] = ops;
  r.counts["accepted"] = accepted;
  r.counts["rejected"] = rejected;
  r.counts["oracle_checked"] = oracle_checked;
  rig->AddCounts(&r.counts);  // Fresh engine: its stats cover this round.
  const core::OrderingService& ordering = rig->Ordering();
  r.counts["ledger_entries"] = ordering.Ledger().size();
  r.counts["committed"] = ordering.CommittedCount();

  // Ledger audit over the final ledger, repeated for a stable audit_ms.
  for (int a = 0; a < kAuditRepeats; ++a) {
    Status audit;
    r.audit_ref_ns.push_back(ReferenceNanos([&] {
      audit = core::IntegrityAuditor::AuditLedger(ordering.Ledger());
    }));
    if (!audit.ok()) fail("ledger audit failed: " + audit.ToString());
  }
  std::vector<std::string> final_failures;
  rig->CheckFinal(r.counts, &final_failures);
  for (std::string& f : final_failures) fail(std::move(f));

  if (const TimedOrdering* t = rig->timed_ordering()) {
    r.ordering_ns = t->call_ns();
    r.counts["ordering_calls"] = t->call_ns().size();
  }
  if (const TimedDataOwner* o = rig->timed_owner()) {
    r.attest_ns = o->attest_ns();
  }
  return r;
}

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile, exact over the samples (0 when empty).
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<uint64_t>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (uint64_t x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

template <typename T>
std::vector<T> Pool(const std::vector<RoundResult>& rounds,
                    std::vector<T> RoundResult::*field) {
  std::vector<T> out;
  for (const RoundResult& r : rounds) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

obs::HistogramSnapshot Merge(const std::vector<RoundResult>& rounds,
                             obs::HistogramSnapshot RoundResult::*field) {
  obs::HistogramSnapshot out = rounds.front().*field;
  for (size_t i = 1; i < rounds.size(); ++i) out.Merge(rounds[i].*field);
  return out;
}

obs::HistogramSnapshot MergePhase(const std::vector<RoundResult>& rounds,
                                  const std::string& phase) {
  obs::HistogramSnapshot out = rounds.front().phase.at(phase);
  for (size_t i = 1; i < rounds.size(); ++i) {
    out.Merge(rounds[i].phase.at(phase));
  }
  return out;
}

double Us(double ns) { return ns / 1e3; }

/// Mean of the last quarter of `v` over the mean of its first quarter.
double Growth(const std::vector<uint64_t>& v) {
  size_t q = v.size() / 4;
  if (q == 0) return 0;
  std::vector<uint64_t> first(v.begin(), v.begin() + q);
  std::vector<uint64_t> last(v.end() - q, v.end());
  return Ratio(Mean(last), Mean(first));
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss is
/// not used: Linux carries the parent's RSS at fork across exec into it, so
/// it would report the runner's footprint whenever that is larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Element-wise median over rounds: op i's typical time. Every round replays
/// the same stream, so op i is the same work in each.
std::vector<double> MedianOverRounds(const std::vector<RoundResult>& rounds,
                                     std::vector<double> RoundResult::*field) {
  size_t n = (rounds.front().*field).size();
  for (const RoundResult& r : rounds) n = std::min(n, (r.*field).size());
  std::vector<double> out(n);
  std::vector<double> column(rounds.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < rounds.size(); ++k) {
      column[k] = (rounds[k].*field)[i];
    }
    out[i] = Median(column);
  }
  return out;
}

/// End-to-end metrics over the untraced rounds, from times at the reference
/// speed (SpeedProbe): every timed span is divided by the machine's slowdown
/// around it, which takes out the load that other tenants put on a shared
/// host and leaves what the program itself costs. Each op's time is its
/// median over the rounds; throughput is updates over the sum of those
/// update and receipt medians, and the percentiles (p99: at least ten ops
/// beyond it, as every round has 1 000 or more) are taken over them. The
/// audit and set-up are medians of all their repeats.
void AddEndToEnd(const std::vector<RoundResult>& rounds, obs::Json* metrics) {
  const std::vector<double> update_ns =
      MedianOverRounds(rounds, &RoundResult::update_ref_ns);
  const std::vector<double> receipt_ns =
      MedianOverRounds(rounds, &RoundResult::receipt_ref_ns);
  double timed_ns = 0;
  for (double x : update_ns) timed_ns += x;
  for (double x : receipt_ns) timed_ns += x;
  auto set = [&](const char* name, double v) {
    metrics->Set(name, obs::Json::Number(v));
  };
  set("throughput_ops_s",
      Ratio(static_cast<double>(update_ns.size()), timed_ns / 1e9));
  set("update_p50_us", Us(Percentile(update_ns, 50)));
  set("update_p99_us", Us(Percentile(update_ns, 99)));
  set("receipt_p50_us", Us(Percentile(receipt_ns, 50)));
  set("receipt_p99_us", Us(Percentile(receipt_ns, 99)));
  set("audit_ms", Median(Pool(rounds, &RoundResult::audit_ref_ns)) / 1e6);
  set("setup_s", Median(Pool(rounds, &RoundResult::setup_ref_ns)) / 1e9);
  set("peak_rss_mb", PeakRssMb());
}

/// Per-layer metrics over the traced rounds; `untraced` gives the baseline
/// for the tracing overhead.
void AddPerLayer(const std::vector<RoundResult>& traced,
                 const std::vector<RoundResult>& untraced,
                 obs::Json* metrics) {
  auto set = [&](const std::string& name, double v) {
    metrics->Set(name, obs::Json::Number(v));
  };
  // Count metrics are per round: every round replays the same stream.
  const RoundResult& last = traced.back();
  auto count = [&](const char* key) {
    auto it = last.counts.find(key);
    return it == last.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double updates = count("updates");

  obs::HistogramSnapshot submit = Merge(traced, &RoundResult::submit);
  std::map<std::string, obs::HistogramSnapshot> phase;
  double phase_ns = 0;
  for (const char* p : kPhases) {
    phase[p] = MergePhase(traced, p);
    phase_ns += static_cast<double>(phase[p].sum);
  }
  std::vector<uint64_t> update_ns = Pool(traced, &RoundResult::update_ns);
  double update_total = 0;
  for (uint64_t x : update_ns) update_total += static_cast<double>(x);

  set("core.submit_us_p50", Us(submit.Percentile(50)));
  set("core.submit_us_p99", Us(submit.Percentile(99)));
  set("core.verify_us_p50", Us(phase["verify"].Percentile(50)));
  set("core.verify_us_p99", Us(phase["verify"].Percentile(99)));
  set("core.crypto_us_p50", Us(phase["crypto"].Percentile(50)));
  set("core.token_us_p50", Us(phase["token"].Percentile(50)));
  set("core.token_us_p99", Us(phase["token"].Percentile(99)));
  set("core.ledger_us_p50", Us(phase["ledger"].Percentile(50)));
  set("core.residual_frac",
      update_total == 0 ? 0 : 1 - phase_ns / update_total);

  uint64_t fast = static_cast<uint64_t>(count("fast_path_verifies"));
  uint64_t slow = static_cast<uint64_t>(count("slow_path_verifies"));
  set("constraint.agg_rebuilds", count("agg_rebuilds"));
  set("constraint.agg_delta_applies", count("agg_delta_applies"));
  set("constraint.agg_invalidations", count("agg_invalidations"));
  set("constraint.fast_path_frac",
      Ratio(static_cast<double>(fast), static_cast<double>(fast + slow)));

  std::vector<uint64_t> ordering_ns = Pool(traced, &RoundResult::ordering_ns);
  double ordering_total = 0;
  for (uint64_t x : ordering_ns) ordering_total += static_cast<double>(x);
  set("storage.apply_encode_us_mean",
      Us(Ratio(static_cast<double>(phase["ledger"].sum) - ordering_total,
               static_cast<double>(phase["ledger"].count))));

  std::vector<double> growth;
  for (const RoundResult& r : traced) growth.push_back(Growth(r.ordering_ns));
  set("ordering.append_us_p50", Us(Percentile(ordering_ns, 50)));
  set("ordering.append_us_p99", Us(Percentile(ordering_ns, 99)));
  set("ordering.append_growth", Median(growth));
  set("ordering.appends_per_update", Ratio(count("ordering_calls"), updates));

  obs::HistogramSnapshot sim = Merge(traced, &RoundResult::sim_commit_us);
  set("net.msgs_per_commit", Ratio(count("net_msgs_sent"), count("committed")));
  set("consensus.view_changes", count("view_changes"));
  set("consensus.sim_commit_ms_p50",
      static_cast<double>(sim.Percentile(50)) / 1e3);
  set("consensus.sim_commit_ms_p99",
      static_cast<double>(sim.Percentile(99)) / 1e3);

  set("ledger.prove_us_p50",
      Us(Percentile(Pool(traced, &RoundResult::prove_ns), 50)));
  set("ledger.verify_us_p50",
      Us(Percentile(Pool(traced, &RoundResult::verify_ns), 50)));

  set("crypto.owner_attest_us_p50",
      Us(Percentile(Pool(traced, &RoundResult::attest_ns), 50)));

  // At the reference speed, so that the machine's drift between the two
  // halves of the run does not read as tracing cost.
  double untraced_p50 =
      Percentile(Pool(untraced, &RoundResult::update_ref_ns), 50);
  double traced_p50 = Percentile(Pool(traced, &RoundResult::update_ref_ns), 50);
  set("obs.trace_overhead_frac",
      untraced_p50 == 0 ? 0 : traced_p50 / untraced_p50 - 1);
}

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  double scale = 1;  ///< Fraction of the workload's op count per round.
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value);
    } else if (flag == "--scale") {
      o->scale = std::atof(value);
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->scale > 0 && o->scale <= 1;
}

/// Runs at least `min_rounds` rounds, then more while the next one (assumed
/// as long as the last) still ends within `budget_s`.
std::vector<RoundResult> RunRounds(const WorkloadSpec& spec,
                                   const Stream& stream, size_t ops,
                                   double budget_s, size_t min_rounds,
                                   bool traced,
                                   const obs::TracerConfig* trace_config) {
  std::vector<RoundResult> rounds;
  const uint64_t start = obs::MonotonicNanos();
  uint64_t last_ns = 0;
  auto fits = [&] {
    uint64_t next_end = obs::MonotonicNanos() - start + last_ns;
    return static_cast<double>(next_end) / 1e9 <= budget_s;
  };
  while (rounds.size() < min_rounds || fits()) {
    uint64_t t0 = obs::MonotonicNanos();
    rounds.push_back(RunRound(spec, stream, ops, traced, trace_config));
    last_ns = obs::MonotonicNanos() - t0;
  }
  return rounds;
}

}  // namespace

int main(int argc, char** argv) {
  prever::benchutil::ParseTraceFlag(&argc, argv);
  const bool traced = !prever::benchutil::TraceFileFlag().empty();
  const obs::TracerConfig trace_config = obs::Tracer::Get().config();
  obs::Tracer::Get().SetEnabled(false);  // On only inside traced rounds.

  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: prever_bench --workload NAME [--seed N] "
                 "[--seconds S] [--scale F] [--trace=FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "prever_bench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  const size_t ops = std::max<size_t>(
      1, static_cast<size_t>(
             std::llround(opt.scale * static_cast<double>(spec->ops))));
  const Stream stream = MakeStream(*spec, opt.seed, ops);

  const double untraced_budget = traced ? opt.seconds / 2 : opt.seconds;
  std::vector<RoundResult> untraced = RunRounds(
      *spec, stream, ops, untraced_budget, traced ? 1 : 3, false, nullptr);
  std::vector<RoundResult> traced_rounds;
  if (traced) {
    traced_rounds =
        RunRounds(*spec, stream, ops, opt.seconds / 2, 1, true, &trace_config);
  }

  // Correctness: per-op failures plus rounds that disagree on any count.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<const RoundResult*> all;
  for (const RoundResult& r : untraced) all.push_back(&r);
  for (const RoundResult& r : traced_rounds) all.push_back(&r);
  for (const RoundResult* r : all) {
    attempted += r->attempted;
    failed += r->failed;
    failures.insert(failures.end(), r->failures.begin(), r->failures.end());
    for (const auto& [key, value] : all.front()->counts) {
      auto it = r->counts.find(key);
      if (it != r->counts.end() && it->second != value) {
        ++failed;
        failures.push_back("rounds disagree on " + key + ": " +
                           std::to_string(value) + " vs " +
                           std::to_string(it->second));
      }
    }
  }

  obs::Json metrics = obs::Json::Object();
  AddEndToEnd(untraced, &metrics);
  if (traced) AddPerLayer(traced_rounds, untraced, &metrics);

  const RoundResult& ref = traced ? traced_rounds.back() : untraced.back();
  const double slowdown = Median(Pool(untraced, &RoundResult::slowdowns));
  std::printf("workload %s seed %llu: %zu updates/round, %zu untraced + %zu "
              "traced rounds, machine slowdown %.3f (median)\n",
              spec->name, static_cast<unsigned long long>(opt.seed), ops,
              untraced.size(), traced_rounds.size(), slowdown);
  for (const auto& [key, value] : ref.counts) {
    std::printf("  count %-22s %llu\n", key.c_str(),
                static_cast<unsigned long long>(value));
  }
  if (traced) {
    std::printf("  mean us: submit %.3f verify %.3f ordering call %.3f\n",
                Merge(traced_rounds, &RoundResult::submit).mean() / 1e3,
                MergePhase(traced_rounds, "verify").mean() / 1e3,
                Mean(Pool(traced_rounds, &RoundResult::ordering_ns)) / 1e3);
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "prever_bench: FAILED: %s\n", f.c_str());
  }
  std::fflush(stderr);
  prever::benchutil::MaybeWriteTrace("prever_bench");

  obs::Json result = obs::Json::Object();
  result.Set("workload", obs::Json::Str(spec->name));
  result.Set("seed", obs::Json::Int(opt.seed));
  result.Set("ops_per_round", obs::Json::Int(ops));
  result.Set("rounds", obs::Json::Int(untraced.size()));
  result.Set("traced_rounds", obs::Json::Int(traced_rounds.size()));
  result.Set("slowdown", obs::Json::Number(slowdown));
  result.Set("correct", obs::Json::Bool(failed == 0));
  result.Set("attempted", obs::Json::Int(attempted));
  result.Set("failed", obs::Json::Int(failed));
  obs::Json outcomes = obs::Json::Object();
  for (const char* key : kOutcomes) {
    auto it = ref.counts.find(key);
    if (it != ref.counts.end()) outcomes.Set(key, obs::Json::Int(it->second));
  }
  result.Set("outcomes", std::move(outcomes));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
