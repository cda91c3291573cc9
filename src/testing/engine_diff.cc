#include "testing/engine_diff.h"

#include <atomic>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraint/constraint.h"
#include "core/federated_mpc_engine.h"
#include "core/federated_threshold_engine.h"
#include "core/federated_token_engine.h"
#include "core/ordering.h"
#include "core/plaintext_engine.h"
#include "crypto/pedersen.h"
#include "obs/registry.h"
#include "obs/tracing.h"
#include "testing/boundary_mutator.h"
#include "workload/crowdworking.h"

namespace prever::simtest {

namespace {

using core::Update;

using workload::CrowdworkingWorkload;
using workload::TaskEvent;

const char* Bit(bool b) { return b ? "1" : "0"; }

/// Per-worker (sum of hours, row count) extracted from a worklog table.
void AccumulateWorklog(const storage::Database& db,
                       std::map<std::string, int64_t>* sums,
                       std::map<std::string, uint64_t>* counts) {
  auto table = db.GetTable("worklog");
  if (!table.ok()) return;
  (*table)->Scan([&](const storage::Row& row) {
    auto worker = row[1].AsString();
    auto hours = row[2].AsInt64();
    if (worker.ok() && hours.ok()) {
      (*sums)[*worker] += *hours;
      ++(*counts)[*worker];
    }
    return true;
  });
}

}  // namespace

std::unique_ptr<EngineDiffFixtures> EngineDiffFixtures::Create(int64_t bound,
                                                               uint64_t seed) {
  auto f = std::make_unique<EngineDiffFixtures>();
  f->owned_owner = std::make_unique<core::DataOwner>(
      256, crypto::PedersenParams::Test256(), seed);
  f->owned_authority = std::make_unique<token::TokenAuthority>(
      512, static_cast<uint64_t>(bound), kWeek, seed + 1);
  crypto::Drbg drbg(seed + 2);
  for (int i = 0; i < 3; ++i) {
    f->owned_keys.push_back(crypto::RsaGenerateKey(512, drbg).value());
  }
  f->owner = f->owned_owner.get();
  f->authority = f->owned_authority.get();
  f->producer_keys = &f->owned_keys;
  return f;
}

std::string EngineDiffReport::Summary() const {
  std::string s = "engine differential failed\n  seed: " +
                  std::to_string(seed) + "\n  divergence: " + divergence +
                  "\n  replay: PREVER_SIM_SEED=" + std::to_string(seed) +
                  " ./tests/sim_engine_diff_test\n";
  // Process-lifetime engine counters from the default registry: which
  // engine family diverged is usually visible from the accept/reject mix,
  // and the rejection stages say where in the pipeline updates were turned
  // away.
  std::string metrics = obs::Registry::Default().RenderText();
  std::string engine_lines;
  size_t start = 0;
  while (start < metrics.size()) {
    size_t end = metrics.find('\n', start);
    if (end == std::string::npos) end = metrics.size();
    std::string_view line(metrics.data() + start, end - start);
    if (line.starts_with("prever_engine_updates_total") ||
        line.starts_with("prever_engine_rejections_total")) {
      engine_lines += "    " + std::string(line) + "\n";
    }
    start = end + 1;
  }
  if (!engine_lines.empty()) s += "  engine counters:\n" + engine_lines;
  if (!trace_tail.empty()) {
    s += "  flight recorder tail (last causal events at the divergence):\n";
    s += trace_tail;
  }
  if (!trace.empty()) s += "  trace:\n" + trace;
  return s;
}

EngineDiffReport RunEngineDifferential(uint64_t seed,
                                       const EngineDiffOptions& o,
                                       const EngineDiffFixtures& fixtures) {
  EngineDiffReport report;
  report.seed = seed;
  // Sample every transaction into a small flight-recorder ring for the
  // run; the first divergence snapshots the tail into the report so the
  // failure summary shows which engine/stage the update was in.
  obs::TracerConfig tcfg;
  tcfg.enabled = true;
  tcfg.sample_period = 1;
  tcfg.ring_capacity = 512;
  tcfg.trace_unrooted_messages = true;
  obs::Tracer::Get().Configure(tcfg);
  struct DisableTracingOnExit {
    ~DisableTracingOnExit() { obs::Tracer::Get().SetEnabled(false); }
  } tracing_off;
  auto fail = [&](std::string why) {
    report.ok = false;
    if (report.divergence.empty()) {
      report.divergence = std::move(why);
      report.trace_tail = obs::Tracer::Get().TailString(32);
    }
  };

  if (fixtures.authority->budget_per_period() !=
      static_cast<uint64_t>(o.bound)) {
    fail("fixture mismatch: authority budget " +
         std::to_string(fixtures.authority->budget_per_period()) +
         " != bound " + std::to_string(o.bound));
    return report;
  }

  // ---- Deterministic signed-update stream. All timestamps live inside one
  // regulation window [kHour, kWeek), so the catalog's sliding 7d WINDOW,
  // the encrypted engine's kWeek bound window, and the token authority's
  // per-period budget all constrain exactly the same set of updates.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  core::ProducerKeyDirectory directory;
  std::vector<std::string> producers;
  for (size_t i = 0; i < o.num_producers; ++i) {
    // Seed-qualified names: the shared TokenAuthority tracks budgets per
    // (participant, period), so reusing a name across seeds would leak
    // budget state between scenarios.
    std::string name =
        "w" + std::to_string(seed) + "n" + std::to_string(i);
    producers.push_back(name);
    const auto& key = (*fixtures.producer_keys)[i % fixtures.producer_keys->size()];
    Status reg = directory.Register(name, key.pub);
    if (!reg.ok()) {
      fail("producer registration failed: " + reg.message());
      return report;
    }
  }

  // Every engine but the token one gets fresh state per run, and the shared
  // TokenAuthority budgets by (participant, period). Re-running a seed in
  // one process (determinism checks, replay after a sweep) must not see the
  // previous run's spent budget, so each run lands in its own period. The
  // offset shifts all timestamps equally: window contents, period totals,
  // and hence every accept/reject decision — and the trace — are unchanged.
  static std::atomic<uint64_t> run_counter{0};
  SimTime period_offset = run_counter.fetch_add(1) * kWeek;

  std::vector<core::SignedUpdate> stream;
  if (!o.boundary) {
    SimTime step = (kWeek - 2 * kHour) / (o.num_updates + 1);
    for (size_t j = 0; j < o.num_updates; ++j) {
      size_t pi = rng.NextBelow(o.num_producers);
      // Mix: mostly modest shifts that accumulate toward the cap, some that
      // individually exceed it, some mid-size ones whose fate depends on the
      // worker's running total.
      uint64_t roll = rng.NextBelow(10);
      int64_t hours;
      if (roll < 6) {
        hours = static_cast<int64_t>(rng.NextBelow(13));  // 0..12
      } else if (roll < 8) {
        hours = o.bound + 1 + static_cast<int64_t>(rng.NextBelow(20));
      } else {
        hours = 13 + static_cast<int64_t>(rng.NextBelow(28));  // 13..40
      }
      SimTime at = period_offset + kHour + j * step + rng.NextBelow(step / 2);
      Update u = TaskEvent{producers[pi], 0, hours, at}.ToUpdate(j);
      const auto& key =
          (*fixtures.producer_keys)[pi % fixtures.producer_keys->size()];
      auto signed_update = core::SignUpdate(std::move(u), key);
      if (!signed_update.ok()) {
        fail("signing failed: " + signed_update.status().message());
        return report;
      }
      stream.push_back(std::move(signed_update).value());
    }
  }

  // ---- One instance of every engine, each with its own storage and ledger.
  std::string regulation =
      "SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) + "
      "update.hours <= " +
      std::to_string(o.bound);

  const storage::Schema worklog = CrowdworkingWorkload::WorklogSchema();
  storage::Database plain_db;
  constraint::ConstraintCatalog catalog;
  if (!plain_db.CreateTable("worklog", worklog).ok() ||
      !catalog
           .Add("flsa", constraint::ConstraintScope::kRegulation,
                constraint::ConstraintVisibility::kPublic, regulation)
           .ok()) {
    fail("plaintext setup failed");
    return report;
  }
  core::CentralizedOrdering ord_plain, ord_enc, ord_tok, ord_thr, ord_mpc;
  core::PlaintextEngine plain(&plain_db, &catalog, &ord_plain);

  std::vector<core::RegulatedBound> bounds = {
      {constraint::BoundDirection::kUpper, o.bound, kWeek, 8}};
  core::EncryptedEngine encrypted(fixtures.owner, &ord_enc, "worker", "hours",
                                  bounds, o.value_bits, seed | 1);

  auto make_platforms = [&](const char* tag) {
    std::vector<std::unique_ptr<core::FederatedPlatform>> ps;
    for (size_t i = 0; i < o.num_platforms; ++i) {
      auto p = std::make_unique<core::FederatedPlatform>();
      p->id = std::string(tag) + "-" + std::to_string(i);
      (void)p->db.CreateTable("worklog", worklog);
      ps.push_back(std::move(p));
    }
    return ps;
  };
  auto raw = [](auto& ps) {
    std::vector<core::FederatedPlatform*> r;
    for (auto& p : ps) r.push_back(p.get());
    return r;
  };

  auto tok_platforms = make_platforms("tok");
  auto thr_platforms = make_platforms("thr");
  auto mpc_platforms = make_platforms("mpc");
  core::FederatedTokenEngine token_engine(raw(tok_platforms),
                                          fixtures.authority, &ord_tok,
                                          "hours");
  core::FederatedThresholdEngine threshold_engine(
      raw(thr_platforms), &catalog, &ord_thr,
      crypto::PedersenParams::Test256(), seed * 5 + 3);
  core::FederatedMpcEngine mpc_engine(raw(mpc_platforms), &catalog, &ord_mpc,
                                      seed * 7 + 5);

  // ---- Replay the stream through all five engines. The body is shared by
  // the random-stream and boundary-mutator modes; `expect` (when non-null)
  // is the mutator's independent prediction of the reference decision.
  std::map<std::string, int64_t> expect_sum;
  std::map<std::string, uint64_t> expect_count;
  int64_t accepted_hours = 0;
  auto process = [&](const core::SignedUpdate& su, const char* kind,
                     const bool* expect) {
    const Update& u = su.update;
    Status sig = core::VerifyUpdateSignature(su, directory);
    if (!sig.ok()) {
      fail("update " + u.id + ": valid signature rejected: " + sig.message());
      return false;
    }
    auto hours_v = u.fields.at("hours").AsInt64();
    int64_t hours = hours_v.ok() ? *hours_v : -1;
    bool plain_ok = plain.SubmitUpdate(u).ok();
    bool enc_ok = encrypted.SubmitUpdate(u).ok();
    size_t platform = report.updates % o.num_platforms;
    bool tok_ok = token_engine.SubmitVia(platform, u).ok();
    bool thr_ok = threshold_engine.SubmitVia(platform, u).ok();
    bool mpc_ok = mpc_engine.SubmitVia(platform, u).ok();
    report.trace += u.id + " worker=" + u.producer +
                    " hours=" + std::to_string(hours) + " via=" +
                    std::to_string(platform) + " plain=" + Bit(plain_ok) +
                    " enc=" + Bit(enc_ok) + " tok=" + Bit(tok_ok) + " thr=" +
                    Bit(thr_ok) + " mpc=" + Bit(mpc_ok) +
                    (kind != nullptr ? std::string(" kind=") + kind : "") +
                    "\n";
    ++report.updates;
    if (plain_ok) {
      ++report.accepted;
      expect_sum[u.producer] += hours;
      ++expect_count[u.producer];
      accepted_hours += hours;
    }
    auto diverged = [&](const char* engine, bool got) {
      fail("update " + u.id + " (worker " + u.producer + ", hours " +
           std::to_string(hours) + "): " + engine + " engine " +
           (got ? "accepted" : "rejected") + " but plaintext reference " +
           (plain_ok ? "accepted" : "rejected"));
    };
    if (expect != nullptr && plain_ok != *expect) {
      fail("update " + u.id + " (worker " + u.producer + ", hours " +
           std::to_string(hours) + ", kind " + (kind ? kind : "?") +
           "): boundary mutator's windowed-sum model predicted " +
           (*expect ? "accept" : "reject") + " but plaintext engine " +
           (plain_ok ? "accepted" : "rejected"));
    }
    if (enc_ok != plain_ok) diverged("encrypted", enc_ok);
    if (tok_ok != plain_ok) diverged("token", tok_ok);
    if (thr_ok != plain_ok) diverged("threshold", thr_ok);
    if (mpc_ok != plain_ok) diverged("mpc", mpc_ok);
    return report.ok;
  };
  if (o.boundary) {
    BoundaryMutator mutator(o.bound, kWeek, period_offset, producers,
                            seed * 3 + 1);
    size_t j = 0;
    while (!mutator.Done()) {
      BoundaryPlan plan = mutator.Next(plain_db);
      Update u = TaskEvent{plan.worker, 0, plan.hours, plan.at}.ToUpdate(j);
      const auto& key = (*fixtures.producer_keys)[plan.worker_index %
                                                  fixtures.producer_keys->size()];
      auto signed_update = core::SignUpdate(std::move(u), key);
      if (!signed_update.ok()) {
        fail("signing failed: " + signed_update.status().message());
        return report;
      }
      if (!process(*signed_update, plan.kind, &plan.expect_accept)) {
        return report;
      }
      ++j;
    }
  } else {
    for (const core::SignedUpdate& su : stream) {
      if (!process(su, nullptr, nullptr)) return report;
    }
  }
  if (!report.ok) return report;

  // ---- Final decrypted state must agree with the plaintext reference.
  std::map<std::string, int64_t> plain_sum;
  std::map<std::string, uint64_t> plain_count;
  AccumulateWorklog(plain_db, &plain_sum, &plain_count);
  if (plain_sum != expect_sum || plain_count != expect_count) {
    fail("plaintext database disagrees with its own accept decisions");
    return report;
  }
  // ... and must equal a replay of its ledger onto an empty database.
  storage::Database replay;
  (void)replay.CreateTable("worklog", worklog);
  bool replayed = true;
  for (uint64_t seq = 0; replayed && seq < ord_plain.Ledger().size(); ++seq) {
    auto update = Update::Decode(ord_plain.Ledger().GetEntry(seq)->payload);
    replayed = update.ok() && replay.Apply(update->mutation).ok();
  }
  const storage::Table& want = **replay.GetTable("worklog");
  const storage::Table& got = **plain_db.GetTable("worklog");
  replayed = replayed && want.size() == got.size();
  got.Scan([&](const storage::Row& row) {
    auto same = want.Get(row[0]);
    return replayed = replayed && same.ok() && *same == row;
  });
  if (!replayed) {
    fail("plaintext database differs from a replay of its ledger");
    return report;
  }
  for (const auto& [worker, count] : expect_count) {
    size_t enc_rows = encrypted.NumRows(worker);
    if (enc_rows != count) {
      fail("encrypted engine holds " + std::to_string(enc_rows) +
           " sealed rows for " + worker + ", expected " +
           std::to_string(count));
      return report;
    }
  }
  std::map<std::string, int64_t> tok_sum, thr_sum, mpc_sum;
  std::map<std::string, uint64_t> tok_count, thr_count, mpc_count;
  for (auto& p : tok_platforms) AccumulateWorklog(p->db, &tok_sum, &tok_count);
  for (auto& p : thr_platforms) AccumulateWorklog(p->db, &thr_sum, &thr_count);
  for (auto& p : mpc_platforms) AccumulateWorklog(p->db, &mpc_sum, &mpc_count);
  struct Fed {
    const char* name;
    const std::map<std::string, int64_t>* sum;
    const std::map<std::string, uint64_t>* count;
  };
  for (const Fed& fed : {Fed{"token", &tok_sum, &tok_count},
                         Fed{"threshold", &thr_sum, &thr_count},
                         Fed{"mpc", &mpc_sum, &mpc_count}}) {
    if (*fed.sum != expect_sum || *fed.count != expect_count) {
      fail(std::string(fed.name) +
           " engine's federated databases disagree with the plaintext "
           "reference state");
      return report;
    }
  }
  if (token_engine.tokens_spent() != static_cast<uint64_t>(accepted_hours)) {
    fail("token engine spent " + std::to_string(token_engine.tokens_spent()) +
         " tokens but accepted updates total " +
         std::to_string(accepted_hours) + " hours");
    return report;
  }
  // Ledger commit counts (plaintext: the replay above): one entry per
  // accepted update, except the token engine's one per spent token.
  struct Led {
    const char* name;
    const core::OrderingService* ord;
    uint64_t expect;
  };
  for (const Led& led :
       {Led{"encrypted", &ord_enc, report.accepted},
        Led{"threshold", &ord_thr, report.accepted},
        Led{"mpc", &ord_mpc, report.accepted},
        Led{"token", &ord_tok, static_cast<uint64_t>(accepted_hours)}}) {
    if (led.ord->CommittedCount() != led.expect) {
      fail(std::string(led.name) + " ledger committed " +
           std::to_string(led.ord->CommittedCount()) + " entries, expected " +
           std::to_string(led.expect));
      return report;
    }
  }
  // Engine stats must tell the same acceptance story.
  const std::vector<const core::UpdateEngine*> engines = {
      &plain, &encrypted, &token_engine, &threshold_engine, &mpc_engine};
  for (const core::UpdateEngine* e : engines) {
    if (e->stats().accepted != report.accepted ||
        e->stats().submitted != report.updates) {
      fail(std::string(e->name()) + " stats report " +
           std::to_string(e->stats().accepted) + "/" +
           std::to_string(e->stats().submitted) +
           " accepted/submitted, expected " +
           std::to_string(report.accepted) + "/" +
           std::to_string(report.updates));
      return report;
    }
  }

  // The MPC engine's platform verifiers must have stayed on the
  // incremental delta path, never the per-query rescan.
  for (size_t i = 0; i < o.num_platforms; ++i) {
    constraint::CompiledVerifier::Stats vs = mpc_engine.verifier_stats(i);
    if (vs.agg.scan_evals != 0) {
      fail("mpc platform " + std::to_string(i) + " verifier fell off the "
           "incremental path: " + std::to_string(vs.agg.scan_evals) +
           " per-query rescans");
      return report;
    }
    if (report.updates >= 2 &&
        vs.agg.cache_hits + vs.agg.delta_applies == 0) {
      fail("mpc platform " + std::to_string(i) + " verifier never served "
           "from incremental aggregate state (" +
           std::to_string(vs.agg.cache_builds) + " builds)");
      return report;
    }
  }

  report.trace += "final:";
  for (const auto& [worker, sum] : expect_sum) {
    report.trace += " " + worker + "=" + std::to_string(sum) + "h/" +
                    std::to_string(expect_count[worker]) + "rows";
  }
  report.trace += " tokens=" + std::to_string(token_engine.tokens_spent()) +
                  " accepted=" + std::to_string(report.accepted) + "/" +
                  std::to_string(report.updates) + "\n";
  return report;
}

}  // namespace prever::simtest
