#ifndef PREVER_CORE_FEDERATED_TOKEN_ENGINE_H_
#define PREVER_CORE_FEDERATED_TOKEN_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/federated_mpc_engine.h"  // FederatedPlatform.
#include "core/ordering.h"
#include "token/token.h"

namespace prever::core {

/// RC2, centralized path — the Separ instantiation (§5): a trusted external
/// authority encodes the regulation as a per-participant budget of
/// single-use pseudonymous tokens (blind-signed, hence unlinkable), and the
/// mutually distrustful platforms cooperate only through a shared spent-
/// token ledger ordered by this engine's ordering service.
///
/// An update consuming `cost` units (e.g. hours) must present `cost` fresh
/// tokens. Platforms check them through one token::TokenVerifier, the only
/// spend check and spent-serial index; this engine adds only the ledger
/// writes. Platforms never learn the worker's totals at other platforms.
/// The expressiveness limit §4 notes — only COUNT/budget-style regulations
/// — is inherent and surfaced by the engine's interface: no constraint
/// catalog, just the budget.
class FederatedTokenEngine : public UpdateEngine {
 public:
  /// `cost_field`: update field holding how many tokens the update costs.
  FederatedTokenEngine(std::vector<FederatedPlatform*> platforms,
                       token::TokenAuthority* authority,
                       OrderingService* ordering, std::string cost_field);

  /// Producer-side: a wallet per producer, lazily created and seeded from
  /// the producer id and the ordering ledger's digest at creation.
  token::TokenWallet& WalletOf(const std::string& producer);

  /// Submits via a platform, paying with tokens drawn from the producer's
  /// wallet (withdrawing on demand from the authority). ConstraintViolation
  /// when the period budget cannot cover the cost. Each serial is marked
  /// spent by OrderThenApply, and the update applied once all are ordered;
  /// when an append fails, the update is not applied and the tokens whose
  /// serials are known not to be ledgered go back to the wallet.
  Status SubmitVia(size_t platform_index, const Update& update);
  Status SubmitUpdate(const Update& update) override {
    return SubmitVia(0, update);
  }

  EngineStats stats() const override { return metrics_.Snapshot(); }
  const char* name() const override { return "federated-token-rc2"; }

  /// Size of the spent index (serials ordered here or synced from ledger).
  uint64_t tokens_spent() const { return verifier_.num_spent(); }

  /// Rebuilds the spent-serial index from the ordering ledger — the restart
  /// path: the committed payloads ARE the burned serials.
  Status SyncSpentFromLedger() {
    return verifier_.SyncFromLedger(ordering_->Ledger());
  }

  /// Optional worker pool (not owned; may be null): the tokens of one
  /// update are checked concurrently when a pool is set. Wallet draws and
  /// ledger writes stay serial.
  void set_thread_pool(common::ThreadPool* pool) { pool_ = pool; }

 private:
  std::vector<FederatedPlatform*> platforms_;
  token::TokenAuthority* authority_;
  OrderingService* ordering_;
  std::string cost_field_;
  common::ThreadPool* pool_ = nullptr;
  token::TokenVerifier verifier_;
  std::map<std::string, std::unique_ptr<token::TokenWallet>> wallets_;
  EngineMetrics metrics_{"federated-token-rc2"};
};

}  // namespace prever::core

#endif  // PREVER_CORE_FEDERATED_TOKEN_ENGINE_H_
