#include "core/federated_token_engine.h"

#include "mutate/mutation.h"

namespace prever::core {

FederatedTokenEngine::FederatedTokenEngine(
    std::vector<FederatedPlatform*> platforms,
    token::TokenAuthority* authority, OrderingService* ordering,
    std::string cost_field)
    : platforms_(std::move(platforms)),
      authority_(authority),
      ordering_(ordering),
      cost_field_(std::move(cost_field)) {}

token::TokenWallet& FederatedTokenEngine::WalletOf(
    const std::string& producer) {
  auto it = wallets_.find(producer);
  if (it == wallets_.end()) {
    it = wallets_
             .emplace(producer, std::make_unique<token::TokenWallet>(
                                    authority_->public_key(),
                                    next_wallet_seed_++))
             .first;
  }
  return *it->second;
}

Status FederatedTokenEngine::SyncSpentFromLedger() {
  const ledger::LedgerDb& led = ordering_->Ledger();
  PREVER_RETURN_IF_ERROR(led.Audit());
  spent_.clear();
  for (uint64_t seq = 0; seq < led.size(); ++seq) {
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry entry, led.GetEntry(seq));
    spent_.insert(entry.payload);
  }
  return Status::Ok();
}

Status FederatedTokenEngine::SubmitVia(size_t platform_index,
                                       const Update& update) {
  return metrics_.Submit([&]() -> Status {
    PREVER_ASSIGN_OR_RETURN(FederatedPlatform* home,
                            PlatformAt(platforms_, platform_index));
    auto cost_it = update.fields.find(cost_field_);
    if (cost_it == update.fields.end()) {
      return Status::InvalidArgument("update lacks cost field '" +
                                     cost_field_ + "'");
    }
    auto cost = cost_it->second.AsInt64();
    if (!cost.ok() || *cost < 0) {
      return Status::InvalidArgument("cost must be a non-negative int");
    }

    auto spend = metrics_.Phase(obs::TraceStage::kToken);
    // Producer side: ensure the wallet holds `cost` tokens, withdrawing the
    // shortfall. A failed withdrawal IS the regulation rejecting the update:
    // the budget encodes the bound.
    token::TokenWallet& wallet = WalletOf(update.producer);
    size_t need = static_cast<size_t>(*cost);
    if (wallet.NumTokens() < need) {
      auto got = wallet.Withdraw(*authority_, update.producer,
                                 need - wallet.NumTokens(), update.timestamp);
      PREVER_RETURN_IF_ERROR(got.status());
      if (wallet.NumTokens() < need) {
        return Status::ConstraintViolation(
            "token budget exhausted: regulation limit reached for '" +
            update.producer + "'");
      }
    }

    // Platform side: verify and spend each token against the shared ledger
    // state. Wallet draws mutate the wallet, so they run serially up front;
    // the signature checks are independent pure computations and fan out
    // across the pool when one is set. Double-spend checks read the shared
    // spent-set and stay serial.
    std::vector<token::Token> to_spend;
    to_spend.reserve(need);
    for (size_t i = 0; i < need; ++i) {
      PREVER_ASSIGN_OR_RETURN(token::Token t, wallet.Take());
      to_spend.push_back(std::move(t));
    }
    std::vector<char> sig_ok(need, 0);
    auto verify_one = [&](size_t i) {
      sig_ok[i] = crypto::RsaVerify(authority_->public_key(),
                                    to_spend[i].serial, to_spend[i].signature)
                      ? 1
                      : 0;
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(need, verify_one);
    } else {
      for (size_t i = 0; i < need; ++i) verify_one(i);
    }
    // A bad token rejects the whole spend. Only the bad tokens are dropped;
    // the honest ones drawn beside them go back to the wallet, in reverse
    // draw order so the wallet ends as it was without the bad ones.
    Status rejected;
    std::vector<char> bad(need, 0);
    for (size_t i = 0; i < need; ++i) {
      if (PREVER_MUTATION(FTE_SIG_ACCEPT, !sig_ok[i], false)) {
        bad[i] = 1;
        if (rejected.ok()) {
          rejected = Status::IntegrityViolation("token signature invalid");
        }
      } else if (PREVER_MUTATION(FTE_DOUBLE_SPEND_SKIP,
                                 spent_.count(to_spend[i].serial) != 0,
                                 false)) {
        bad[i] = 1;
        if (rejected.ok()) {
          rejected = Status::AlreadyExists("token double spend detected");
        }
      }
    }
    if (!rejected.ok()) {
      for (size_t i = need; i-- > 0;) {
        if (!bad[i]) wallet.Return(std::move(to_spend[i]));
      }
      return rejected;
    }
    spend.End();

    // Apply locally, then order the spent serials so every platform learns
    // the tokens are burned (and nothing else).
    auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
    PREVER_RETURN_IF_ERROR(home->db.Apply(update.mutation));
    for (const token::Token& t : to_spend) {
      spent_.insert(t.serial);
      PREVER_RETURN_IF_ERROR(ordering_->Append(t.serial, update.timestamp));
      ++tokens_spent_;
    }
    return Status::Ok();
  });
}

}  // namespace prever::core
