#include "core/federated_token_engine.h"

#include "common/serial.h"
#include "crypto/sha256.h"

namespace prever::core {

FederatedTokenEngine::FederatedTokenEngine(
    std::vector<FederatedPlatform*> platforms,
    token::TokenAuthority* authority, OrderingService* ordering,
    std::string cost_field)
    : platforms_(std::move(platforms)),
      authority_(authority),
      ordering_(ordering),
      cost_field_(std::move(cost_field)),
      verifier_(authority->public_key()) {}

token::TokenWallet& FederatedTokenEngine::WalletOf(
    const std::string& producer) {
  auto it = wallets_.find(producer);
  if (it == wallets_.end()) {
    // Seed from the producer and the spent-serial ledger as it stands now:
    // an engine restarted over the same ledger after spends draws serials
    // no earlier instance drew, so its fresh tokens are not already burned.
    ledger::LedgerDigest digest = ordering_->Ledger().Digest();
    BinaryWriter w;
    w.WriteString(producer);
    w.WriteU64(digest.size);
    w.WriteBytes(digest.root);
    const Bytes seed = crypto::Sha256::Hash(w.bytes());
    BinaryReader r(seed);
    it = wallets_
             .emplace(producer,
                      std::make_unique<token::TokenWallet>(
                          authority_->public_key(), r.ReadU64().value()))
             .first;
  }
  return *it->second;
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

    // Platform side: check the whole spend against the shared spent index.
    // Wallet draws mutate the wallet, so they run serially up front.
    std::vector<token::Token> to_spend;
    to_spend.reserve(need);
    for (size_t i = 0; i < need; ++i) {
      PREVER_ASSIGN_OR_RETURN(token::Token t, wallet.Take());
      to_spend.push_back(std::move(t));
    }
    // A bad token rejects the whole spend. Only the bad tokens are dropped;
    // the honest ones drawn beside them go back to the wallet, in reverse
    // draw order so the wallet ends as it was without the bad ones.
    std::vector<char> bad;
    Status checked = verifier_.Check(to_spend, pool_, &bad);
    if (!checked.ok()) {
      for (size_t i = need; i-- > 0;) {
        if (!bad[i]) wallet.Return(std::move(to_spend[i]));
      }
      return checked;
    }
    spend.End();

    // Order the spent serials so every platform learns the tokens are
    // burned (and nothing else), then apply locally: an update whose
    // serials did not all reach the ledger leaves the platform database
    // untouched, so a failed spend cannot keep its update and its tokens.
    // A serial joins the spent index only once it is known to be ledgered.
    auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
    // Unspent tokens go back to the wallet, in reverse draw order as above.
    auto refund_from = [&](size_t first) {
      for (size_t j = need; j-- > first;) wallet.Return(std::move(to_spend[j]));
    };
    if (Status fits = home->db.Check(update.mutation); !fits.ok()) {
      refund_from(0);
      return fits;
    }
    for (size_t i = 0; i < need; ++i) {
      bool unledgered = false;
      Status ordered = OrderThenApply(
          *ordering_, to_spend[i].serial, update.timestamp,
          [&] {
            verifier_.MarkSpent(to_spend[i].serial);
            return Status::Ok();
          },
          &unledgered);
      if (!ordered.ok()) {
        // Serial i is spent if the commit step found it ledgered and
        // refunded if it is known off the ledger; in doubt, its token stays
        // out of the wallet (lost, never spent twice).
        refund_from(unledgered ? i : i + 1);
        return ordered;
      }
    }
    return home->db.Apply(update.mutation);
  });
}

}  // namespace prever::core
