#include "token/token.h"

#include <utility>

#include "mutate/mutation.h"

namespace prever::token {

namespace {

crypto::RsaKeyPair GenerateAuthorityKey(size_t rsa_bits, uint64_t seed) {
  crypto::Drbg drbg(seed);
  return crypto::RsaGenerateKey(rsa_bits, drbg).value();
}

}  // namespace

TokenAuthority::TokenAuthority(size_t rsa_bits, uint64_t budget_per_period,
                               SimTime period, uint64_t seed)
    : TokenAuthority(GenerateAuthorityKey(rsa_bits, seed), budget_per_period,
                     period) {}

TokenAuthority::TokenAuthority(crypto::RsaKeyPair key,
                               uint64_t budget_per_period, SimTime period)
    : key_(std::move(key)), budget_(budget_per_period), period_(period) {}

Result<crypto::BigInt> TokenAuthority::IssueBlindToken(
    const std::string& participant, const crypto::BigInt& blinded_serial,
    SimTime now) {
  auto key = std::make_pair(participant, PeriodIndex(now));
  uint64_t& used = issued_[key];
  if (PREVER_MUTATION(TOKEN_BUDGET_OFFBYONE, used >= budget_,
                      used > budget_)) {
    return Status::PermissionDenied(
        "budget exhausted for '" + participant + "' in period " +
        std::to_string(PeriodIndex(now)));
  }
  PREVER_ASSIGN_OR_RETURN(crypto::BigInt signature,
                          crypto::RsaBlindSign(key_, blinded_serial));
  ++used;
  return signature;
}

uint64_t TokenAuthority::RemainingBudget(const std::string& participant,
                                         SimTime now) const {
  auto it = issued_.find(std::make_pair(participant, PeriodIndex(now)));
  uint64_t used = it == issued_.end() ? 0 : it->second;
  return budget_ - used;
}

Result<size_t> TokenWallet::Withdraw(TokenAuthority& authority,
                                     const std::string& participant,
                                     size_t count, SimTime now) {
  size_t obtained = 0;
  for (size_t i = 0; i < count; ++i) {
    Token token;
    token.serial = drbg_.Generate(32);
    PREVER_ASSIGN_OR_RETURN(
        crypto::BlindingResult blinding,
        crypto::RsaBlind(authority_key_, token.serial, drbg_));
    auto blind_sig =
        authority.IssueBlindToken(participant, blinding.blinded_message, now);
    if (!blind_sig.ok()) {
      if (blind_sig.status().code() == StatusCode::kPermissionDenied) {
        return obtained;  // Budget ran out: partial withdrawal.
      }
      return blind_sig.status();
    }
    token.signature =
        crypto::RsaUnblind(authority_key_, *blind_sig, blinding.unblinder);
    tokens_.push_back(std::move(token));
    ++obtained;
  }
  return obtained;
}

Result<Token> TokenWallet::Take() {
  if (tokens_.empty()) return Status::Unavailable("wallet is empty");
  Token t = std::move(tokens_.back());
  tokens_.pop_back();
  return t;
}

Status TokenVerifier::Check(const std::vector<Token>& tokens,
                            common::ThreadPool* pool,
                            std::vector<char>* rejected) const {
  enum Verdict : char { kFresh, kBadSignature, kSpent };
  const size_t n = tokens.size();
  // Per-token checks are pure reads (RSA verification and a lookup in the
  // spent index), so they fan out across the pool; nothing writes the index
  // while a check runs.
  std::vector<char> verdict(n, kFresh);
  auto check_one = [&](size_t i) {
    const Token& t = tokens[i];
    if (PREVER_MUTATION(
            TOKEN_SIG_ACCEPT,
            !crypto::RsaVerify(authority_key_, t.serial, t.signature),
            false)) {
      verdict[i] = kBadSignature;
    } else if (PREVER_MUTATION(TOKEN_DOUBLE_SPEND_SKIP,
                               spent_.count(t.serial) != 0, false)) {
      verdict[i] = kSpent;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, check_one);
  } else {
    for (size_t i = 0; i < n; ++i) check_one(i);
  }
  if (rejected != nullptr) rejected->assign(n, 0);
  Status status;
  std::set<Bytes> seen;
  for (size_t i = 0; i < n; ++i) {
    // A serial presented twice within one spend is a double spend too.
    if (verdict[i] == kFresh &&
        PREVER_MUTATION(TOKEN_DOUBLE_SPEND_SKIP,
                        !seen.insert(tokens[i].serial).second, false)) {
      verdict[i] = kSpent;
    }
    if (verdict[i] == kFresh) continue;
    if (rejected != nullptr) (*rejected)[i] = 1;
    if (status.ok()) {
      status = verdict[i] == kBadSignature
                   ? Status::IntegrityViolation("token signature invalid")
                   : Status::AlreadyExists("token already spent (double spend)");
    }
  }
  return status;
}

Status TokenVerifier::Spend(const Token& token, ledger::LedgerDb& ledger,
                            SimTime now) {
  PREVER_RETURN_IF_ERROR(Check({token}));
  ledger.Append(token.serial, now);
  MarkSpent(token.serial);
  return Status::Ok();
}

Status TokenVerifier::SyncFromLedger(const ledger::LedgerDb& ledger) {
  PREVER_RETURN_IF_ERROR(ledger.Audit());
  spent_.clear();
  for (uint64_t seq = 0; seq < ledger.size(); ++seq) {
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry entry, ledger.GetEntry(seq));
    spent_.insert(entry.payload);
  }
  return Status::Ok();
}

}  // namespace prever::token
