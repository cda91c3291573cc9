#include "core/public_data_engine.h"

namespace prever::core {

using crypto::BigInt;

PublicDataEngine::PublicDataEngine(
    storage::Database* db, const constraint::ConstraintCatalog* public_catalog,
    std::vector<AttestationRequirement> requirements,
    OrderingService* ordering, const crypto::PedersenParams& pedersen)
    : db_(db),
      requirements_(std::move(requirements)),
      ordering_(ordering),
      pedersen_(&pedersen),
      verifier_(*public_catalog, *db) {}

Result<PrivateAttestation> PublicDataEngine::Attest(
    const AttestationRequirement& requirement, int64_t private_value,
    crypto::Drbg& drbg) {
  if (private_value < 0) {
    return Status::InvalidArgument("attested values must be non-negative");
  }
  PrivateAttestation out;
  out.field = requirement.field;
  BigInt v(private_value);
  BigInt r = drbg.RandomBelow(pedersen_->q);
  out.commitment = crypto::PedersenCommit(*pedersen_, v, r);
  Result<crypto::RangeProof> proof =
      requirement.direction == constraint::BoundDirection::kLower
          ? crypto::ProveLowerBound(*pedersen_, out.commitment, v, r,
                                    BigInt(requirement.bound),
                                    requirement.slack_bits, drbg)
          : crypto::ProveUpperBound(*pedersen_, out.commitment, v, r,
                                    BigInt(requirement.bound),
                                    requirement.slack_bits, drbg);
  if (!proof.ok()) {
    return Status::ConstraintViolation(
        "private value cannot satisfy requirement on '" + requirement.field +
        "'");
  }
  out.proof = std::move(*proof);
  return out;
}

Status PublicDataEngine::Submit(const Submission& submission) {
  return metrics_.Submit([&] { return Admit(submission); });
}

Status PublicDataEngine::Admit(const Submission& submission) {
  // (a) Public constraints over public data + public update fields.
  constraint::EvalContext ctx{db_, &submission.update.fields,
                              submission.update.timestamp};
  auto verify = metrics_.Phase(obs::TraceStage::kVerify);
  PREVER_RETURN_IF_ERROR(verifier_.VerifyAll(ctx));
  verify.End();
  // (b) One valid attestation per private requirement.
  auto attest = metrics_.Phase(obs::TraceStage::kCrypto);
  for (const AttestationRequirement& req : requirements_) {
    const PrivateAttestation* found = nullptr;
    for (const PrivateAttestation& att : submission.attestations) {
      if (att.field == req.field) {
        found = &att;
        break;
      }
    }
    if (found == nullptr) {
      return Status::ConstraintViolation("missing attestation for '" +
                                         req.field + "'");
    }
    bool proof_ok =
        req.direction == constraint::BoundDirection::kLower
            ? crypto::VerifyLowerBound(*pedersen_, found->commitment,
                                       found->proof, BigInt(req.bound),
                                       req.slack_bits)
            : crypto::VerifyUpperBound(*pedersen_, found->commitment,
                                       found->proof, BigInt(req.bound),
                                       req.slack_bits);
    if (!proof_ok) {
      return Status::ConstraintViolation("attestation proof for '" +
                                         req.field + "' does not verify");
    }
  }
  attest.End();
  // Ledger the (public) update together with the attestation commitments,
  // so auditors can re-verify later, then apply it to the public database.
  auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
  PREVER_RETURN_IF_ERROR(db_->Check(submission.update.mutation));
  BinaryWriter w;
  w.WriteBytes(submission.update.Encode());
  w.WriteU32(static_cast<uint32_t>(submission.attestations.size()));
  for (const PrivateAttestation& att : submission.attestations) {
    w.WriteString(att.field);
    w.WriteBytes(att.commitment.c.ToBytes());
  }
  return OrderThenApply(*ordering_, w.Take(), submission.update.timestamp,
                        [&] { return db_->Apply(submission.update.mutation); });
}

Status PublicDataEngine::SubmitUpdate(const Update& update) {
  return metrics_.Submit([&]() -> Status {
    if (!requirements_.empty()) {
      return Status::InvalidArgument(
          "engine has private requirements; use Submit with attestations");
    }
    Submission s;
    s.update = update;
    return Admit(s);
  });
}

Result<PublicDataEngine::PirSnapshot> PublicDataEngine::BuildPirSnapshot(
    const std::string& table, size_t record_size) const {
  PREVER_ASSIGN_OR_RETURN(const storage::Table* t, db_->GetTable(table));
  std::vector<Bytes> records;
  Status encode_error;
  t->Scan([&](const storage::Row& row) {
    BinaryWriter w;
    for (const storage::Value& v : row) v.EncodeTo(w);
    Bytes rec = w.Take();
    if (rec.size() > record_size) {
      encode_error = Status::InvalidArgument(
          "row does not fit in record_size; increase it");
      return false;
    }
    rec.resize(record_size, 0);
    records.push_back(std::move(rec));
    return true;
  });
  PREVER_RETURN_IF_ERROR(encode_error);
  PirSnapshot snapshot;
  snapshot.record_size = record_size;
  snapshot.server0 =
      std::make_unique<pir::XorPirServer>(records, record_size);
  snapshot.server1 =
      std::make_unique<pir::XorPirServer>(std::move(records), record_size);
  return snapshot;
}

}  // namespace prever::core
