#include <gtest/gtest.h>

#include "ledger/block.h"
#include "ledger/ledger_db.h"

namespace prever::ledger {
namespace {

// --------------------------------------------------------------- LedgerDb

TEST(LedgerDbTest, AppendAssignsDenseSequences) {
  LedgerDb ledger;
  EXPECT_EQ(ledger.Append(ToBytes("a"), 1), 0u);
  EXPECT_EQ(ledger.Append(ToBytes("b"), 2), 1u);
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ToString(ledger.GetEntry(0)->payload), "a");
  EXPECT_EQ(ledger.GetEntry(1)->timestamp, 2u);
  EXPECT_FALSE(ledger.GetEntry(2).ok());
}

TEST(LedgerDbTest, DigestChangesWithEveryAppend) {
  LedgerDb ledger;
  LedgerDigest prev = ledger.Digest();
  for (int i = 0; i < 10; ++i) {
    ledger.Append(ToBytes("e" + std::to_string(i)), i);
    LedgerDigest cur = ledger.Digest();
    EXPECT_NE(cur.root, prev.root);
    EXPECT_EQ(cur.size, static_cast<uint64_t>(i + 1));
    prev = cur;
  }
}

TEST(LedgerDbTest, InclusionProofVerifies) {
  LedgerDb ledger;
  for (int i = 0; i < 20; ++i) ledger.Append(ToBytes("e" + std::to_string(i)), i);
  LedgerDigest digest = ledger.Digest();
  for (uint64_t seq = 0; seq < 20; ++seq) {
    auto proof = ledger.ProveInclusion(seq, 20);
    ASSERT_TRUE(proof.ok());
    auto entry = ledger.GetEntry(seq);
    ASSERT_TRUE(entry.ok());
    EXPECT_TRUE(LedgerDb::VerifyInclusion(*entry, *proof, digest)) << seq;
  }
}

TEST(LedgerDbTest, InclusionProofAgainstHistoricDigest) {
  LedgerDb ledger;
  for (int i = 0; i < 20; ++i) ledger.Append(ToBytes("e" + std::to_string(i)), i);
  auto digest12 = ledger.DigestAt(12);
  ASSERT_TRUE(digest12.ok());
  auto proof = ledger.ProveInclusion(5, 12);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(LedgerDb::VerifyInclusion(*ledger.GetEntry(5), *proof, *digest12));
}

TEST(LedgerDbTest, InclusionProofRejectsForgedEntry) {
  LedgerDb ledger;
  for (int i = 0; i < 10; ++i) ledger.Append(ToBytes("e" + std::to_string(i)), i);
  auto proof = ledger.ProveInclusion(3, 10);
  ASSERT_TRUE(proof.ok());
  LedgerEntry forged = *ledger.GetEntry(3);
  forged.payload = ToBytes("forged");
  EXPECT_FALSE(LedgerDb::VerifyInclusion(forged, *proof, ledger.Digest()));
}

TEST(LedgerDbTest, InclusionProofRejectsDigestMismatch) {
  LedgerDb ledger;
  for (int i = 0; i < 10; ++i) ledger.Append(ToBytes("e" + std::to_string(i)), i);
  auto proof = ledger.ProveInclusion(3, 10);
  ASSERT_TRUE(proof.ok());
  LedgerDigest wrong = ledger.Digest();
  wrong.size = 11;
  EXPECT_FALSE(LedgerDb::VerifyInclusion(*ledger.GetEntry(3), *proof, wrong));
}

TEST(LedgerDbTest, ConsistencyAcrossGrowth) {
  LedgerDb ledger;
  for (int i = 0; i < 8; ++i) ledger.Append(ToBytes("e" + std::to_string(i)), i);
  LedgerDigest old_digest = ledger.Digest();
  for (int i = 8; i < 21; ++i) ledger.Append(ToBytes("e" + std::to_string(i)), i);
  LedgerDigest new_digest = ledger.Digest();
  auto proof = ledger.ProveConsistency(8, 21);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(LedgerDb::VerifyConsistency(old_digest, new_digest, *proof));
}

TEST(LedgerDbTest, AuditDetectsTamperedEntry) {
  LedgerDb ledger;
  for (int i = 0; i < 10; ++i) ledger.Append(ToBytes("e" + std::to_string(i)), i);
  EXPECT_TRUE(ledger.Audit().ok());
  ASSERT_TRUE(ledger.TamperWithEntryForTest(4, ToBytes("evil")).ok());
  Status s = ledger.Audit();
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
}

TEST(LedgerDbTest, EntryEncodeDecodeRoundTrip) {
  LedgerEntry e;
  e.sequence = 7;
  e.timestamp = 12345;
  e.payload = ToBytes("payload");
  auto decoded = LedgerEntry::Decode(e.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sequence, 7u);
  EXPECT_EQ(decoded->timestamp, 12345u);
  EXPECT_EQ(ToString(decoded->payload), "payload");
}

// ------------------------------------------------------------- Blockchain

std::vector<Bytes> Txs(std::initializer_list<const char*> names) {
  std::vector<Bytes> out;
  for (const char* n : names) out.push_back(ToBytes(n));
  return out;
}

TEST(BlockchainTest, GenesisExists) {
  Blockchain chain;
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.num_blocks(), 1u);
  EXPECT_TRUE(chain.Validate().ok());
}

TEST(BlockchainTest, BuildAppendValidate) {
  Blockchain chain;
  Block b1 = chain.BuildNext(Txs({"tx1", "tx2"}), 100);
  ASSERT_TRUE(chain.Append(b1).ok());
  Block b2 = chain.BuildNext(Txs({"tx3"}), 200);
  ASSERT_TRUE(chain.Append(b2).ok());
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.TotalTransactions(), 3u);
  EXPECT_TRUE(chain.Validate().ok());
}

TEST(BlockchainTest, AppendRejectsWrongHeight) {
  Blockchain chain;
  Block b = chain.BuildNext(Txs({"tx"}), 100);
  b.height = 5;
  EXPECT_FALSE(chain.Append(b).ok());
}

TEST(BlockchainTest, AppendRejectsBrokenLink) {
  Blockchain chain;
  Block b = chain.BuildNext(Txs({"tx"}), 100);
  b.prev_hash[0] ^= 1;
  EXPECT_EQ(chain.Append(b).code(), StatusCode::kIntegrityViolation);
}

TEST(BlockchainTest, AppendRejectsTamperedTransactions) {
  Blockchain chain;
  Block b = chain.BuildNext(Txs({"tx"}), 100);
  b.transactions[0] = ToBytes("evil");  // tx_root now stale.
  EXPECT_EQ(chain.Append(b).code(), StatusCode::kIntegrityViolation);
}

TEST(BlockchainTest, HashCoversHeader) {
  Blockchain chain;
  Block b = chain.BuildNext(Txs({"tx"}), 100);
  Bytes h1 = b.Hash();
  b.timestamp = 101;
  EXPECT_NE(b.Hash(), h1);
}

TEST(BlockchainTest, GetBlock) {
  Blockchain chain;
  ASSERT_TRUE(chain.Append(chain.BuildNext(Txs({"a"}), 1)).ok());
  EXPECT_TRUE(chain.GetBlock(0).ok());
  EXPECT_TRUE(chain.GetBlock(1).ok());
  EXPECT_FALSE(chain.GetBlock(2).ok());
}

}  // namespace
}  // namespace prever::ledger
