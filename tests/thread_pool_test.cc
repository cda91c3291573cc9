#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/prever.h"
#include "crypto/drbg.h"
#include "storage/value.h"
#include "test_util.h"

namespace prever {
namespace {

TEST(ThreadPoolTest, SerialPoolRunsAllIndicesInline) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroAndOneElementBatches) {
  common::ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "no work expected"; });
  int hits = 0;
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPoolTest, EachIndexClaimedExactlyOnce) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  common::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(17, [&](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 17u * 16u / 2u);
  }
}

TEST(ThreadPoolTest, WorkRunsOnMultipleThreads) {
  common::ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  // Enough slow-ish iterations that every worker gets a chance to claim one.
  pool.ParallelFor(64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 2u);
}

TEST(DrbgForkTest, ChildStreamsAreDeterministicAndDistinct) {
  crypto::Drbg parent1(uint64_t{42});
  crypto::Drbg parent2(uint64_t{42});
  crypto::Drbg child1a = parent1.Fork();
  crypto::Drbg child1b = parent1.Fork();
  crypto::Drbg child2a = parent2.Fork();
  // Same parent seed + same fork order => identical child streams.
  EXPECT_EQ(child1a.Generate(64), child2a.Generate(64));
  // Siblings differ from each other and from the parent's next output.
  Bytes a = child1a.Generate(64);
  EXPECT_NE(a, child1b.Generate(64));
  EXPECT_NE(a, parent1.Generate(64));
}

// The token engine checks one update's tokens on its pool: signatures and
// spent-index lookups run on the workers. A forged token among honest ones
// must give the same status, wallet and ledger as the serial path.
TEST(TokenPoolSpendTest, ForgedTokenAmongHonestMatchesSerialPath) {
  token::TokenAuthority authority(512, 40, kWeek, 21);
  struct Outcome {
    std::vector<StatusCode> codes;
    size_t wallet_after_reject = 0;
    std::vector<Bytes> ledger;
  };
  auto run = [&authority](common::ThreadPool* pool) {
    core::FederatedPlatform platform;
    platform.id = "p0";
    EXPECT_TRUE(
        platform.db.CreateTable("worklog", core::WorklogSchema()).ok());
    core::CentralizedOrdering ordering;
    core::FederatedTokenEngine engine({&platform}, &authority, &ordering,
                                      "hours");
    engine.set_thread_pool(pool);
    Outcome out;
    // A first spend fills the spent index the pooled lookups then read.
    out.codes.push_back(
        engine.SubmitVia(0, core::MakeWorklogUpdate("u1", "w", 2, kDay))
            .code());
    // Four honest tokens with a forged one in the middle.
    token::TokenWallet& wallet = engine.WalletOf("w");
    EXPECT_EQ(wallet.Withdraw(authority, "w", 4, kDay).value(), 4u);
    auto top = wallet.Take();
    auto below = wallet.Take();
    token::Token forged;
    forged.serial = ToBytes("forged-serial");
    forged.signature = Bytes(authority.public_key().ModulusBytes(), 0x5a);
    wallet.PutForTest(forged);
    wallet.PutForTest(*below);
    wallet.PutForTest(*top);
    out.codes.push_back(
        engine.SubmitVia(0, core::MakeWorklogUpdate("u2", "w", 5, kDay))
            .code());
    out.wallet_after_reject = wallet.NumTokens();
    out.codes.push_back(
        engine.SubmitVia(0, core::MakeWorklogUpdate("u3", "w", 4, kDay))
            .code());
    for (uint64_t seq = 0; seq < ordering.Ledger().size(); ++seq) {
      out.ledger.push_back(ordering.Ledger().GetEntry(seq)->payload);
    }
    return out;
  };
  Outcome serial = run(nullptr);
  common::ThreadPool pool(3);
  Outcome pooled = run(&pool);

  EXPECT_EQ(serial.codes,
            (std::vector<StatusCode>{StatusCode::kOk,
                                     StatusCode::kIntegrityViolation,
                                     StatusCode::kOk}));
  EXPECT_EQ(serial.wallet_after_reject, 4u);  // Only the forgery dropped.
  EXPECT_EQ(serial.ledger.size(), 6u);
  EXPECT_EQ(pooled.codes, serial.codes);
  EXPECT_EQ(pooled.wallet_after_reject, serial.wallet_after_reject);
  EXPECT_EQ(pooled.ledger, serial.ledger);
}

TEST(EncryptedBatchTest, BatchSubmitAcceptsAndStoresAllRows) {
  core::DataOwner owner(256, crypto::PedersenParams::Test256(), 7);
  core::CentralizedOrdering ordering;
  std::vector<core::RegulatedBound> bounds = {
      {constraint::BoundDirection::kUpper, 1000, 0, 12}};
  core::EncryptedEngine engine(&owner, &ordering, "owner", "amount", bounds,
                               /*value_bits=*/7, /*seed=*/3);
  common::ThreadPool pool(3);
  engine.set_thread_pool(&pool);

  std::vector<core::Update> updates;
  for (int i = 0; i < 4; ++i) {
    core::Update u;
    u.id = "u" + std::to_string(i);
    u.producer = "producer";
    u.timestamp = 10 + i;
    u.fields["owner"] = storage::Value::String("alice");
    u.fields["amount"] = storage::Value::Int64(5 + i);
    updates.push_back(std::move(u));
  }
  auto sealed = engine.SealBatch(updates);
  ASSERT_TRUE(sealed.ok()) << sealed.status().message();
  ASSERT_EQ(sealed->size(), 4u);
  EXPECT_TRUE(engine.SubmitSealedBatch(*sealed).ok());
  EXPECT_EQ(engine.NumRows("alice"), 4u);
}

TEST(EncryptedBatchTest, TamperedProofRejectsOnlyThatSubmission) {
  core::DataOwner owner(256, crypto::PedersenParams::Test256(), 7);
  core::CentralizedOrdering ordering;
  std::vector<core::RegulatedBound> bounds = {
      {constraint::BoundDirection::kUpper, 1000, 0, 12}};
  core::EncryptedEngine engine(&owner, &ordering, "owner", "amount", bounds,
                               /*value_bits=*/7, /*seed=*/3);
  common::ThreadPool pool(2);
  engine.set_thread_pool(&pool);

  std::vector<core::Update> updates;
  for (int i = 0; i < 3; ++i) {
    core::Update u;
    u.id = "u" + std::to_string(i);
    u.producer = "producer";
    u.timestamp = 10 + i;
    u.fields["owner"] = storage::Value::String("bob");
    u.fields["amount"] = storage::Value::Int64(7);
    updates.push_back(std::move(u));
  }
  auto sealed = engine.SealBatch(updates);
  ASSERT_TRUE(sealed.ok());
  // Corrupt the middle submission's range proof.
  ASSERT_FALSE((*sealed)[1].sealed.range_proof.bit_proofs.empty());
  (*sealed)[1].sealed.range_proof.bit_proofs[0].z0 =
      (*sealed)[1].sealed.range_proof.bit_proofs[0].z0 + crypto::BigInt(1);
  Status status = engine.SubmitSealedBatch(*sealed);
  EXPECT_FALSE(status.ok());
  // The two honest submissions still landed.
  EXPECT_EQ(engine.NumRows("bob"), 2u);
}

}  // namespace
}  // namespace prever
