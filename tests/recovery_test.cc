// Unit tests for the durable-checkpoint and commit-journal layer
// (src/recovery): checkpoint round-trips, damaged-final quarantine +
// fallback to the previous checkpoint, journal append/recover/truncate, and
// ledger suffix replay.
// The concurrent state-transfer test at the bottom runs under the TSan
// stage of scripts/check.sh.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/serial.h"
#include "common/sim_clock.h"
#include "ledger/ledger_db.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"
#include "storage/wal.h"

namespace prever::recovery {
namespace {

namespace fs = std::filesystem;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "prever_recovery_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

ledger::LedgerDb MakeLedger(size_t n, uint64_t salt = 0) {
  ledger::LedgerDb ledger;
  for (size_t i = 0; i < n; ++i) {
    ledger.Append(ToBytes("entry-" + std::to_string(salt) + "-" +
                          std::to_string(i)),
                  static_cast<SimTime>(i + 1));
  }
  return ledger;
}

/// Encoded LedgerEntry records for entries [from, ledger.size()).
std::vector<Bytes> EncodedSuffix(const ledger::LedgerDb& ledger,
                                 uint64_t from) {
  std::vector<Bytes> out;
  for (uint64_t seq = from; seq < ledger.size(); ++seq) {
    auto entry = ledger.GetEntry(seq);
    EXPECT_TRUE(entry.ok());
    out.push_back(entry->Encode());
  }
  return out;
}

void FlipByteInNewest(const CheckpointStore& store) {
  auto files = store.ListFiles();
  ASSERT_FALSE(files.empty());
  std::string path = store.dir() + "/" + files.back();
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Flip a byte in the middle: lands in a record body, so the CRC check
  // (not the frame parser) must catch it.
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

TEST_F(RecoveryTest, CheckpointRoundTrip) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());

  ledger::LedgerDb ledger = MakeLedger(5);
  CheckpointContents contents;
  contents.ledger = &ledger;
  contents.consensus_seq = 42;
  contents.app_state = ToBytes("opaque-consensus-blob");
  auto id = store.Save(contents);
  ASSERT_TRUE(id.ok());

  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->manifest.checkpoint_id, *id);
  EXPECT_EQ(loaded->manifest.consensus_seq, 42u);
  EXPECT_EQ(loaded->manifest.ledger_size, 5u);
  // The rebuilt ledger is digest-identical to the source.
  EXPECT_TRUE(loaded->ledger.Digest() == ledger.Digest());
  EXPECT_EQ(loaded->manifest.ledger_root, ledger.Digest().root);
  EXPECT_EQ(loaded->app_state, ToBytes("opaque-consensus-blob"));
}

TEST_F(RecoveryTest, LoadLatestWithoutCheckpointsIsNotFound) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());
  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST_F(RecoveryTest, CorruptFinalQuarantinedWithFallbackToPrevious) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());

  // Checkpoint A at 3 entries, checkpoint B at 6 — then corrupt B.
  ledger::LedgerDb ledger = MakeLedger(3);
  CheckpointContents a;
  a.ledger = &ledger;
  a.consensus_seq = 3;
  ASSERT_TRUE(store.Save(a).ok());
  for (size_t i = 3; i < 6; ++i) {
    ledger.Append(ToBytes("entry-0-" + std::to_string(i)),
                  static_cast<SimTime>(i + 1));
  }
  CheckpointContents b;
  b.ledger = &ledger;
  b.consensus_seq = 6;
  ASSERT_TRUE(store.Save(b).ok());

  FlipByteInNewest(store);

  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  // The corrupt newest was quarantined; the previous checkpoint serves.
  EXPECT_EQ(loaded->manifest.consensus_seq, 3u);
  EXPECT_EQ(loaded->ledger.size(), 3u);
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_EQ(store.ListFiles().size(), 1u);
  size_t quarantined_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().string().find(".quarantined") != std::string::npos) {
      ++quarantined_files;
    }
  }
  EXPECT_EQ(quarantined_files, 1u);

  // The journal suffix covers the difference: a LONGER replay (from seq 3
  // instead of 6) lands on the same final ledger state.
  auto appended = ReplayLedgerSuffix(EncodedSuffix(ledger, 3), &loaded->ledger);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, 3u);
  EXPECT_TRUE(loaded->ledger.Digest() == ledger.Digest());
}

TEST_F(RecoveryTest, TruncatedFinalQuarantinedWithFallbackToPrevious) {
  // Damage the record-file parser must reject outright instead of
  // returning a clean prefix: a truncated tail (a crash mid-write of the
  // final file, e.g. a torn rename target on a non-atomic filesystem), junk
  // appended after the last record, and entries reordered under valid CRCs.
  const std::vector<std::pair<std::string,
                              std::function<void(const std::string&)>>>
      damages = {
          {"truncated",
           [](const std::string& path) {
             fs::resize_file(path, fs::file_size(path) - 5);
           }},
          {"junk",
           [](const std::string& path) {
             std::FILE* f = std::fopen(path.c_str(), "ab");
             ASSERT_NE(f, nullptr);
             const uint8_t junk[5] = {1, 2, 3, 4, 5};
             std::fwrite(junk, 1, sizeof(junk), f);
             std::fclose(f);
           }},
          {"reordered",
           [](const std::string& path) {
             auto records = storage::WriteAheadLog::Recover(path);
             ASSERT_TRUE(records.ok());
             std::swap((*records)[1], (*records)[2]);
             ASSERT_TRUE(storage::WriteAheadLog::Rewrite(path, *records).ok());
           }},
      };
  for (const auto& [name, damage] : damages) {
    SCOPED_TRACE(name);
    CheckpointStore store(dir_ + "/" + name);
    ASSERT_TRUE(store.Init().ok());
    ledger::LedgerDb ledger = MakeLedger(2);
    CheckpointContents a;
    a.ledger = &ledger;
    a.consensus_seq = 2;
    ASSERT_TRUE(store.Save(a).ok());
    ledger.Append(ToBytes("entry-0-2"), 3);
    CheckpointContents b;
    b.ledger = &ledger;
    b.consensus_seq = 3;
    ASSERT_TRUE(store.Save(b).ok());

    damage(store.dir() + "/" + store.ListFiles().back());

    auto loaded = store.LoadLatest();
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->manifest.consensus_seq, 2u);
    EXPECT_EQ(store.quarantined(), 1u);

    // With EVERY checkpoint corrupt, recovery reports NotFound and callers
    // fall back to full journal replay.
    FlipByteInNewest(store);
    EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);
    EXPECT_EQ(store.quarantined(), 2u);
  }
}

TEST_F(RecoveryTest, GarbageCollectKeepsNewest) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());
  ledger::LedgerDb ledger = MakeLedger(1);
  for (int i = 0; i < 4; ++i) {
    CheckpointContents c;
    c.ledger = &ledger;
    c.consensus_seq = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(store.Save(c).ok());
  }
  EXPECT_EQ(store.ListFiles().size(), 4u);
  uint64_t reclaimed = store.GarbageCollect(2);
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(store.ListFiles().size(), 2u);
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->manifest.consensus_seq, 4u);
}

TEST_F(RecoveryTest, JournalAppendRecoverTruncate) {
  ASSERT_TRUE(fs::create_directories(dir_));
  std::string path = dir_ + "/journal.wal";
  CommitJournal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  for (uint64_t pos = 1; pos <= 4; ++pos) {
    JournalEvent e;
    e.position = pos;
    e.batch_id = 100 + pos;
    e.entries = {ToBytes("p" + std::to_string(pos))};
    ASSERT_TRUE(journal.Append(e).ok());
  }

  bool truncated = false;
  auto events = CommitJournal::Recover(path, &truncated);
  ASSERT_TRUE(events.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[2].position, 3u);
  EXPECT_EQ((*events)[2].batch_id, 103u);
  EXPECT_EQ((*events)[2].entries,
            (std::vector<Bytes>{ToBytes("p3")}));

  // Torn tail: the last record loses bytes; recovery keeps the clean prefix.
  journal.Close();
  fs::resize_file(path, fs::file_size(path) - 3);
  events = CommitJournal::Recover(path, &truncated);
  ASSERT_TRUE(events.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(events->size(), 3u);

  // TruncateBelow drops the checkpoint-covered prefix and reclaims bytes.
  ASSERT_TRUE(journal.Open(path).ok());
  auto reclaimed = journal.TruncateBelow(2);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(*reclaimed, 0u);
  events = CommitJournal::Recover(path, &truncated);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].position, 3u);

  // A missing file is an empty journal, not an error.
  auto empty = CommitJournal::Recover(dir_ + "/nonexistent.wal", &truncated);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(RecoveryTest, FailedTruncateBelowLeavesJournalOpen) {
  ASSERT_TRUE(fs::create_directories(dir_));
  std::string path = dir_ + "/journal.wal";
  CommitJournal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  ASSERT_TRUE(journal.Append({1, 101, {ToBytes("p1")}}).ok());

  // A non-empty directory squatting on the rewrite's tmp path makes the
  // rewrite fail; the journal must still take appends afterwards.
  ASSERT_TRUE(fs::create_directories(path + ".tmp/blocker"));
  EXPECT_FALSE(journal.TruncateBelow(0).ok());
  EXPECT_TRUE(journal.is_open());
  ASSERT_TRUE(journal.Append({2, 102, {ToBytes("p2")}}).ok());

  auto events = CommitJournal::Recover(path);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].position, 1u);
  EXPECT_EQ((*events)[1].position, 2u);
}

TEST_F(RecoveryTest, FormatOneCheckpointIsQuarantined) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.Init().ok());
  // A format-1 file: its manifest carried database version and catalog
  // revision, and the file held serial and database-image sections before
  // the app state. Format 2 must not misread it.
  ledger::LedgerDb ledger = MakeLedger(2);
  BinaryWriter manifest;
  manifest.WriteU32(0x50525643);  // "PRVC".
  manifest.WriteU32(1);
  manifest.WriteU64(1);
  manifest.WriteU64(2);
  manifest.WriteU64(ledger.size());
  manifest.WriteBytes(ledger.Digest().root);
  manifest.WriteU64(0);
  manifest.WriteU64(0);
  std::vector<Bytes> records = {manifest.Take()};
  for (Bytes& entry : ledger.EncodeEntries()) records.push_back(entry);
  BinaryWriter no_serials;
  no_serials.WriteU64(0);
  records.push_back(no_serials.Take());
  records.push_back(Bytes{});
  records.push_back(Bytes{});
  ASSERT_TRUE(storage::WriteAheadLog::Rewrite(
                  dir_ + "/ckpt-0000000000000001.ckpt", records)
                  .ok());
  ASSERT_EQ(store.ListFiles().size(), 1u);

  EXPECT_EQ(store.LoadLatest().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.quarantined(), 1u);
}

TEST_F(RecoveryTest, ReplayLedgerSuffixSkipsCoveredAndRejectsGaps) {
  ledger::LedgerDb source = MakeLedger(4);
  // Restored checkpoint covers the first 2 entries.
  ledger::LedgerDb restored = MakeLedger(2);

  // Records overlap the checkpoint (0..3): covered entries skip, the rest
  // extend, final state digest-identical.
  auto appended = ReplayLedgerSuffix(EncodedSuffix(source, 0), &restored);
  ASSERT_TRUE(appended.ok()) << appended.status().message();
  EXPECT_EQ(*appended, 2u);
  EXPECT_TRUE(restored.Digest() == source.Digest());

  // A gap (records starting past the ledger's size) is Corruption.
  ledger::LedgerDb more = MakeLedger(6);
  auto gap = ReplayLedgerSuffix(EncodedSuffix(more, 5), &restored);
  EXPECT_EQ(gap.status().code(), StatusCode::kCorruption);
}

// Concurrent state transfer: replicas encode, ship, and rebuild state in
// parallel — per-thread checkpoint stores and ledgers, with the SOURCE
// ledger shared read-only across every thread. Runs under the TSan stage of
// scripts/check.sh.
TEST_F(RecoveryTest, ConcurrentStateTransferRebuildsIdenticalState) {
  ledger::LedgerDb source = MakeLedger(64);
  const ledger::LedgerDigest want = source.Digest();

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto fail = [&](const std::string& why) { errors[t] = why; };
      CheckpointStore store(dir_ + "/r" + std::to_string(t));
      if (!store.Init().ok()) return fail("init");
      // Checkpoint the shared source at 32 entries, replay the rest from
      // the "journal" — the state-transfer shape: snapshot + suffix.
      ledger::LedgerDb prefix;
      for (uint64_t seq = 0; seq < 32; ++seq) {
        auto entry = source.GetEntry(seq);
        if (!entry.ok()) return fail("get entry");
        prefix.Append(entry->payload, entry->timestamp);
      }
      CheckpointContents contents;
      contents.ledger = &prefix;
      contents.consensus_seq = 32;
      if (!store.Save(contents).ok()) return fail("save");
      auto loaded = store.LoadLatest();
      if (!loaded.ok()) return fail("load");
      std::vector<Bytes> suffix;
      for (uint64_t seq = 32; seq < source.size(); ++seq) {
        auto entry = source.GetEntry(seq);
        if (!entry.ok()) return fail("get suffix entry");
        suffix.push_back(entry->Encode());
      }
      auto appended = ReplayLedgerSuffix(suffix, &loaded->ledger);
      if (!appended.ok() || *appended != 32) return fail("replay");
      if (!(loaded->ledger.Digest() == want)) return fail("digest mismatch");
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
  }
}

}  // namespace
}  // namespace prever::recovery
