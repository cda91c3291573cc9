#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "storage/database.h"
#include "storage/wal.h"

namespace prever::storage {
namespace {

// ------------------------------------------------------------------ Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(*Value::Int64(42).AsInt64(), 42);
  EXPECT_EQ(*Value::String("x").AsString(), "x");
  EXPECT_EQ(*Value::Bool(true).AsBool(), true);
  EXPECT_EQ(*Value::Timestamp(7).AsTimestamp(), 7u);
}

TEST(ValueTest, TypeMismatchErrors) {
  EXPECT_FALSE(Value::Int64(1).AsString().ok());
  EXPECT_FALSE(Value::String("x").AsInt64().ok());
  EXPECT_FALSE(Value::Bool(true).AsTimestamp().ok());
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_EQ(*Value::Int64(-5).AsNumeric(), -5);
  EXPECT_EQ(*Value::Timestamp(100).AsNumeric(), 100);
  EXPECT_FALSE(Value::String("5").AsNumeric().ok());
  EXPECT_FALSE(Value::Bool(true).AsNumeric().ok());
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value::Int64(3), Value::Int64(3));
  EXPECT_NE(Value::Int64(3), Value::Int64(4));
  EXPECT_NE(Value::Int64(1), Value::Bool(true));
  EXPECT_LT(Value::Int64(1), Value::Int64(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  for (const Value& v :
       {Value::Int64(-123), Value::String("hello"), Value::Bool(false),
        Value::Timestamp(999999)}) {
    BinaryWriter w;
    v.EncodeTo(w);
    BinaryReader r(w.bytes());
    auto decoded = Value::DecodeFrom(r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, v);
  }
}

TEST(ValueTest, DecodeRejectsBadTag) {
  Bytes data = {0x09};
  BinaryReader r(data);
  EXPECT_FALSE(Value::DecodeFrom(r).ok());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Int64(7).ToString(), "7");
  EXPECT_EQ(Value::String("a").ToString(), "\"a\"");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Timestamp(5).ToString(), "@5");
}

// ----------------------------------------------------------------- Schema

Schema WorklogSchema() {
  return Schema({{"id", ValueType::kString},
                 {"worker", ValueType::kString},
                 {"hours", ValueType::kInt64},
                 {"at", ValueType::kTimestamp}},
                0);
}

TEST(SchemaTest, ColumnIndex) {
  Schema s = WorklogSchema();
  EXPECT_EQ(*s.ColumnIndex("hours"), 2u);
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
}

TEST(SchemaTest, ValidateRow) {
  Schema s = WorklogSchema();
  Row good = {Value::String("t1"), Value::String("w1"), Value::Int64(8),
              Value::Timestamp(0)};
  EXPECT_TRUE(s.ValidateRow(good).ok());

  Row short_row = {Value::String("t1")};
  EXPECT_FALSE(s.ValidateRow(short_row).ok());

  Row wrong_type = {Value::String("t1"), Value::String("w1"),
                    Value::String("8"), Value::Timestamp(0)};
  EXPECT_FALSE(s.ValidateRow(wrong_type).ok());
}

TEST(SchemaTest, KeyOf) {
  Schema s = WorklogSchema();
  Row row = {Value::String("t1"), Value::String("w1"), Value::Int64(8),
             Value::Timestamp(0)};
  EXPECT_EQ(*s.KeyOf(row), Value::String("t1"));
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema s = WorklogSchema();
  BinaryWriter w;
  s.EncodeTo(w);
  BinaryReader r(w.bytes());
  auto decoded = Schema::DecodeFrom(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_columns(), 4u);
  EXPECT_EQ(decoded->columns()[2].name, "hours");
  EXPECT_EQ(decoded->key_column(), 0u);
}

// ------------------------------------------------------------------ Table

Row MakeWorklogRow(const std::string& id, const std::string& worker,
                   int64_t hours, SimTime at) {
  return {Value::String(id), Value::String(worker), Value::Int64(hours),
          Value::Timestamp(at)};
}

TEST(TableTest, InsertGetDelete) {
  Table t("worklog", WorklogSchema());
  EXPECT_TRUE(t.Insert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  EXPECT_EQ(t.size(), 1u);
  auto row = t.Get(Value::String("t1"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*(*row)[2].AsInt64(), 8);
  EXPECT_TRUE(t.Delete(Value::String("t1")).ok());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Get(Value::String("t1")).ok());
}

TEST(TableTest, InsertDuplicateKeyFails) {
  Table t("worklog", WorklogSchema());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  Status s = t.Insert(MakeWorklogRow("t1", "w2", 4, 200));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, UpdateRequiresExisting) {
  Table t("worklog", WorklogSchema());
  EXPECT_EQ(t.Update(MakeWorklogRow("t1", "w1", 8, 100)).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(t.Insert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  EXPECT_TRUE(t.Update(MakeWorklogRow("t1", "w1", 9, 100)).ok());
  EXPECT_EQ(*(*t.Get(Value::String("t1")))[2].AsInt64(), 9);
}

TEST(TableTest, UpsertInsertsOrReplaces) {
  Table t("worklog", WorklogSchema());
  EXPECT_TRUE(t.Upsert(MakeWorklogRow("t1", "w1", 8, 100)).ok());
  EXPECT_TRUE(t.Upsert(MakeWorklogRow("t1", "w1", 12, 100)).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*(*t.Get(Value::String("t1")))[2].AsInt64(), 12);
}

TEST(TableTest, InsertValidatesSchema) {
  Table t("worklog", WorklogSchema());
  Row bad = {Value::Int64(1), Value::String("w"), Value::Int64(1),
             Value::Timestamp(0)};
  EXPECT_EQ(t.Insert(bad).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, ScanIsKeyOrderedAndStoppable) {
  Table t("worklog", WorklogSchema());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("b", "w1", 2, 0)).ok());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("a", "w1", 1, 0)).ok());
  ASSERT_TRUE(t.Insert(MakeWorklogRow("c", "w1", 3, 0)).ok());
  std::vector<std::string> seen;
  t.Scan([&](const Row& row) {
    seen.push_back(*row[0].AsString());
    return seen.size() < 2;
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
}

// --------------------------------------------------------------- Mutation

TEST(MutationTest, EncodeDecodeRowOps) {
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "worklog";
  m.row = MakeWorklogRow("t1", "w1", 8, 100);
  auto decoded = Mutation::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, Mutation::Op::kInsert);
  EXPECT_EQ(decoded->table, "worklog");
  EXPECT_EQ(decoded->row, m.row);
}

TEST(MutationTest, EncodeDecodeDelete) {
  Mutation m;
  m.op = Mutation::Op::kDelete;
  m.table = "worklog";
  m.key = Value::String("t1");
  auto decoded = Mutation::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, Mutation::Op::kDelete);
  EXPECT_EQ(decoded->key, Value::String("t1"));
}

TEST(MutationTest, DecodeRejectsTrailingGarbage) {
  Mutation m;
  m.op = Mutation::Op::kDelete;
  m.table = "t";
  m.key = Value::Int64(1);
  Bytes data = m.Encode();
  data.push_back(0xff);
  EXPECT_FALSE(Mutation::Decode(data).ok());
}

// --------------------------------------------------------------- Database

TEST(DatabaseTest, CreateAndApply) {
  Database db;
  ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
  EXPECT_FALSE(db.CreateTable("worklog", WorklogSchema()).ok());

  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "worklog";
  m.row = MakeWorklogRow("t1", "w1", 8, 100);
  EXPECT_TRUE(db.Apply(m).ok());
  EXPECT_EQ(db.version(), 1u);
  EXPECT_EQ((*db.GetTable("worklog"))->size(), 1u);
}

TEST(DatabaseTest, ApplyToMissingTableFails) {
  Database db;
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "nope";
  EXPECT_EQ(db.Apply(m).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.version(), 0u);
}

TEST(DatabaseTest, FailedApplyDoesNotBumpVersion) {
  Database db;
  ASSERT_TRUE(db.CreateTable("worklog", WorklogSchema()).ok());
  Mutation m;
  m.op = Mutation::Op::kUpdate;  // Nothing to update.
  m.table = "worklog";
  m.row = MakeWorklogRow("t1", "w1", 8, 100);
  EXPECT_FALSE(db.Apply(m).ok());
  EXPECT_EQ(db.version(), 0u);
}

// -------------------------------------------------------------------- WAL

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "prever_wal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalTest, AppendAndRecover) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("one")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("two")).ok());
  }
  bool truncated = true;
  auto records = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(ToString((*records)[0]), "one");
  EXPECT_EQ(ToString((*records)[1]), "two");
}

TEST_F(WalTest, AppendBatchIsByteIdenticalToSerialAppends) {
  std::vector<Bytes> records = {ToBytes("one"), ToBytes("two"), Bytes{},
                                ToBytes(std::string(1000, 'x'))};
  std::string serial_path = path_ + ".serial";
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(serial_path).ok());
    for (const Bytes& r : records) ASSERT_TRUE(wal.Append(r).ok());
  }
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.AppendBatch(records).ok());
  }
  auto slurp = [](const std::string& p) {
    std::FILE* f = std::fopen(p.c_str(), "rb");
    std::string all;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) all.append(buf, n);
    std::fclose(f);
    return all;
  };
  EXPECT_EQ(slurp(path_), slurp(serial_path));
  std::remove(serial_path.c_str());

  bool truncated = true;
  auto recovered = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(recovered->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*recovered)[i], records[i]) << i;
  }
}

TEST_F(WalTest, AppendBatchEmptyIsNoOp) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path_).ok());
  ASSERT_TRUE(wal.AppendBatch({}).ok());
  ASSERT_TRUE(wal.Append(ToBytes("after")).ok());
  wal.Close();
  auto records = WriteAheadLog::Recover(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
}

TEST_F(WalTest, MissingFileIsEmptyHistory) {
  auto records = WriteAheadLog::Recover(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST_F(WalTest, TornTailIsSkipped) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("good")).ok());
  }
  // Append a torn record: header promising more bytes than present.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  uint8_t torn[8] = {100, 0, 0, 0, 1, 2, 3, 4};
  std::fwrite(torn, 1, 8, f);
  std::fclose(f);

  bool truncated = false;
  auto records = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(ToString((*records)[0]), "good");
}

TEST_F(WalTest, AppendAfterTornTailIsRecovered) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("one")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("two")).ok());
  }
  // A crash tears the last record; the next boot reopens and appends.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path_.c_str(), full - 2), 0);
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("three")).ok());
  }
  // The torn bytes were cut on Open, so the new record is not hidden
  // behind them.
  bool truncated = true;
  auto records = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(ToString((*records)[0]), "one");
  EXPECT_EQ(ToString((*records)[1]), "three");
}

TEST_F(WalTest, CorruptRecordStopsRecovery) {
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("first")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("second")).ok());
  }
  // Flip a byte inside the second record's payload.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  std::fseek(f, -1, SEEK_END);
  int c = 0;
  std::fread(&c, 1, 1, f);
  std::fseek(f, -1, SEEK_END);
  uint8_t flipped = static_cast<uint8_t>(c) ^ 0xff;
  std::fwrite(&flipped, 1, 1, f);
  std::fclose(f);

  bool truncated = false;
  auto records = WriteAheadLog::Recover(path_, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(ToString((*records)[0]), "first");
}

TEST_F(WalTest, TruncationMidRecordRecoversLongestValidPrefix) {
  // A crash during a write can leave the last record cut at ANY byte: inside
  // the payload, inside the crc, or inside the length field. Recovery must
  // return the records before it in every case.
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path_).ok());
    ASSERT_TRUE(wal.Append(ToBytes("alpha")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("beta")).ok());
    ASSERT_TRUE(wal.Append(ToBytes("gamma-long-payload")).ok());
  }
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long full = std::ftell(f);
  std::fclose(f);
  // Third record occupies 8 + 18 bytes; walk the cut point through it.
  for (long cut = full - 1; cut > full - 26; --cut) {
    ASSERT_EQ(::truncate(path_.c_str(), cut), 0);
    bool truncated = false;
    auto records = WriteAheadLog::Recover(path_, &truncated);
    ASSERT_TRUE(records.ok()) << "cut at " << cut;
    EXPECT_TRUE(truncated) << "cut at " << cut;
    ASSERT_EQ(records->size(), 2u) << "cut at " << cut;
    EXPECT_EQ(ToString((*records)[0]), "alpha");
    EXPECT_EQ(ToString((*records)[1]), "beta");
  }
}

}  // namespace
}  // namespace prever::storage
