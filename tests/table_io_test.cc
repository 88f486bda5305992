#include "storage/table_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/logging.h"
#include "datagen/tpch_lite.h"

namespace sitstats {
namespace {

class TableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/sitstats_table_io_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::string cmd = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    (void)std::system(cmd.c_str());
  }
  std::string dir_;
};

Table SampleTable() {
  Schema schema;
  schema.AddColumn("k", ValueType::kInt64);
  schema.AddColumn("x", ValueType::kDouble);
  schema.AddColumn("s", ValueType::kString);
  Table t("T", schema);
  SITSTATS_CHECK_OK(t.AppendRow(
      {Value(int64_t{1}), Value(1.5), Value(std::string("alpha"))}));
  SITSTATS_CHECK_OK(t.AppendRow(
      {Value(int64_t{-7}), Value(0.1234567890123456789),
       Value(std::string("beta"))}));
  SITSTATS_CHECK_OK(t.AppendRow(
      {Value(int64_t{0}), Value(-3e100), Value(std::string(""))}));
  return t;
}

TEST_F(TableIoTest, TableRoundTripIsExact) {
  Table original = SampleTable();
  std::string path = dir_ + "/t.csv";
  ASSERT_TRUE(WriteTableCsv(original, path).ok());
  Table back = ReadTableCsv("T", path).ValueOrDie();
  ASSERT_EQ(back.num_rows(), original.num_rows());
  ASSERT_EQ(back.num_columns(), original.num_columns());
  for (size_t c = 0; c < original.num_columns(); ++c) {
    EXPECT_EQ(back.schema().column(c).name,
              original.schema().column(c).name);
    EXPECT_EQ(back.schema().column(c).type,
              original.schema().column(c).type);
    for (size_t r = 0; r < original.num_rows(); ++r) {
      EXPECT_EQ(back.column(c).Get(r), original.column(c).Get(r))
          << "col " << c << " row " << r;
    }
  }
}

TEST_F(TableIoTest, RejectsSeparatorsInStrings) {
  Schema schema;
  schema.AddColumn("s", ValueType::kString);
  Table t("T", schema);
  SITSTATS_CHECK_OK(t.AppendRow({Value(std::string("a,b"))}));
  EXPECT_FALSE(WriteTableCsv(t, dir_ + "/bad.csv").ok());
}

TEST_F(TableIoTest, RejectsMalformedFiles) {
  std::string path = dir_ + "/junk.csv";
  {
    std::ofstream out(path);
    out << "k:int64,x:double\n1,2.5\noops\n";
  }
  EXPECT_FALSE(ReadTableCsv("T", path).ok());  // wrong arity row
  {
    std::ofstream out(path);
    out << "k:whatever\n";
  }
  EXPECT_FALSE(ReadTableCsv("T", path).ok());  // unknown type
  {
    std::ofstream out(path);
    out << "k:int64\nnot_a_number\n";
  }
  EXPECT_FALSE(ReadTableCsv("T", path).ok());
  EXPECT_EQ(ReadTableCsv("T", dir_ + "/missing.csv").status().code(),
            StatusCode::kIOError);
}

TEST_F(TableIoTest, CatalogRoundTrip) {
  TpchLiteSpec spec;
  spec.num_customers = 200;
  spec.num_orders = 800;
  std::unique_ptr<Catalog> catalog = MakeTpchLiteDatabase(spec).ValueOrDie();
  ASSERT_TRUE(SaveCatalogCsv(*catalog, dir_).ok());
  std::unique_ptr<Catalog> back = LoadCatalogCsv(dir_).ValueOrDie();
  EXPECT_EQ(back->num_tables(), catalog->num_tables());
  for (const std::string& name : catalog->TableNames()) {
    const Table* a = catalog->GetTable(name).ValueOrDie();
    const Table* b = back->GetTable(name).ValueOrDie();
    ASSERT_EQ(a->num_rows(), b->num_rows()) << name;
    for (size_t c = 0; c < a->num_columns(); ++c) {
      for (size_t r = 0; r < a->num_rows(); ++r) {
        ASSERT_EQ(a->column(c).Get(r), b->column(c).Get(r))
            << name << " col " << c << " row " << r;
      }
    }
  }
}

TEST_F(TableIoTest, Int64OverflowIsRejectedWithRowAndColumnContext) {
  // atoll-style parsing would clamp this to LLONG_MAX and load garbage;
  // the reader must fail and say where.
  std::string path = dir_ + "/overflow.csv";
  {
    std::ofstream out(path);
    out << "k:int64,v:int64\n1,2\n3,99999999999999999999999999\n";
  }
  Result<Table> result = ReadTableCsv("T", path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(result.status().message().find(":3:"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("column v"), std::string::npos)
      << result.status().message();
}

TEST_F(TableIoTest, Int64UnderflowIsRejected) {
  std::string path = dir_ + "/underflow.csv";
  {
    std::ofstream out(path);
    out << "k:int64\n-99999999999999999999999999\n";
  }
  EXPECT_EQ(ReadTableCsv("T", path).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(TableIoTest, DoubleOverflowIsRejectedButUnderflowIsNot) {
  std::string path = dir_ + "/double_overflow.csv";
  {
    std::ofstream out(path);
    out << "x:double\n1e999\n";
  }
  Result<Table> overflowed = ReadTableCsv("T", path);
  ASSERT_FALSE(overflowed.ok());
  EXPECT_EQ(overflowed.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(overflowed.status().message().find("column x"),
            std::string::npos);
  // Underflow merely rounds towards zero; the cell stays finite and loads.
  {
    std::ofstream out(path);
    out << "x:double\n1e-999\n";
  }
  Result<Table> underflowed = ReadTableCsv("T", path);
  ASSERT_TRUE(underflowed.ok()) << underflowed.status().ToString();
  EXPECT_EQ(underflowed->num_rows(), 1u);
}

TEST_F(TableIoTest, TrailingGarbageNamesTheColumn) {
  std::string path = dir_ + "/garbage.csv";
  {
    std::ofstream out(path);
    out << "k:int64,x:double\n12x,1.5\n";
  }
  Result<Table> result = ReadTableCsv("T", path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("column k"), std::string::npos)
      << result.status().message();
}

TEST_F(TableIoTest, CrlfLineEndingsAreTolerated) {
  // A CSV written on Windows terminates every line with "\r\n"; getline
  // leaves the '\r' on the line, and before the explicit strip the last
  // cell of every row ("1.5\r") failed the numeric parse.
  std::string path = dir_ + "/crlf.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "k:int64,x:double\r\n1,1.5\r\n-2,2.5\r\n";
  }
  Table table = ReadTableCsv("T", path).ValueOrDie();
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.column(0).int64_data()[0], 1);
  EXPECT_EQ(table.column(1).double_data()[0], 1.5);
  EXPECT_EQ(table.column(0).int64_data()[1], -2);
  EXPECT_EQ(table.column(1).double_data()[1], 2.5);
}

TEST_F(TableIoTest, CrlfOnStringColumnDoesNotLeakIntoCells) {
  std::string path = dir_ + "/crlf_str.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "s:string\r\nalpha\r\n";
  }
  Table table = ReadTableCsv("T", path).ValueOrDie();
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.column(0).string_data()[0], "alpha");
}

TEST_F(TableIoTest, TrailingDelimiterIsARowArityError) {
  // "1,2.5," splits into three fields (the last empty) against a
  // two-column schema: a malformed row with row context, not a silently
  // dropped or misparsed cell.
  std::string path = dir_ + "/trailing.csv";
  {
    std::ofstream out(path);
    out << "k:int64,x:double\n1,2.5,\n";
  }
  Result<Table> result = ReadTableCsv("T", path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(":2:"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("got 3"), std::string::npos)
      << result.status().message();
}

TEST_F(TableIoTest, EmptyTrailingCellNamesTheColumn) {
  // Same shape but the arity matches — the empty final cell must fail the
  // checked numeric parse with row and column context.
  std::string path = dir_ + "/empty_cell.csv";
  {
    std::ofstream out(path);
    out << "k:int64,x:double\n1,\n";
  }
  Result<Table> result = ReadTableCsv("T", path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(":2:"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("column x"), std::string::npos)
      << result.status().message();
}

TEST_F(TableIoTest, SaveToUncreatableDirectoryFails) {
  // A path below a regular file can never become a directory.
  const std::string file = dir_ + "/plain_file";
  { std::ofstream(file) << "x"; }
  Catalog catalog;
  EXPECT_EQ(SaveCatalogCsv(catalog, file + "/sub").code(),
            StatusCode::kIOError);
  EXPECT_EQ(SaveCatalogBinary(catalog, file + "/sub").code(),
            StatusCode::kIOError);
  EXPECT_EQ(LoadCatalogCsv(dir_ + "/missing").status().code(),
            StatusCode::kIOError);
}

TEST_F(TableIoTest, SaveCreatesMissingDirectories) {
  TpchLiteSpec spec;
  spec.num_customers = 200;
  spec.num_orders = 800;
  std::unique_ptr<Catalog> catalog = MakeTpchLiteDatabase(spec).ValueOrDie();
  const std::string csv_dir = dir_ + "/fresh/nested/csv";
  const std::string bin_dir = dir_ + "/fresh/nested/bin";
  ASSERT_TRUE(SaveCatalogCsv(*catalog, csv_dir).ok());
  ASSERT_TRUE(SaveCatalogBinary(*catalog, bin_dir).ok());
  auto from_csv = LoadCatalogCsv(csv_dir).ValueOrDie();
  auto from_bin = LoadCatalogBinary(bin_dir).ValueOrDie();
  EXPECT_EQ(from_csv->TableNames(), catalog->TableNames());
  EXPECT_EQ(from_bin->TableNames(), catalog->TableNames());
  for (const std::string& name : catalog->TableNames()) {
    size_t rows = catalog->GetTable(name).ValueOrDie()->num_rows();
    EXPECT_EQ(from_csv->GetTable(name).ValueOrDie()->num_rows(), rows);
    EXPECT_EQ(from_bin->GetTable(name).ValueOrDie()->num_rows(), rows);
  }
}

}  // namespace
}  // namespace sitstats
