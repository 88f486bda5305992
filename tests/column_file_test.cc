#include "storage/column_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "scheduler/executor.h"
#include "scheduler/solver.h"
#include "sit/creator.h"
#include "sit/serialization.h"
#include "storage/scan.h"
#include "storage/table_io.h"
#include "telemetry/trace.h"

namespace sitstats {
namespace {

class ColumnFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/sitstats_column_file_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::string cmd = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  void TearDown() override {
    FaultInjector::Global().Disarm();
    std::string cmd = "rm -rf " + dir_;
    (void)std::system(cmd.c_str());
  }
  std::string dir_;
};

TEST_F(ColumnFileTest, Int64RoundTripIsZeroCopy) {
  Column col("k", ValueType::kInt64);
  for (int64_t v : {int64_t{-1}, int64_t{0}, int64_t{42},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    col.AppendInt64(v);
  }
  std::string path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  Column back = ReadColumnFile("k", path).ValueOrDie();
  EXPECT_TRUE(back.is_mapped());
  ASSERT_EQ(back.size(), col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    EXPECT_EQ(back.int64_data()[r], col.int64_data()[r]) << "row " << r;
  }
}

TEST_F(ColumnFileTest, DoubleRoundTripIsBitExact) {
  Column col("x", ValueType::kDouble);
  for (double v : {0.0, -0.0, 1.5, -3e100, 0.1234567890123456789,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    col.AppendDouble(v);
  }
  std::string path = dir_ + "/x.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  Column back = ReadColumnFile("x", path).ValueOrDie();
  EXPECT_TRUE(back.is_mapped());
  ASSERT_EQ(back.size(), col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    // Bit equality, not value equality: -0.0 and NaN payloads must
    // survive the trip unchanged.
    int64_t a, b;
    std::memcpy(&a, &back.double_data()[r], sizeof(a));
    std::memcpy(&b, &col.double_data()[r], sizeof(b));
    EXPECT_EQ(a, b) << "row " << r;
  }
}

TEST_F(ColumnFileTest, StringRoundTripAllowsSeparators) {
  Column col("s", ValueType::kString);
  // Binary storage has no separator restrictions — commas, newlines, and
  // embedded NULs are all legal, unlike the CSV path.
  col.AppendString("alpha");
  col.AppendString("");
  col.AppendString("a,b\nc");
  col.AppendString(std::string("nul\0byte", 8));
  std::string path = dir_ + "/s.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  Column back = ReadColumnFile("s", path).ValueOrDie();
  EXPECT_FALSE(back.is_mapped());  // strings are materialized
  ASSERT_EQ(back.size(), col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    EXPECT_EQ(back.string_data()[r], col.string_data()[r]) << "row " << r;
  }
}

TEST_F(ColumnFileTest, EmptyColumnRoundTrips) {
  Column col("e", ValueType::kDouble);
  std::string path = dir_ + "/e.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  Column back = ReadColumnFile("e", path).ValueOrDie();
  EXPECT_EQ(back.size(), 0u);
  EXPECT_EQ(back.type(), ValueType::kDouble);
}

TEST_F(ColumnFileTest, CorruptPayloadIsRejected) {
  Column col("k", ValueType::kInt64);
  for (int64_t v = 0; v < 100; ++v) col.AppendInt64(v);
  std::string path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64 + 40);  // a byte in the middle of the payload
    char byte = 0x5a;
    f.write(&byte, 1);
  }
  Result<Column> result = ReadColumnFile("k", path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status().message();
}

TEST_F(ColumnFileTest, TruncatedFileIsRejected) {
  Column col("k", ValueType::kInt64);
  for (int64_t v = 0; v < 100; ++v) col.AppendInt64(v);
  std::string path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  // Drop the tail of the payload.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(bytes.size(), 64u + 800u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 33));
  }
  EXPECT_FALSE(ReadColumnFile("k", path).ok());
  // Shorter than even the header.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 17);
  }
  EXPECT_FALSE(ReadColumnFile("k", path).ok());
}

TEST_F(ColumnFileTest, VersionMismatchIsRejected) {
  Column col("k", ValueType::kInt64);
  col.AppendInt64(7);
  std::string path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // version field follows the 8-byte magic
    char version = 99;
    f.write(&version, 1);
  }
  Result<Column> result = ReadColumnFile("k", path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos)
      << result.status().message();
}

TEST_F(ColumnFileTest, BadMagicIsRejected) {
  std::string path = dir_ + "/notacol.col";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(128, 'x');
  }
  Result<Column> result = ReadColumnFile("k", path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites the header of the colfile at `path` with `patch` applied and a
/// freshly computed, valid checksum, so only the structural checks can
/// reject it.
template <typename Patch>
void PatchHeaderAndRestamp(const std::string& path, Patch&& patch) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), sizeof(ColumnFileHeader));
  ColumnFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  patch(&header);
  const uint8_t* payload =
      reinterpret_cast<const uint8_t*>(bytes.data()) + sizeof(header);
  ASSERT_EQ(header.payload_bytes, bytes.size() - sizeof(header));
  header.checksum = ColumnFileDigest(header, payload);
  std::memcpy(bytes.data(), &header, sizeof(header));
  WriteFileBytes(path, bytes);
}

TEST(ColumnFileChecksumTest, MatchesPinnedXxh64Outputs) {
  // XXH64 with seed 0 reproduces the published reference values.
  EXPECT_EQ(ColumnFileChecksum(nullptr, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(ColumnFileChecksum("abc", 3), 0x44BC2CF5AD770999ULL);
  std::vector<uint8_t> bytes(1000);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  // Lengths straddling the 8-byte tail and the 32-byte stripe boundaries.
  const std::pair<size_t, uint64_t> kPinned[] = {
      {0, 0xEF46DB3751D8E999ULL},    {1, 0x8A4127811B21E730ULL},
      {8, 0xC6F1803A5E0B3222ULL},    {31, 0x6AB1C40E29F50073ULL},
      {32, 0x5A0756FBE9ECD3D1ULL},   {33, 0xDC50CDC37BB9C183ULL},
      {1000, 0x6BE03ACBF959C413ULL},
  };
  for (const auto& [size, expected] : kPinned) {
    EXPECT_EQ(ColumnFileChecksum(bytes.data(), size), expected)
        << size << " bytes";
  }
}

TEST_F(ColumnFileTest, RowCountOverflowIsRejected) {
  // Numeric: 2^61 + 4 rows * 8 bytes wraps to the real 32-byte payload.
  Column ints("k", ValueType::kInt64);
  for (int64_t v = 0; v < 4; ++v) ints.AppendInt64(v);
  std::string int_path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(ints, int_path).ok());
  PatchHeaderAndRestamp(int_path, [](ColumnFileHeader* header) {
    header->num_rows = (uint64_t{1} << 61) + 4;
  });
  Result<Column> numeric = ReadColumnFile("k", int_path);
  ASSERT_FALSE(numeric.ok()) << "loaded " << numeric.ValueOrDie().size()
                             << " rows from a 32-byte payload";
  EXPECT_EQ(numeric.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(numeric.status().message().find("row count"), std::string::npos)
      << numeric.status().message();

  // String: (2^61 - 1 + 1) * 8 wraps to an empty offset table.
  Column strings("s", ValueType::kString);
  strings.AppendString("alpha");
  strings.AppendString("beta");
  std::string str_path = dir_ + "/s.col";
  ASSERT_TRUE(WriteColumnFile(strings, str_path).ok());
  PatchHeaderAndRestamp(str_path, [](ColumnFileHeader* header) {
    header->num_rows = (uint64_t{1} << 61) - 1;
  });
  Result<Column> text = ReadColumnFile("s", str_path);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(text.status().message().find("offset table"), std::string::npos)
      << text.status().message();
}

TEST_F(ColumnFileTest, EverySingleBitFlipIsRejected) {
  Column col("k", ValueType::kInt64);
  for (int64_t v = 0; v < 100; ++v) col.AppendInt64(v * 1'000'003);
  std::string path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  const std::string pristine = ReadFileBytes(path);
  ASSERT_EQ(pristine.size(), 64u + 800u);
  std::vector<size_t> offsets;
  for (size_t i = 8; i < 32; ++i) offsets.push_back(i);  // sized fields
  for (size_t i = 64; i < pristine.size(); ++i) offsets.push_back(i);
  size_t accepted = 0;
  for (size_t offset : offsets) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = pristine;
      flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
      WriteFileBytes(path, flipped);
      if (ReadColumnFile("k", path).ok()) {
        ++accepted;
        ADD_FAILURE() << "flip of byte " << offset << " bit " << bit
                      << " was accepted";
      }
    }
  }
  EXPECT_EQ(accepted, 0u);
  WriteFileBytes(path, pristine);
  EXPECT_TRUE(ReadColumnFile("k", path).ok());
}

TEST_F(ColumnFileTest, Version1FileIsRejectedWithImportHint) {
  Column col("k", ValueType::kInt64);
  col.AppendInt64(7);
  std::string path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    char version = 1;
    f.write(&version, 1);
  }
  Result<Column> result = ReadColumnFile("k", path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string message = result.status().message();
  EXPECT_NE(message.find("version 1"), std::string::npos) << message;
  EXPECT_NE(message.find("sitstats_cli import"), std::string::npos)
      << message;
}

TEST_F(ColumnFileTest, MmapFailureSurfacesAsStatus) {
  Column col("k", ValueType::kInt64);
  col.AppendInt64(1);
  std::string path = dir_ + "/k.col";
  ASSERT_TRUE(WriteColumnFile(col, path).ok());
  FaultInjector::Global().Arm("storage.colfile.mmap", 1,
                              Status::IOError("injected mmap failure"));
  Result<Column> result = ReadColumnFile("k", path);
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("injected"), std::string::npos);
}

Table MixedTable() {
  Schema schema;
  schema.AddColumn("k", ValueType::kInt64);
  schema.AddColumn("x", ValueType::kDouble);
  schema.AddColumn("s", ValueType::kString);
  Table t("M", schema);
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    SITSTATS_CHECK_OK(t.AppendRow({Value(rng.UniformInt(-1000, 1000)),
                                   Value(rng.NextDouble() * 1e6),
                                   Value(std::string(i % 7, 'z'))}));
  }
  return t;
}

TEST_F(ColumnFileTest, BinaryCatalogRoundTripsEveryColumnType) {
  Catalog catalog;
  {
    Table t = MixedTable();
    SITSTATS_CHECK_OK(
        catalog.AddTable(std::make_unique<Table>(std::move(t))));
  }
  ASSERT_TRUE(SaveCatalogBinary(catalog, dir_).ok());
  std::unique_ptr<Catalog> back = LoadCatalogBinary(dir_).ValueOrDie();
  const Table* a = catalog.GetTable("M").ValueOrDie();
  const Table* b = back->GetTable("M").ValueOrDie();
  ASSERT_EQ(a->num_rows(), b->num_rows());
  ASSERT_EQ(a->num_columns(), b->num_columns());
  EXPECT_TRUE(b->column(0).is_mapped());
  EXPECT_TRUE(b->column(1).is_mapped());
  EXPECT_FALSE(b->column(2).is_mapped());
  for (size_t c = 0; c < a->num_columns(); ++c) {
    for (size_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->column(c).Get(r), b->column(c).Get(r))
          << "col " << c << " row " << r;
    }
  }
}

TEST_F(ColumnFileTest, LoadCatalogPrefersBinaryManifest) {
  Catalog catalog;
  {
    Table t = MixedTable();
    SITSTATS_CHECK_OK(
        catalog.AddTable(std::make_unique<Table>(std::move(t))));
  }
  // Both formats present in one directory: auto-detect must pick binary.
  ASSERT_TRUE(SaveCatalogCsv(catalog, dir_).ok())
      << "string cells without separators should save as CSV";
  ASSERT_TRUE(SaveCatalogBinary(catalog, dir_).ok());
  std::unique_ptr<Catalog> loaded = LoadCatalog(dir_).ValueOrDie();
  EXPECT_TRUE(
      loaded->GetTable("M").ValueOrDie()->column(0).is_mapped());
  // Without the binary manifest, the CSV path loads (owned columns).
  ASSERT_EQ(std::remove((dir_ + "/" + kBinaryManifestName).c_str()), 0);
  std::unique_ptr<Catalog> csv = LoadCatalog(dir_).ValueOrDie();
  EXPECT_FALSE(csv->GetTable("M").ValueOrDie()->column(0).is_mapped());
}

TEST_F(ColumnFileTest, BatchedScanOfMappedColumnsMatchesOwnedCatalog) {
  Catalog catalog;
  {
    Schema schema;
    schema.AddColumn("k", ValueType::kInt64);
    schema.AddColumn("x", ValueType::kDouble);
    Table t("N", schema);
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
      SITSTATS_CHECK_OK(t.AppendRow(
          {Value(rng.UniformInt(0, 1 << 20)), Value(rng.NextDouble())}));
    }
    SITSTATS_CHECK_OK(
        catalog.AddTable(std::make_unique<Table>(std::move(t))));
  }
  ASSERT_TRUE(SaveCatalogBinary(catalog, dir_).ok());
  std::unique_ptr<Catalog> mapped = LoadCatalogBinary(dir_).ValueOrDie();

  SequentialScan owned_scan =
      SequentialScan::Open(&catalog, "N", {"k", "x"}).ValueOrDie();
  SequentialScan mapped_scan =
      SequentialScan::Open(mapped.get(), "N", {"k", "x"}).ValueOrDie();
  // Read the owned catalog in default-size batches and the mapped one in
  // batches of an odd size, so batch boundaries never line up and the
  // mapped scan ends on a ragged final batch.
  std::vector<double> owned_k, owned_x;
  ScanBatch batch;
  while (owned_scan.NextBatch(&batch)) {
    owned_k.insert(owned_k.end(), batch.column(0).begin(),
                   batch.column(0).end());
    owned_x.insert(owned_x.end(), batch.column(1).begin(),
                   batch.column(1).end());
  }
  ASSERT_EQ(owned_k.size(), 10'000u);
  size_t rows_seen = 0;
  while (mapped_scan.NextBatch(&batch, 997)) {
    for (size_t r = 0; r < batch.num_rows; ++r) {
      ASSERT_LT(rows_seen, owned_k.size());
      ASSERT_EQ(batch.column(0)[r], owned_k[rows_seen]) << rows_seen;
      ASSERT_EQ(batch.column(1)[r], owned_x[rows_seen]) << rows_seen;
      ++rows_seen;
    }
  }
  EXPECT_EQ(rows_seen, 10'000u);
}

// ---------------------------------------------------------------------------
// End-to-end byte identity: SITs built from a binary (mmap + batched)
// catalog must serialize identically to SITs built from the same data
// loaded via CSV, at every thread count.
// ---------------------------------------------------------------------------

JoinPredicate Join(const std::string& lt, const std::string& lc,
                   const std::string& rt, const std::string& rc) {
  return JoinPredicate{ColumnRef{lt, lc}, ColumnRef{rt, rc}};
}

/// Example 3's schema: two SITs sharing a scan of S.
void MakeSharedScanDb(Catalog* catalog, std::vector<SitDescriptor>* sits) {
  Rng rng(3);
  Schema rs;
  rs.AddColumn("r1", ValueType::kInt64);
  rs.AddColumn("r2", ValueType::kInt64);
  Table* r = catalog->CreateTable("R", rs).ValueOrDie();
  Schema ss;
  ss.AddColumn("s1", ValueType::kInt64);
  ss.AddColumn("s2", ValueType::kInt64);
  ss.AddColumn("s3", ValueType::kInt64);
  ss.AddColumn("b", ValueType::kDouble);
  Table* s = catalog->CreateTable("S", ss).ValueOrDie();
  Schema ts;
  ts.AddColumn("t3", ValueType::kInt64);
  ts.AddColumn("a", ValueType::kInt64);
  Table* t = catalog->CreateTable("T", ts).ValueOrDie();
  const int64_t domain = 50;
  for (size_t i = 0; i < 2'000; ++i) {
    SITSTATS_CHECK_OK(r->AppendRow(
        {Value(rng.UniformInt(1, domain)), Value(rng.UniformInt(1, domain))}));
    int64_t s1 = rng.UniformInt(1, domain);
    SITSTATS_CHECK_OK(s->AppendRow({Value(s1),
                                    Value(rng.UniformInt(1, domain)),
                                    Value((s1 * 3) % domain + 1),
                                    Value(rng.NextDouble() * 100.0)}));
    int64_t t3 = rng.UniformInt(1, domain);
    SITSTATS_CHECK_OK(
        t->AppendRow({Value(t3), Value((t3 * 7) % domain + 1)}));
  }
  auto q1 = GeneratingQuery::Create(
      {"R", "S", "T"},
      {Join("R", "r1", "S", "s1"), Join("S", "s3", "T", "t3")});
  auto q2 = GeneratingQuery::Create({"R", "S"}, {Join("R", "r2", "S", "s2")});
  sits->emplace_back(ColumnRef{"T", "a"}, q1.ValueOrDie());
  sits->emplace_back(ColumnRef{"S", "b"}, q2.ValueOrDie());
}

std::string BuildAndSerializeSits(Catalog* catalog,
                                  const std::vector<SitDescriptor>& sits,
                                  int num_threads) {
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(*catalog, sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kOptimal;
  SolverResult solved = SolveSchedule(problem.problem, soptions).ValueOrDie();
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.num_threads = num_threads;
  ScheduleExecutionResult result =
      ExecuteSitSchedule(catalog, &stats, sits, problem, solved.schedule,
                         eoptions)
          .ValueOrDie();
  std::string serialized;
  for (const Sit& sit : result.sits) serialized += SerializeSit(sit);
  return serialized;
}

TEST_F(ColumnFileTest, SitsAreByteIdenticalAcrossFormatAndThreadCount) {
  Catalog original;
  std::vector<SitDescriptor> sits;
  MakeSharedScanDb(&original, &sits);
  ASSERT_TRUE(SaveCatalogCsv(original, dir_).ok());
  ASSERT_TRUE(SaveCatalogBinary(original, dir_).ok());

  std::string reference;
  for (bool binary : {false, true}) {
    for (int threads : {1, 2, 8}) {
      std::unique_ptr<Catalog> catalog =
          (binary ? LoadCatalogBinary(dir_) : LoadCatalogCsv(dir_))
              .ValueOrDie();
      std::string serialized =
          BuildAndSerializeSits(catalog.get(), sits, threads);
      EXPECT_FALSE(serialized.empty());
      if (reference.empty()) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << "format=" << (binary ? "binary" : "csv")
            << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy table loads: LoadCatalogBinary reads only the manifest, and a
// table's colfiles are mapped and verified on its first use.
// ---------------------------------------------------------------------------

/// Flips the first payload byte of the colfile at `path`.
void FlipPayloadByte(const std::string& path) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), sizeof(ColumnFileHeader));
  bytes[sizeof(ColumnFileHeader)] ^= 0x01;
  WriteFileBytes(path, bytes);
}

/// The tables loaded from colfiles while tracing was on, sorted.
std::vector<std::string> TracedTableLoads() {
  std::vector<std::string> tables;
  for (const telemetry::TraceEvent& event :
       telemetry::Tracer::Global().Snapshot()) {
    if (event.name != "storage.table.load") continue;
    for (const auto& [key, value] : event.args) {
      if (key == "table") tables.push_back(value);
    }
  }
  std::sort(tables.begin(), tables.end());
  return tables;
}

/// Records trace events for one test's lifetime.
class TraceScope {
 public:
  TraceScope() {
    telemetry::Tracer::Global().Clear();
    telemetry::Tracer::Global().SetEnabled(true);
  }
  ~TraceScope() {
    telemetry::Tracer::Global().SetEnabled(false);
    telemetry::Tracer::Global().Clear();
  }
};

TEST_F(ColumnFileTest, CorruptTableOutsideABuildFailsOnlyOnItsFirstUse) {
  Catalog original;
  std::vector<SitDescriptor> sits;
  MakeSharedScanDb(&original, &sits);  // sits[1] is S.b over R join S
  ASSERT_TRUE(SaveCatalogBinary(original, dir_).ok());
  const std::string corrupt = dir_ + "/T.a.col";
  FlipPayloadByte(corrupt);

  TraceScope trace;
  std::unique_ptr<Catalog> catalog = LoadCatalogBinary(dir_).ValueOrDie();
  EXPECT_EQ(catalog->TableNames(), original.TableNames());
  EXPECT_TRUE(catalog->ValidateConsistency().ok());
  EXPECT_TRUE(TracedTableLoads().empty());

  // Every variant builds the SIT over R and S, byte for byte as from the
  // in-memory catalog, and the build loads those two tables only.
  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex,
        SweepVariant::kSweepFull, SweepVariant::kSweepExact,
        SweepVariant::kHistSit}) {
    SitBuildOptions options;
    options.variant = variant;
    BaseStatsCache mapped_stats, original_stats;
    Result<Sit> sit = CreateSit(catalog.get(), &mapped_stats, sits[1], options);
    ASSERT_TRUE(sit.ok()) << SweepVariantToString(variant) << ": "
                          << sit.status();
    EXPECT_EQ(SerializeSit(*sit),
              SerializeSit(CreateSit(&original, &original_stats, sits[1],
                                     options)
                               .ValueOrDie()));
  }
  EXPECT_EQ(TracedTableLoads(), (std::vector<std::string>{"R", "S"}));
  EXPECT_TRUE(catalog->ValidateConsistency().ok());

  // The corrupt table fails on every use, naming its file.
  for (int call = 0; call < 2; ++call) {
    Result<const Table*> table = catalog->GetTable("T");
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(table.status().message().find("checksum"), std::string::npos)
        << table.status().message();
    EXPECT_NE(table.status().message().find(corrupt), std::string::npos)
        << table.status().message();
    EXPECT_FALSE(catalog->ResolveColumn("T.a").ok());
  }
  // A failed load publishes nothing: once the file is mended, the next
  // use loads the table.
  FlipPayloadByte(corrupt);
  const Table* table = catalog->GetTable("T").ValueOrDie();
  EXPECT_EQ(table->num_rows(), 2'000u);
  EXPECT_EQ(catalog->GetTable("T").ValueOrDie(), table);
  EXPECT_TRUE(catalog->ValidateConsistency().ok());
}

TEST_F(ColumnFileTest, ConcurrentFirstUsesShareOneLoad) {
  Catalog original;
  SITSTATS_CHECK_OK(original.AddTable(std::make_unique<Table>(MixedTable())));
  ASSERT_TRUE(SaveCatalogBinary(original, dir_).ok());
  std::unique_ptr<Catalog> catalog = LoadCatalogBinary(dir_).ValueOrDie();

  TraceScope trace;
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<Result<const Table*>> seen(kThreads,
                                         Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Every thread makes its first call at once.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      seen[i] = catalog->GetTable("M");
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(seen[0].ok()) << seen[0].status();
  for (const Result<const Table*>& table : seen) {
    ASSERT_TRUE(table.ok()) << table.status();
    EXPECT_EQ(*table, *seen[0]);
  }
  EXPECT_EQ((*seen[0])->num_rows(), 500u);
  EXPECT_EQ(TracedTableLoads(), std::vector<std::string>{"M"});
}

}  // namespace
}  // namespace sitstats
