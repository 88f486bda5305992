#include <gtest/gtest.h>

#include <limits>

#include "common/logging.h"
#include "storage/catalog.h"
#include "storage/cost_model.h"
#include "storage/scan.h"
#include "storage/temp_store.h"
#include "telemetry/metrics.h"

namespace sitstats {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("k", ValueType::kInt64);
  schema.AddColumn("v", ValueType::kDouble);
  schema.AddColumn("s", ValueType::kString);
  Table* t = catalog.CreateTable("T", schema).ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(int64_t{i % 3}),
                                    Value(static_cast<double>(i)),
                                    Value(std::string("x"))}));
  }
  return catalog;
}

/// The index's count for `key`, read through its batch Lookup.
double CountOf(const WeightTable& index, double key) {
  const double* column = &key;
  double count = -1.0;
  index.Lookup(&column, 1, &count);
  return count;
}

TEST(CatalogIndexTest, CountsEveryKey) {
  Catalog catalog = MakeCatalog();
  const WeightTable* index = catalog.EnsureIndex("T", "k").ValueOrDie();
  EXPECT_EQ(index->size(), 3u);
  // keys: 0,1,2 repeating over 10 rows -> 0 appears 4 times, 1 and 2 thrice.
  EXPECT_EQ(CountOf(*index, 0.0), 4.0);
  EXPECT_EQ(CountOf(*index, 1.0), 3.0);
  EXPECT_EQ(CountOf(*index, 2.0), 3.0);
  EXPECT_EQ(CountOf(*index, 9.0), 0.0);
  EXPECT_EQ(CountOf(*index, -5.0), 0.0);
  EXPECT_EQ(CountOf(*index, 1.5), 0.0);
}

TEST(CatalogIndexTest, RejectsStringColumn) {
  Catalog catalog = MakeCatalog();
  EXPECT_EQ(catalog.EnsureIndex("T", "s").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.EnsureIndex("T", "zz").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogIndexTest, NaNRowsAreNotCounted) {
  // NaN joins nothing: its rows get no key, and a NaN probe counts 0.
  Catalog catalog;
  Schema schema;
  schema.AddColumn("v", ValueType::kDouble);
  Table* t = catalog.CreateTable("T", schema).ValueOrDie();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1.0, nan, 2.0, nan, 1.0}) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(v)}));
  }
  const WeightTable* index = catalog.EnsureIndex("T", "v").ValueOrDie();
  EXPECT_EQ(index->size(), 2u);
  EXPECT_EQ(CountOf(*index, 1.0), 2.0);
  EXPECT_EQ(CountOf(*index, 2.0), 1.0);
  EXPECT_EQ(CountOf(*index, nan), 0.0);
  EXPECT_TRUE(catalog.ValidateConsistency().ok());
}

TEST(SequentialScanTest, ProjectsColumnsInOrder) {
  Catalog catalog = MakeCatalog();
  SequentialScan scan =
      SequentialScan::Open(&catalog, "T", {"v", "k"}).ValueOrDie();
  EXPECT_EQ(scan.num_rows(), 10u);
  int rows = 0;
  ScanBatch batch;
  // Batches of 4 leave a ragged final batch of 2.
  while (scan.NextBatch(&batch, 4)) {
    ASSERT_EQ(batch.columns.size(), 2u);
    for (size_t r = 0; r < batch.num_rows; ++r) {
      EXPECT_DOUBLE_EQ(batch.column(0)[r], static_cast<double>(rows));
      EXPECT_DOUBLE_EQ(batch.column(1)[r], static_cast<double>(rows % 3));
      ++rows;
    }
  }
  EXPECT_EQ(rows, 10);
  EXPECT_FALSE(scan.NextBatch(&batch));  // stays exhausted
  EXPECT_EQ(batch.num_rows, 0u);
}

TEST(SequentialScanTest, CountsIoWork) {
  Catalog catalog = MakeCatalog();
  telemetry::Counter& scans =
      telemetry::MetricsRegistry::Global().GetCounter(
          "storage.sequential_scans");
  telemetry::Counter& rows =
      telemetry::MetricsRegistry::Global().GetCounter("storage.rows_scanned");
  const uint64_t scans_before = scans.value();
  const uint64_t rows_before = rows.value();
  SequentialScan scan =
      SequentialScan::Open(&catalog, "T", {"k"}).ValueOrDie();
  EXPECT_EQ(scans.value() - scans_before, 1u);
  ScanBatch batch;
  while (scan.NextBatch(&batch, 3)) {
  }
  EXPECT_EQ(rows.value() - rows_before, 10u);
}

TEST(SequentialScanTest, Errors) {
  Catalog catalog = MakeCatalog();
  EXPECT_EQ(
      SequentialScan::Open(&catalog, "U", {"k"}).status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(
      SequentialScan::Open(&catalog, "T", {"s"}).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      SequentialScan::Open(&catalog, "T", {"nope"}).status().code(),
      StatusCode::kNotFound);
}

TEST(TempValueStoreTest, InMemoryRoundTrip) {
  TempValueStore store;
  ASSERT_TRUE(store.Append(1.0, 2.0).ok());
  ASSERT_TRUE(store.Append(1.0, 3.0).ok());  // merges with previous run
  ASSERT_TRUE(store.Append(2.0, 1.0).ok());
  EXPECT_DOUBLE_EQ(store.total_weight(), 6.0);
  EXPECT_EQ(store.num_runs(), 2u);
  EXPECT_FALSE(store.spilled());
  std::vector<std::pair<double, double>> runs;
  ASSERT_TRUE(store.ReadAll(&runs).ok());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_DOUBLE_EQ(runs[0].first, 1.0);
  EXPECT_DOUBLE_EQ(runs[0].second, 5.0);
  EXPECT_DOUBLE_EQ(runs[1].first, 2.0);
}

TEST(TempValueStoreTest, IgnoresNonPositiveWeights) {
  TempValueStore store;
  ASSERT_TRUE(store.Append(1.0, 0.0).ok());
  ASSERT_TRUE(store.Append(1.0, -2.0).ok());
  EXPECT_EQ(store.num_runs(), 0u);
  EXPECT_DOUBLE_EQ(store.total_weight(), 0.0);
}

TEST(TempValueStoreTest, SpillsToDiskAndReadsBack) {
  TempValueStore store(/*memory_budget_runs=*/4);
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Append(static_cast<double>(i), 1.0).ok());
  }
  EXPECT_TRUE(store.spilled());
  EXPECT_GT(store.runs_spilled(), 0u);
  std::vector<std::pair<double, double>> runs;
  ASSERT_TRUE(store.ReadAll(&runs).ok());
  ASSERT_EQ(runs.size(), static_cast<size_t>(n));
  double total = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(runs[static_cast<size_t>(i)].first,
                     static_cast<double>(i));
    total += runs[static_cast<size_t>(i)].second;
  }
  EXPECT_DOUBLE_EQ(total, store.total_weight());
  // The store stays appendable and re-readable after ReadAll.
  ASSERT_TRUE(store.Append(999.0, 2.0).ok());
  ASSERT_TRUE(store.ReadAll(&runs).ok());
  EXPECT_EQ(runs.size(), static_cast<size_t>(n + 1));
}

TEST(TempValueStoreTest, MoveTransfersOwnership) {
  TempValueStore a(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.Append(static_cast<double>(i)).ok());
  }
  TempValueStore b = std::move(a);
  std::vector<std::pair<double, double>> runs;
  ASSERT_TRUE(b.ReadAll(&runs).ok());
  EXPECT_EQ(runs.size(), 10u);
}

TEST(CostModelTest, PaperCostUnits) {
  CostModel model;
  EXPECT_DOUBLE_EQ(model.SequentialScanCost(uint64_t{100'000}), 100.0);
  EXPECT_DOUBLE_EQ(model.SequentialScanCost(uint64_t{500}), 1.0);  // floor
  EXPECT_DOUBLE_EQ(model.SequentialScanCost(uint64_t{0}), 0.0);
}

TEST(CostModelTest, SampleSize) {
  CostModel model;
  EXPECT_EQ(model.SampleSize(100'000, 0.1), 10'000u);
  EXPECT_EQ(model.SampleSize(5, 0.1), 1u);  // ceil
  EXPECT_EQ(model.SampleSize(0, 0.1), 0u);
}

}  // namespace
}  // namespace sitstats
