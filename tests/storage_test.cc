#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/cost_model.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"

namespace sitstats {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s(std::string("hi"));
  EXPECT_EQ(i.type(), ValueType::kInt64);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(i.int64(), 42);
  EXPECT_EQ(d.dbl(), 3.5);
  EXPECT_EQ(s.str(), "hi");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(1.0));  // int64 != double repr
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value(std::string("x")), Value(std::string("x")));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value(std::string("abc")).ToString(), "abc");
}

TEST(ColumnTest, AppendAndGet) {
  Column c("x", ValueType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.Get(0).int64(), 1);
  EXPECT_EQ(c.Get(1).int64(), 2);
  EXPECT_DOUBLE_EQ(c.GetNumeric(1), 2.0);
}

TEST(ColumnTest, ToNumericVector) {
  Column c("x", ValueType::kInt64);
  for (int64_t v : {3, 1, 2}) c.AppendInt64(v);
  std::vector<double> nums = c.ToNumericVector();
  ASSERT_EQ(nums.size(), 3u);
  EXPECT_DOUBLE_EQ(nums[0], 3.0);
  EXPECT_DOUBLE_EQ(nums[2], 2.0);
}

TEST(ColumnTest, DoubleColumn) {
  Column c("y", ValueType::kDouble);
  c.AppendDouble(1.5);
  c.Append(Value(2.5));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c.double_data()[1], 2.5);
}

TEST(ColumnTest, StringColumn) {
  Column c("s", ValueType::kString);
  c.AppendString("a");
  c.AppendString("b");
  EXPECT_EQ(c.string_data()[0], "a");
}

TEST(SchemaTest, FindColumn) {
  Schema s;
  s.AddColumn("a", ValueType::kInt64);
  s.AddColumn("b", ValueType::kDouble);
  EXPECT_TRUE(s.HasColumn("a"));
  EXPECT_FALSE(s.HasColumn("c"));
  EXPECT_EQ(*s.FindColumn("b"), 1u);
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_NE(s.ToString().find("a int64"), std::string::npos);
}

Schema TwoColumnSchema() {
  Schema s;
  s.AddColumn("k", ValueType::kInt64);
  s.AddColumn("v", ValueType::kDouble);
  return s;
}

TEST(TableTest, AppendRowTypeChecked) {
  Table t("T", TwoColumnSchema());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(0.5)}).ok());
  // Wrong arity.
  EXPECT_EQ(t.AppendRow({Value(int64_t{1})}).code(),
            StatusCode::kInvalidArgument);
  // Wrong type.
  EXPECT_EQ(t.AppendRow({Value(0.5), Value(0.5)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_TRUE(t.CheckConsistent().ok());
}

TEST(TableTest, GetColumn) {
  Table t("T", TwoColumnSchema());
  ASSERT_TRUE(t.GetColumn("k").ok());
  EXPECT_EQ(t.GetColumn("missing").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, CreateAndLookup) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("T", TwoColumnSchema()).ok());
  EXPECT_TRUE(catalog.HasTable("T"));
  EXPECT_FALSE(catalog.HasTable("U"));
  EXPECT_EQ(catalog.CreateTable("T", TwoColumnSchema()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.GetTable("U").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"T"});
}

TEST(CatalogTest, ResolveColumn) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("T", TwoColumnSchema()).ok());
  auto resolved = catalog.ResolveColumn("T.k");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->first->name(), "T");
  EXPECT_EQ(resolved->second->name(), "k");
  EXPECT_EQ(catalog.ResolveColumn("T").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.ResolveColumn("T.k.v").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(catalog.ResolveColumn("U.k").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.ResolveColumn("T.z").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, BuildAndGetIndex) {
  Catalog catalog;
  Table* t = catalog.CreateTable("T", TwoColumnSchema()).ValueOrDie();
  for (int64_t k : {5, 3, 5, 1}) {
    ASSERT_TRUE(t->AppendRow({Value(k), Value(0.0)}).ok());
  }
  const WeightTable* index = catalog.EnsureIndex("T", "k").ValueOrDie();
  // The index is the exact row count of every key, read through Lookup.
  const std::vector<double> keys = {5.0, 2.0, 3.0, 1.0};
  const double* column = keys.data();
  std::vector<double> counts(keys.size());
  index->Lookup(&column, keys.size(), counts.data());
  EXPECT_EQ(counts, (std::vector<double>{2.0, 0.0, 1.0, 1.0}));
  EXPECT_EQ(index->size(), 3u);
  EXPECT_EQ(catalog.EnsureIndex("T", "v2").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, EnsureIndexBuildsOnceAndNeverReplaces) {
  Catalog catalog;
  Table* t = catalog.CreateTable("T", TwoColumnSchema()).ValueOrDie();
  for (int64_t k : {5, 3, 5, 1}) {
    ASSERT_TRUE(t->AppendRow({Value(k), Value(0.0)}).ok());
  }
  const WeightTable* first = catalog.EnsureIndex("T", "k").ValueOrDie();
  const double key = 5.0;
  const double* column = &key;
  double count = 0.0;
  first->Lookup(&column, 1, &count);
  EXPECT_EQ(count, 2.0);
  // A second Ensure returns the same live object (concurrent oracle builds
  // read raw pointers into the catalog, so Ensure must never swap an
  // index).
  const WeightTable* second = catalog.EnsureIndex("T", "k").ValueOrDie();
  EXPECT_EQ(first, second);
  EXPECT_EQ(catalog.EnsureIndex("T", "missing").status().code(),
            StatusCode::kNotFound);
}

/// One int64 column "k" holding `keys` in the given order.
Table KeyTable(const std::vector<int64_t>& keys) {
  Schema schema;
  schema.AddColumn("k", ValueType::kInt64);
  Table table("T", schema);
  for (int64_t k : keys) SITSTATS_CHECK_OK(table.AppendRow({Value(k)}));
  return table;
}

TEST(CatalogTest, CountKeysLayoutIgnoresRowOrder) {
  // 100k rows over 80k distinct integers spanning 0..99998: wider than
  // 2^16 and within 4x the key count, so dense in whatever order the rows
  // arrive.
  std::vector<int64_t> keys;
  for (int64_t j = 0; j < 80'000; ++j) keys.push_back(j * 5 / 4);
  for (int64_t j = 0; j < 20'000; ++j) keys.push_back(j * 5);
  std::sort(keys.begin(), keys.end());
  std::vector<int64_t> reversed(keys.rbegin(), keys.rend());
  std::vector<int64_t> shuffled = keys;
  std::mt19937_64 gen(33);
  std::shuffle(shuffled.begin(), shuffled.end(), gen);

  const WeightTable sorted_counts =
      CountKeys(KeyTable(keys), {"k"}).ValueOrDie();
  EXPECT_TRUE(sorted_counts.dense());
  EXPECT_EQ(sorted_counts.size(), 80'000u);
  std::vector<std::pair<double, double>> expected = sorted_counts.Entries();
  std::sort(expected.begin(), expected.end());
  double rows = 0.0;
  for (const auto& [key, count] : expected) rows += count;
  EXPECT_EQ(rows, 100'000.0);
  std::vector<double> probes;
  for (const auto& [key, count] : expected) {
    for (double delta : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
      probes.push_back(key + delta);
    }
  }
  const double* column = probes.data();
  std::vector<double> expected_counts(probes.size());
  sorted_counts.Lookup(&column, probes.size(), expected_counts.data());

  for (const auto& [label, order] :
       {std::pair{"reversed", &reversed}, std::pair{"shuffled", &shuffled}}) {
    const WeightTable counts = CountKeys(KeyTable(*order), {"k"}).ValueOrDie();
    EXPECT_EQ(counts.dense(), sorted_counts.dense()) << label;
    EXPECT_EQ(counts.size(), sorted_counts.size()) << label;
    std::vector<std::pair<double, double>> entries = counts.Entries();
    std::sort(entries.begin(), entries.end());
    EXPECT_EQ(entries, expected) << label;
    std::vector<double> lookups(probes.size());
    counts.Lookup(&column, probes.size(), lookups.data());
    EXPECT_EQ(lookups, expected_counts) << label;
  }
}

TEST(CostModelTest, SequentialScanCostCorners) {
  CostModel model;
  // An empty table costs nothing to scan...
  EXPECT_DOUBLE_EQ(model.SequentialScanCost(0), 0.0);
  // ...but any non-empty table costs at least one unit (the paper's
  // Cost(T) = |T|/1000 with a floor).
  EXPECT_DOUBLE_EQ(model.SequentialScanCost(1), 1.0);
  EXPECT_DOUBLE_EQ(model.SequentialScanCost(999), 1.0);
  EXPECT_DOUBLE_EQ(model.SequentialScanCost(5'000), 5.0);
}

TEST(CostModelTest, SampleSizeClampsToTable) {
  CostModel model;
  // Empty tables yield empty samples regardless of rate.
  EXPECT_EQ(model.SampleSize(0, 0.1), 0u);
  EXPECT_EQ(model.SampleSize(0, 1.0), 0u);
  // A sample can never exceed the table, even for rates above 1 or
  // rounding that would push ceil(rate * rows) past rows.
  EXPECT_EQ(model.SampleSize(100, 1.5), 100u);
  EXPECT_EQ(model.SampleSize(3, 0.999), 3u);
  EXPECT_EQ(model.SampleSize(100, 0.1), 10u);
  // ceil: a tiny positive rate still samples at least one row.
  EXPECT_EQ(model.SampleSize(100, 1e-9), 1u);
  // Degenerate rates (zero, negative, NaN) yield no sample.
  EXPECT_EQ(model.SampleSize(100, 0.0), 0u);
  EXPECT_EQ(model.SampleSize(100, -0.5), 0u);
  EXPECT_EQ(model.SampleSize(100, std::nan("")), 0u);
}

}  // namespace
}  // namespace sitstats
