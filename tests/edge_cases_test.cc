// Assorted edge cases and failure-injection tests across modules.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "datagen/synthetic_db.h"
#include "estimator/accuracy.h"
#include "histogram/builder.h"
#include "histogram/grid_histogram.h"
#include "sampling/reservoir.h"
#include "sit/creator.h"
#include "sit/serialization.h"
#include "storage/temp_store.h"

namespace sitstats {
namespace {

TEST(EdgeCases, HistogramDegenerateBuckets) {
  // dv <= 1 with nonzero width: the single value's position is unknown,
  // so any overlapping range gets the full frequency.
  Histogram h({Bucket{0, 10, 50, 1}});
  EXPECT_DOUBLE_EQ(h.EstimateRange(3, 4), 50.0);
  EXPECT_DOUBLE_EQ(h.EstimateRange(-5, -1), 0.0);
  // Zero-frequency bucket contributes nothing but stays valid.
  Histogram z({Bucket{0, 10, 0, 0}});
  EXPECT_TRUE(z.CheckValid().ok());
  EXPECT_DOUBLE_EQ(z.EstimateRange(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(z.EstimateEquals(5), 0.0);
}

TEST(EdgeCases, HistogramPointQueries) {
  Histogram h({Bucket{0, 9, 100, 10}});
  // Point range on a grid value vs off-grid.
  EXPECT_DOUBLE_EQ(h.EstimateRange(3, 3), 10.0);
  EXPECT_DOUBLE_EQ(h.EstimateRange(3.5, 3.5), 0.0);
}

TEST(EdgeCases, ReservoirCapacityOne) {
  Rng rng(3);
  ReservoirSampler sampler(1, &rng);
  sampler.AddRepeated(7.0, 1'000'000);
  ASSERT_EQ(sampler.sample().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.sample()[0], 7.0);
  sampler.AddRepeated(9.0, 3'000'000);
  // 75% of the stream is 9.0; the single slot holds one of the two.
  EXPECT_TRUE(sampler.sample()[0] == 7.0 || sampler.sample()[0] == 9.0);
  EXPECT_EQ(sampler.stream_size(), 4'000'000u);
}

TEST(EdgeCases, TempStoreZeroBudgetSpillsEverything) {
  TempValueStore store(/*memory_budget_runs=*/1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.Append(static_cast<double>(i)).ok());
  }
  EXPECT_TRUE(store.spilled());
  std::vector<std::pair<double, double>> runs;
  ASSERT_TRUE(store.ReadAll(&runs).ok());
  EXPECT_EQ(runs.size(), 50u);
}

TEST(EdgeCases, AccuracyHarnessDegenerateInputs) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("a", ValueType::kInt64);
  Table* t = catalog.CreateTable("T", schema).ValueOrDie();
  SITSTATS_CHECK_OK(t->AppendRow({Value(int64_t{5})}));
  TrueDistribution dist =
      TrueDistribution::Compute(catalog, GeneratingQuery::BaseTable("T"),
                                ColumnRef{"T", "a"})
          .ValueOrDie();
  Rng rng(1);
  // Zero queries.
  AccuracyReport r0 = EvaluateHistogramAccuracy(dist, Histogram(), 0, &rng);
  EXPECT_EQ(r0.num_queries, 0u);
  // Single-value domain: every query hits [5, 5].
  Histogram exact({Bucket{5, 5, 1, 1}});
  AccuracyReport r1 = EvaluateHistogramAccuracy(dist, exact, 50, &rng);
  EXPECT_DOUBLE_EQ(r1.mean_relative_error, 0.0);
}

TEST(EdgeCases, GridSingletonBounds) {
  // All points identical: zero-width bounds, single logical cell.
  std::vector<std::pair<double, double>> points(10, {3.0, 4.0});
  GridHistogram2D::Bounds bounds =
      GridHistogram2D::FitBounds(points, 5, 5).ValueOrDie();
  GridHistogram2D grid = GridHistogram2D::Build(points, bounds).ValueOrDie();
  EXPECT_DOUBLE_EQ(grid.TotalFrequency(), 10.0);
  EXPECT_DOUBLE_EQ(grid.EstimateEquals(3.0, 4.0), 10.0);
  EXPECT_EQ(grid.FindCell(3.1, 4.0), nullptr);
}

TEST(EdgeCases, SweepOnEmptyTable) {
  Catalog catalog;
  Schema two;
  two.AddColumn("x", ValueType::kInt64);
  two.AddColumn("a", ValueType::kInt64);
  SITSTATS_CHECK_OK(catalog.CreateTable("R", two).status());
  SITSTATS_CHECK_OK(catalog.CreateTable("S", two).status());
  GeneratingQuery q =
      GeneratingQuery::Create(
          {"R", "S"},
          {JoinPredicate{ColumnRef{"R", "x"}, ColumnRef{"S", "x"}}})
          .ValueOrDie();
  BaseStatsCache stats;
  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepExact,
        SweepVariant::kHistSit}) {
    SitBuildOptions options;
    options.variant = variant;
    Sit sit = CreateSit(&catalog, &stats,
                        SitDescriptor(ColumnRef{"S", "a"}, q), options)
                  .ValueOrDie();
    EXPECT_DOUBLE_EQ(sit.estimated_cardinality, 0.0)
        << SweepVariantToString(variant);
    EXPECT_TRUE(sit.histogram.empty());
  }
}

TEST(EdgeCases, SweepWithNoMatchingKeys) {
  // Disjoint key domains: the join is empty although both tables have
  // rows; every variant must report (near) zero.
  Catalog catalog;
  Schema two;
  two.AddColumn("x", ValueType::kInt64);
  two.AddColumn("a", ValueType::kInt64);
  Table* r = catalog.CreateTable("R", two).ValueOrDie();
  Table* s = catalog.CreateTable("S", two).ValueOrDie();
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    SITSTATS_CHECK_OK(r->AppendRow(
        {Value(rng.UniformInt(1, 100)), Value(rng.UniformInt(1, 100))}));
    SITSTATS_CHECK_OK(s->AppendRow(
        {Value(rng.UniformInt(1'000, 1'100)),
         Value(rng.UniformInt(1, 100))}));
  }
  GeneratingQuery q =
      GeneratingQuery::Create(
          {"R", "S"},
          {JoinPredicate{ColumnRef{"R", "x"}, ColumnRef{"S", "x"}}})
          .ValueOrDie();
  BaseStatsCache stats;
  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex,
        SweepVariant::kSweepFull, SweepVariant::kSweepExact}) {
    SitBuildOptions options;
    options.variant = variant;
    Sit sit = CreateSit(&catalog, &stats,
                        SitDescriptor(ColumnRef{"S", "a"}, q), options)
                  .ValueOrDie();
    EXPECT_DOUBLE_EQ(sit.estimated_cardinality, 0.0)
        << SweepVariantToString(variant);
  }
}

TEST(EdgeCases, SerializationOfEmptyCatalog) {
  SitCatalog empty;
  SitCatalog back =
      DeserializeSitCatalog(SerializeSitCatalog(empty)).ValueOrDie();
  EXPECT_EQ(back.size(), 0u);
}

TEST(EdgeCases, ChainDbSingleTable) {
  ChainDbSpec spec;
  spec.num_tables = 1;
  spec.table_rows = {100};
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  EXPECT_TRUE(db.query.IsBaseTable());
  BaseStatsCache stats;
  SitBuildOptions options;
  Sit sit = CreateSit(db.catalog.get(), &stats,
                      SitDescriptor(db.sit_attribute, db.query), options)
                .ValueOrDie();
  EXPECT_DOUBLE_EQ(sit.estimated_cardinality, 100.0);
}

TEST(EdgeCases, SamplingRateOneIsFullTableReservoir) {
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {1'000, 1'000};
  spec.join_domain = 50;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  BaseStatsCache stats;
  SitBuildOptions options;
  options.sampling_rate = 1.0;  // reservoir holds one entry per row
  Sit sit = CreateSit(db.catalog.get(), &stats,
                      SitDescriptor(db.sit_attribute, db.query), options)
                .ValueOrDie();
  EXPECT_GT(sit.estimated_cardinality, 0.0);
  EXPECT_TRUE(sit.histogram.CheckValid().ok());
}

}  // namespace
}  // namespace sitstats
