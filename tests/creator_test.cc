#include "sit/creator.h"

#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/synthetic_db.h"
#include "estimator/accuracy.h"
#include "exec/query_executor.h"
#include "histogram/builder.h"
#include "sit/serialization.h"
#include "sit/sit_catalog.h"
#include "telemetry/metrics.h"

namespace sitstats {
namespace {

ChainDatabase SmallDb(int tables, uint64_t seed = 7,
                      size_t rows_per_table = 3'000) {
  ChainDbSpec spec;
  spec.num_tables = tables;
  spec.table_rows.assign(static_cast<size_t>(tables), rows_per_table);
  spec.join_domain = 200;
  spec.zipf_z = 1.0;
  spec.seed = seed;
  return MakeChainJoinDatabase(spec).ValueOrDie();
}

TEST(CreatorTest, RejectsBadInput) {
  ChainDatabase db = SmallDb(2);
  BaseStatsCache stats;
  // Attribute not in query.
  SitDescriptor bad(ColumnRef{"Z", "a"}, db.query);
  SitBuildOptions options;
  EXPECT_FALSE(CreateSit(db.catalog.get(), &stats, bad, options).ok());
  // Bad sampling rate.
  SitDescriptor good(db.sit_attribute, db.query);
  options.sampling_rate = 0.0;
  EXPECT_FALSE(CreateSit(db.catalog.get(), &stats, good, options).ok());
  options.sampling_rate = 1.5;
  EXPECT_FALSE(CreateSit(db.catalog.get(), &stats, good, options).ok());
}

TEST(CreatorTest, BaseTableSitIsBaseHistogram) {
  ChainDatabase db = SmallDb(2);
  BaseStatsCache stats;
  SitDescriptor desc(ColumnRef{"R1", "a"},
                     GeneratingQuery::BaseTable("R1"));
  SitBuildOptions options;
  Sit sit = CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
  EXPECT_DOUBLE_EQ(sit.estimated_cardinality, 3'000.0);
  EXPECT_NEAR(sit.histogram.TotalFrequency(), 3'000.0, 1e-6);
}

TEST(CreatorTest, SweepExactEqualsTrueDistributionHistogram) {
  // SweepExact must produce exactly the histogram one gets by executing
  // the generating query and building a histogram over the result
  // (Section 3.1.2) — bucket by bucket.
  for (int tables : {2, 3}) {
    ChainDatabase db = SmallDb(tables);
    BaseStatsCache stats;
    SitDescriptor desc(db.sit_attribute, db.query);
    SitBuildOptions options;
    options.variant = SweepVariant::kSweepExact;
    Sit sit =
        CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();

    auto weighted =
        ExecuteProjection(*db.catalog, db.query, db.sit_attribute)
            .ValueOrDie();
    std::vector<std::pair<double, double>> runs;
    double true_card = 0.0;
    for (const WeightedValue& wv : weighted) {
      runs.emplace_back(wv.value, static_cast<double>(wv.weight));
      true_card += static_cast<double>(wv.weight);
    }
    Histogram expected =
        BuildHistogramWeighted(runs, options.histogram_spec).ValueOrDie();

    EXPECT_DOUBLE_EQ(sit.estimated_cardinality, true_card)
        << tables << " tables";
    ASSERT_EQ(sit.histogram.num_buckets(), expected.num_buckets());
    for (size_t i = 0; i < expected.num_buckets(); ++i) {
      EXPECT_DOUBLE_EQ(sit.histogram.bucket(i).lo, expected.bucket(i).lo);
      EXPECT_DOUBLE_EQ(sit.histogram.bucket(i).hi, expected.bucket(i).hi);
      EXPECT_DOUBLE_EQ(sit.histogram.bucket(i).frequency,
                       expected.bucket(i).frequency);
      EXPECT_DOUBLE_EQ(sit.histogram.bucket(i).distinct_values,
                       expected.bucket(i).distinct_values);
    }
  }
}

TEST(CreatorTest, SweepIndexCardinalityIsExact) {
  // SweepIndex uses exact multiplicities, so the *estimated cardinality*
  // (fractional stream weight) equals the true join size even though the
  // histogram is sampled.
  ChainDatabase db = SmallDb(3);
  BaseStatsCache stats;
  SitDescriptor desc(db.sit_attribute, db.query);
  SitBuildOptions options;
  options.variant = SweepVariant::kSweepIndex;
  Sit sit = CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
  double true_card =
      ExactJoinCardinality(*db.catalog, db.query).ValueOrDie();
  EXPECT_DOUBLE_EQ(sit.estimated_cardinality, true_card);
}

TEST(CreatorTest, ScanCountsMatchJoinTreeShape) {
  // A k-way chain needs k-1 sequential scans (every table except the
  // deepest leaf).
  for (int tables : {2, 3, 4}) {
    ChainDatabase db = SmallDb(tables);
    BaseStatsCache stats;
    SitDescriptor desc(db.sit_attribute, db.query);
    SitBuildOptions options;
    Sit sit =
        CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
    EXPECT_EQ(sit.build_stats.sequential_scans,
              static_cast<uint64_t>(tables - 1))
        << tables << "-way chain";
  }
}

TEST(CreatorTest, HistSitPerformsNoScans) {
  ChainDatabase db = SmallDb(3);
  BaseStatsCache stats;
  SitDescriptor desc(db.sit_attribute, db.query);
  SitBuildOptions options;
  options.variant = SweepVariant::kHistSit;
  telemetry::Counter& scans =
      telemetry::MetricsRegistry::Global().GetCounter(
          "storage.sequential_scans");
  const uint64_t scans_before = scans.value();
  Sit sit = CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
  EXPECT_EQ(scans.value(), scans_before);
  EXPECT_EQ(sit.build_stats, IoStats{});
  EXPECT_GT(sit.estimated_cardinality, 0.0);
  EXPECT_FALSE(sit.histogram.empty());
}

TEST(CreatorTest, ConcurrentBuildsCountOwnWork) {
  // Two threads build different SITs over one catalog at the same time,
  // over and over: each build_stats must hold that build's work alone,
  // exactly what the same build reports when it runs by itself.
  ChainDatabase db = SmallDb(3);
  const SitDescriptor chain(db.sit_attribute, db.query);
  const SitDescriptor prefix(
      ColumnRef{"R2", "a"},
      GeneratingQuery::Create({"R1", "R2"},
                              {JoinPredicate{ColumnRef{"R1", "jn"},
                                             ColumnRef{"R2", "jp"}}})
          .ValueOrDie());
  SitBuildOptions sweep;
  SitBuildOptions sweep_index;
  sweep_index.variant = SweepVariant::kSweepIndex;
  BaseStatsCache stats;
  const IoStats chain_solo =
      CreateSit(db.catalog.get(), &stats, chain, sweep)
          .ValueOrDie()
          .build_stats;
  const IoStats prefix_solo =
      CreateSit(db.catalog.get(), &stats, prefix, sweep_index)
          .ValueOrDie()
          .build_stats;
  EXPECT_EQ(chain_solo.sequential_scans, 2u);
  EXPECT_EQ(chain_solo.histogram_lookups, 6'000u);
  EXPECT_EQ(prefix_solo.sequential_scans, 1u);
  EXPECT_EQ(prefix_solo.index_lookups, 3'000u);

  constexpr int kRounds = 20;
  auto build_repeatedly = [&](const SitDescriptor& desc,
                              const SitBuildOptions& options,
                              std::vector<IoStats>* out) {
    for (int round = 0; round < kRounds; ++round) {
      out->push_back(CreateSit(db.catalog.get(), &stats, desc, options)
                         .ValueOrDie()
                         .build_stats);
    }
  };
  std::vector<IoStats> chain_stats;
  std::vector<IoStats> prefix_stats;
  std::thread a(build_repeatedly, std::cref(chain), std::cref(sweep),
                &chain_stats);
  std::thread b(build_repeatedly, std::cref(prefix), std::cref(sweep_index),
                &prefix_stats);
  a.join();
  b.join();
  ASSERT_EQ(chain_stats.size(), static_cast<size_t>(kRounds));
  ASSERT_EQ(prefix_stats.size(), static_cast<size_t>(kRounds));
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(chain_stats[round], chain_solo)
        << "round " << round << ": " << chain_stats[round].ToString();
    EXPECT_EQ(prefix_stats[round], prefix_solo)
        << "round " << round << ": " << prefix_stats[round].ToString();
  }
}

TEST(CreatorTest, AllVariantsBeatOrMatchHistSitOnCorrelatedData) {
  // The paper's headline claim (Figure 7): every Sweep variant is far
  // more accurate than propagation when independence is violated.
  ChainDatabase db = SmallDb(2, /*seed=*/21, /*rows=*/10'000);
  BaseStatsCache stats;
  SitDescriptor desc(db.sit_attribute, db.query);
  TrueDistribution truth =
      TrueDistribution::Compute(*db.catalog, db.query, db.sit_attribute)
          .ValueOrDie();
  AccuracyOptions aopts;
  aopts.num_queries = 400;
  aopts.min_actual_fraction = 0.001;

  SitBuildOptions hist_options;
  hist_options.variant = SweepVariant::kHistSit;
  Sit hist_sit =
      CreateSit(db.catalog.get(), &stats, desc, hist_options).ValueOrDie();
  Rng rng(55);
  double hist_err =
      EvaluateHistogramAccuracy(truth, hist_sit.histogram, aopts, &rng)
          .mean_relative_error;

  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex,
        SweepVariant::kSweepFull, SweepVariant::kSweepExact}) {
    SitBuildOptions options;
    options.variant = variant;
    Sit sit =
        CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
    Rng rng2(55);
    double err =
        EvaluateHistogramAccuracy(truth, sit.histogram, aopts, &rng2)
            .mean_relative_error;
    EXPECT_LT(err, hist_err / 2.0)
        << SweepVariantToString(variant) << " err=" << err
        << " hist=" << hist_err;
  }
}

TEST(CreatorTest, AllVariantsAccurateOnIndependentUniformData) {
  // Section 5.1's control experiment: with uniform, independent join
  // attributes every technique is accurate.
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {10'000, 10'000};
  spec.join_domain = 200;
  spec.zipf_z = 0.0;
  spec.correlation = AttributeCorrelation::kIndependent;
  spec.seed = 33;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  BaseStatsCache stats;
  SitDescriptor desc(db.sit_attribute, db.query);
  TrueDistribution truth =
      TrueDistribution::Compute(*db.catalog, db.query, db.sit_attribute)
          .ValueOrDie();
  AccuracyOptions aopts;
  aopts.num_queries = 400;
  aopts.min_actual_fraction = 0.001;
  for (SweepVariant variant :
       {SweepVariant::kHistSit, SweepVariant::kSweep,
        SweepVariant::kSweepIndex, SweepVariant::kSweepFull,
        SweepVariant::kSweepExact}) {
    SitBuildOptions options;
    options.variant = variant;
    Sit sit =
        CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
    Rng rng(77);
    double err = EvaluateHistogramAccuracy(truth, sit.histogram, aopts, &rng)
                     .mean_relative_error;
    // All techniques are accurate when independence holds; the bound is
    // loose because 100 buckets over a 200-value domain leave ~2x
    // intra-bucket granularity on narrow ranges.
    EXPECT_LT(err, 0.15) << SweepVariantToString(variant);
  }
}

/// Star query R(k1,k2,a) ⋈ S(k) ⋈ T(k) with R at the centre; the SIT over
/// R.a has a join tree whose root has two leaf children.
GeneratingQuery MakeStarCatalog(Catalog* catalog) {
  Schema rs;
  rs.AddColumn("k1", ValueType::kInt64);
  rs.AddColumn("k2", ValueType::kInt64);
  rs.AddColumn("a", ValueType::kInt64);
  Table* r = catalog->CreateTable("R", rs).ValueOrDie();
  Schema ks;
  ks.AddColumn("k", ValueType::kInt64);
  Table* s = catalog->CreateTable("S", ks).ValueOrDie();
  Table* t = catalog->CreateTable("T", ks).ValueOrDie();
  Rng rng(3);
  for (int i = 0; i < 2'000; ++i) {
    SITSTATS_CHECK_OK(r->AppendRow({Value(rng.UniformInt(1, 50)),
                                    Value(rng.UniformInt(1, 50)),
                                    Value(rng.UniformInt(1, 100))}));
    SITSTATS_CHECK_OK(s->AppendRow({Value(rng.UniformInt(1, 50))}));
    SITSTATS_CHECK_OK(t->AppendRow({Value(rng.UniformInt(1, 50))}));
  }
  return GeneratingQuery::Create(
             {"R", "S", "T"},
             {JoinPredicate{ColumnRef{"R", "k1"}, ColumnRef{"S", "k"}},
              JoinPredicate{ColumnRef{"R", "k2"}, ColumnRef{"T", "k"}}})
      .ValueOrDie();
}

constexpr SweepVariant kSweepVariants[] = {
    SweepVariant::kSweep, SweepVariant::kSweepIndex, SweepVariant::kSweepFull,
    SweepVariant::kSweepExact};

/// Builds `desc` under every Sweep variant and checks the FNV-1a hash of
/// each serialized SIT against `pinned` (kSweepVariants order). The
/// SweepFull and SweepExact pins were recorded before the build path was
/// consolidated, the Sweep and SweepIndex ones when the reservoir began
/// merging a scan batch at a time; a change that moves a single random
/// draw or floating-point operation shows up here.
void ExpectPinnedBytes(Catalog* catalog, const SitDescriptor& desc,
                       const uint64_t (&pinned)[4]) {
  for (size_t v = 0; v < std::size(kSweepVariants); ++v) {
    BaseStatsCache stats;
    SitBuildOptions options;
    options.variant = kSweepVariants[v];
    Sit sit = CreateSit(catalog, &stats, desc, options).ValueOrDie();
    uint64_t hash = HashString64(SerializeSit(sit));
    EXPECT_EQ(hash, pinned[v]) << SweepVariantToString(kSweepVariants[v])
                               << " hash 0x" << std::hex << hash;
  }
}

TEST(CreatorTest, StarSitBytesArePinned) {
  Catalog catalog;
  GeneratingQuery q = MakeStarCatalog(&catalog);
  ExpectPinnedBytes(&catalog, SitDescriptor(ColumnRef{"R", "a"}, q),
                    {0x2f4f284776f7bc55ull, 0x7b06eeaf2d845d3full,
                     0xba19c865150464f6ull, 0x4bacb9c6d2fc4922ull});
}

TEST(CreatorTest, BaseTableSitBytesArePinned) {
  ChainDatabase db = SmallDb(2);
  ExpectPinnedBytes(db.catalog.get(),
                    SitDescriptor(ColumnRef{"R1", "a"},
                                  GeneratingQuery::BaseTable("R1")),
                    {0x4764a227baf8fafcull, 0x2adaa69991186970ull,
                     0x22ddd66f7d645c25ull, 0xaf556d178de31513ull});
}

TEST(CreatorTest, StarQuerySit) {
  // Acyclic non-chain query: R(k1,k2,a) joining S and T. SweepExact must
  // still match the executed result's cardinality.
  Catalog catalog;
  GeneratingQuery q = MakeStarCatalog(&catalog);
  SitDescriptor desc(ColumnRef{"R", "a"}, q);
  BaseStatsCache stats;
  SitBuildOptions options;
  options.variant = SweepVariant::kSweepExact;
  Sit sit = CreateSit(&catalog, &stats, desc, options).ValueOrDie();
  double true_card = ExactJoinCardinality(catalog, q).ValueOrDie();
  EXPECT_DOUBLE_EQ(sit.estimated_cardinality, true_card);
  // Star root: a single scan over R suffices (S and T are leaves).
  EXPECT_EQ(sit.build_stats.sequential_scans, 1u);
}

/// Chain A(x) = B(y), B(z) = C(w) with the SIT over C.a: B is the
/// intermediate step. B.z is NaN on a row that joins A; `root_nan` also
/// makes C.a NaN on a C row that joins B.
Catalog NanChainCatalog(bool root_nan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Catalog catalog;
  Schema a_schema;
  a_schema.AddColumn("x", ValueType::kDouble);
  Table* a = catalog.CreateTable("A", a_schema).ValueOrDie();
  for (double x : {1.0, 2.0, 2.0, 3.0}) {
    SITSTATS_CHECK_OK(a->AppendRow({Value(x)}));
  }
  Schema b_schema;
  b_schema.AddColumn("y", ValueType::kDouble);
  b_schema.AddColumn("z", ValueType::kDouble);
  Table* b = catalog.CreateTable("B", b_schema).ValueOrDie();
  for (auto [y, z] : {std::pair{1.0, 10.0}, std::pair{2.0, nan},
                      std::pair{2.0, 20.0}, std::pair{3.0, 10.0},
                      std::pair{4.0, 30.0}}) {
    SITSTATS_CHECK_OK(b->AppendRow({Value(y), Value(z)}));
  }
  Schema c_schema;
  c_schema.AddColumn("w", ValueType::kDouble);
  c_schema.AddColumn("a", ValueType::kDouble);
  Table* c = catalog.CreateTable("C", c_schema).ValueOrDie();
  for (auto [w, value] : {std::pair{10.0, 1.0},
                          std::pair{10.0, root_nan ? nan : 2.0},
                          std::pair{20.0, 3.0}, std::pair{30.0, 4.0}}) {
    SITSTATS_CHECK_OK(c->AppendRow({Value(w), Value(value)}));
  }
  return catalog;
}

SitDescriptor NanChainSit() {
  GeneratingQuery q =
      GeneratingQuery::Create(
          {"A", "B", "C"},
          {JoinPredicate{ColumnRef{"A", "x"}, ColumnRef{"B", "y"}},
           JoinPredicate{ColumnRef{"B", "z"}, ColumnRef{"C", "w"}}})
          .ValueOrDie();
  return SitDescriptor(ColumnRef{"C", "a"}, q);
}

TEST(CreatorTest, NanIntermediateJoinValueJoinsNothing) {
  // The NaN B.z row's weight joins nothing, as in the executor: the exact
  // oracles count it nowhere, and the histogram steps of Sweep and
  // SweepFull skip it rather than fail.
  Catalog catalog = NanChainCatalog(/*root_nan=*/false);
  const SitDescriptor desc = NanChainSit();
  // B(1,10) and B(3,10) each join one A row and two C rows; B(2,20) joins
  // two A rows and one C row; B(2,NaN) joins no C row.
  const double true_card =
      ExactJoinCardinality(catalog, desc.query()).ValueOrDie();
  ASSERT_EQ(true_card, 6.0);
  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex,
        SweepVariant::kSweepFull, SweepVariant::kSweepExact,
        SweepVariant::kHistSit}) {
    BaseStatsCache stats;
    SitBuildOptions options;
    options.variant = variant;
    Result<Sit> sit = CreateSit(&catalog, &stats, desc, options);
    ASSERT_TRUE(sit.ok()) << SweepVariantToString(variant) << ": "
                          << sit.status().ToString();
    EXPECT_TRUE(sit->histogram.Validate().ok())
        << SweepVariantToString(variant) << ": "
        << sit->histogram.Validate().ToString();
    if (variant == SweepVariant::kSweepIndex ||
        variant == SweepVariant::kSweepExact) {
      EXPECT_EQ(sit->estimated_cardinality, true_card)
          << SweepVariantToString(variant);
    }
  }
}

TEST(CreatorTest, NanRootAttributeFailsEverySweep) {
  // A NaN in the SIT's own attribute, on a row that joins, is a value no
  // histogram can hold: every sweep variant fails at the root step.
  Catalog catalog = NanChainCatalog(/*root_nan=*/true);
  const SitDescriptor desc = NanChainSit();
  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex,
        SweepVariant::kSweepFull, SweepVariant::kSweepExact}) {
    BaseStatsCache stats;
    SitBuildOptions options;
    options.variant = variant;
    Result<Sit> sit = CreateSit(&catalog, &stats, desc, options);
    ASSERT_EQ(sit.status().code(), StatusCode::kInvalidArgument)
        << SweepVariantToString(variant) << ": " << sit.status().ToString();
    EXPECT_EQ(sit.status().message(),
              "histogram input has a value that is not finite: nan")
        << SweepVariantToString(variant);
  }
}

TEST(CreatorTest, InfiniteRootAttributeFailsEverySweep) {
  // An infinite SIT attribute on a row that joins is a value no histogram
  // can hold, sampled or not: every sweep variant fails, whether or not a
  // sample would have drawn the row. A(x) = 1..50; B(y, a) of 1000 rows,
  // each joining one A row, with the infinity on the last one.
  for (double infinity : {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    Catalog catalog;
    Schema a_schema;
    a_schema.AddColumn("x", ValueType::kInt64);
    Table* a = catalog.CreateTable("A", a_schema).ValueOrDie();
    for (int64_t x = 1; x <= 50; ++x) {
      SITSTATS_CHECK_OK(a->AppendRow({Value(x)}));
    }
    Schema b_schema;
    b_schema.AddColumn("y", ValueType::kInt64);
    b_schema.AddColumn("a", ValueType::kDouble);
    Table* b = catalog.CreateTable("B", b_schema).ValueOrDie();
    for (int64_t row = 0; row < 1000; ++row) {
      const double value = row == 999 ? infinity : static_cast<double>(row);
      SITSTATS_CHECK_OK(b->AppendRow({Value(row % 50 + 1), Value(value)}));
    }
    const GeneratingQuery q =
        GeneratingQuery::Create(
            {"A", "B"}, {JoinPredicate{ColumnRef{"A", "x"}, ColumnRef{"B", "y"}}})
            .ValueOrDie();
    const SitDescriptor desc(ColumnRef{"B", "a"}, q);
    const std::string expected = std::string(
        "histogram input has a value that is not finite: ") +
        (infinity > 0 ? "inf" : "-inf");
    // A sample holds about 100 of the 1000 rows, so some of these seeds
    // leave the infinity out of it.
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      for (SweepVariant variant :
           {SweepVariant::kSweep, SweepVariant::kSweepIndex,
            SweepVariant::kSweepFull, SweepVariant::kSweepExact}) {
        BaseStatsCache stats;
        SitBuildOptions options;
        options.variant = variant;
        options.seed = seed;
        Result<Sit> sit = CreateSit(&catalog, &stats, desc, options);
        ASSERT_EQ(sit.status().code(), StatusCode::kInvalidArgument)
            << SweepVariantToString(variant) << " seed " << seed << ": "
            << sit.status().ToString();
        EXPECT_EQ(sit.status().message(), expected)
            << SweepVariantToString(variant);
      }
    }
  }
}

TEST(SitCatalogTest, AddFindReplace) {
  ChainDatabase db = SmallDb(2);
  BaseStatsCache stats;
  SitDescriptor desc(db.sit_attribute, db.query);
  SitBuildOptions options;
  Sit sit =
      CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
  SitCatalog sits;
  EXPECT_EQ(sits.Find(desc), nullptr);
  sits.Add(sit);
  EXPECT_EQ(sits.size(), 1u);
  const Sit* found = sits.Find(desc);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->variant, SweepVariant::kSweep);
  // Replacing with a different variant keeps a single entry.
  sit.variant = SweepVariant::kSweepExact;
  sits.Add(sit);
  EXPECT_EQ(sits.size(), 1u);
  EXPECT_EQ(sits.Find(desc)->variant, SweepVariant::kSweepExact);
  // Lookup with a different attribute misses.
  SitDescriptor other(ColumnRef{"R2", "b0"}, db.query);
  EXPECT_EQ(sits.Find(other), nullptr);
}

TEST(CreatorTest, DeterministicForSeed) {
  ChainDatabase db = SmallDb(2);
  BaseStatsCache stats;
  SitDescriptor desc(db.sit_attribute, db.query);
  SitBuildOptions options;
  options.seed = 1234;
  Sit a = CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
  Sit b = CreateSit(db.catalog.get(), &stats, desc, options).ValueOrDie();
  ASSERT_EQ(a.histogram.num_buckets(), b.histogram.num_buckets());
  for (size_t i = 0; i < a.histogram.num_buckets(); ++i) {
    EXPECT_DOUBLE_EQ(a.histogram.bucket(i).frequency,
                     b.histogram.bucket(i).frequency);
  }
}

}  // namespace
}  // namespace sitstats
