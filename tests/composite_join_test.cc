#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/distributions.h"
#include "estimator/accuracy.h"
#include "exec/query_executor.h"
#include "histogram/grid_histogram.h"
#include "sit/creator.h"
#include "sit/serialization.h"
#include "telemetry/trace.h"

namespace sitstats {
namespace {

JoinPredicate Join(const std::string& lt, const std::string& lc,
                   const std::string& rt, const std::string& rc) {
  return JoinPredicate{ColumnRef{lt, lc}, ColumnRef{rt, rc}};
}

TEST(GridHistogramTest, BuildAndLookup) {
  std::vector<std::pair<double, double>> points = {
      {0, 0}, {0, 0}, {1, 1}, {9, 9}, {9, 9}, {9, 9}};
  GridHistogram2D::Bounds bounds =
      GridHistogram2D::FitBounds(points, 3, 3).ValueOrDie();
  GridHistogram2D grid = GridHistogram2D::Build(points, bounds).ValueOrDie();
  EXPECT_DOUBLE_EQ(grid.TotalFrequency(), 6.0);
  const GridHistogram2D::Cell* low = grid.FindCell(0, 0);
  ASSERT_NE(low, nullptr);
  EXPECT_DOUBLE_EQ(low->frequency, 3.0);  // (0,0)x2 and (1,1)
  EXPECT_DOUBLE_EQ(low->distinct_pairs, 2.0);
  const GridHistogram2D::Cell* high = grid.FindCell(9, 9);
  ASSERT_NE(high, nullptr);
  EXPECT_DOUBLE_EQ(high->frequency, 3.0);
  EXPECT_DOUBLE_EQ(high->distinct_pairs, 1.0);
  EXPECT_EQ(grid.FindCell(20, 20), nullptr);
  EXPECT_DOUBLE_EQ(grid.EstimateEquals(9, 9), 3.0);
  EXPECT_DOUBLE_EQ(grid.EstimateEquals(50, 50), 0.0);
}

TEST(GridHistogramTest, ClampsOutOfBoundsPointsIntoBorder) {
  GridHistogram2D::Bounds bounds;
  bounds.x_lo = 0;
  bounds.x_hi = 10;
  bounds.y_lo = 0;
  bounds.y_hi = 10;
  bounds.nx = 2;
  bounds.ny = 2;
  GridHistogram2D grid =
      GridHistogram2D::Build({{50, 50}, {-3, 2}}, bounds).ValueOrDie();
  EXPECT_DOUBLE_EQ(grid.TotalFrequency(), 2.0);
}

TEST(GridHistogramTest, RejectsBadInput) {
  EXPECT_FALSE(GridHistogram2D::FitBounds({}, 3, 3).ok());
  EXPECT_FALSE(GridHistogram2D::FitBounds({{1, 1}}, 0, 3).ok());
  GridHistogram2D::Bounds inverted;
  inverted.x_lo = 5;
  inverted.x_hi = 1;
  EXPECT_FALSE(GridHistogram2D::Build({{1, 1}}, inverted).ok());
  // A NaN or infinite point has no place in an equi-width grid, and NaN
  // bounds would make every cell index undefined.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::pair<double, double>& bad :
       {std::pair{nan, 1.0}, std::pair{1.0, nan}, std::pair{inf, 1.0},
        std::pair{1.0, -inf}}) {
    EXPECT_FALSE(GridHistogram2D::FitBounds({bad, {2, 2}}, 3, 3).ok());
    EXPECT_FALSE(GridHistogram2D::FitBounds({{2, 2}, bad}, 3, 3).ok());
  }
  GridHistogram2D::Bounds nan_bounds;
  nan_bounds.x_lo = nan;
  nan_bounds.x_hi = nan;
  EXPECT_FALSE(GridHistogram2D::Build({{1, 1}}, nan_bounds).ok());
  GridHistogram2D::Bounds infinite;
  infinite.x_hi = inf;
  EXPECT_FALSE(GridHistogram2D::Build({{1, 1}}, infinite).ok());
}

TEST(CompositeExactOracleTest, ExactCountsOnPairs) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("x", ValueType::kInt64);
  schema.AddColumn("y", ValueType::kInt64);
  Table* t = catalog.CreateTable("R", schema).ValueOrDie();
  SITSTATS_CHECK_OK(t->AppendRow({Value(int64_t{1}), Value(int64_t{1})}));
  SITSTATS_CHECK_OK(t->AppendRow({Value(int64_t{1}), Value(int64_t{1})}));
  SITSTATS_CHECK_OK(t->AppendRow({Value(int64_t{1}), Value(int64_t{2})}));
  ExactMOracle oracle(CountKeys(*t, {"x", "y"}).ValueOrDie());
  EXPECT_EQ(oracle.num_columns(), 2u);
  double v11[] = {1.0, 1.0};
  double v12[] = {1.0, 2.0};
  double v21[] = {2.0, 1.0};
  EXPECT_DOUBLE_EQ(oracle.MultiplicityN(v11, 2), 2.0);
  EXPECT_DOUBLE_EQ(oracle.MultiplicityN(v12, 2), 1.0);
  EXPECT_DOUBLE_EQ(oracle.MultiplicityN(v21, 2), 0.0);
}

/// Two tables joined on BOTH of two correlated key columns. The joint key
/// distribution concentrates on the diagonal (y1 ~ y2); independent
/// per-predicate selectivities underestimate the join badly.
struct CompositeDb {
  Catalog catalog;
  GeneratingQuery query;
  ColumnRef attribute;
};

CompositeDb MakeCompositeDb(size_t rows = 8'000, uint64_t seed = 7) {
  Catalog catalog;
  Rng rng(seed);
  const int64_t domain = 50;
  Schema rs;
  rs.AddColumn("x1", ValueType::kInt64);
  rs.AddColumn("x2", ValueType::kInt64);
  Table* r = catalog.CreateTable("R", rs).ValueOrDie();
  Schema ss;
  ss.AddColumn("y1", ValueType::kInt64);
  ss.AddColumn("y2", ValueType::kInt64);
  ss.AddColumn("a", ValueType::kInt64);
  Table* s = catalog.CreateTable("S", ss).ValueOrDie();
  for (size_t i = 0; i < rows; ++i) {
    // Diagonal-concentrated pairs: second key within +-1 of the first.
    int64_t x1 = rng.UniformInt(1, domain);
    int64_t x2 = std::clamp<int64_t>(x1 + rng.UniformInt(-1, 1), 1, domain);
    SITSTATS_CHECK_OK(r->AppendRow({Value(x1), Value(x2)}));
    int64_t y1 = rng.UniformInt(1, domain);
    int64_t y2 = std::clamp<int64_t>(y1 + rng.UniformInt(-1, 1), 1, domain);
    SITSTATS_CHECK_OK(s->AppendRow(
        {Value(y1), Value(y2), Value((y1 * 3) % domain + 1)}));
  }
  GeneratingQuery query =
      GeneratingQuery::Create(
          {"R", "S"}, {Join("R", "x1", "S", "y1"), Join("R", "x2", "S", "y2")})
          .ValueOrDie();
  return CompositeDb{std::move(catalog), std::move(query),
                     ColumnRef{"S", "a"}};
}

TEST(CompositeJoinTest, QueryAndTreeShape) {
  CompositeDb db = MakeCompositeDb(100);
  EXPECT_EQ(db.query.num_joins(), 2u);
  JoinTree tree = JoinTree::Build(db.query, "S").ValueOrDie();
  EXPECT_EQ(tree.size(), 2u);  // one composite edge, not two children
  const JoinTree::Node& leaf = tree.node(1);
  EXPECT_TRUE(leaf.HasCompositeParentEdge());
  ASSERT_EQ(leaf.columns_to_parent.size(), 2u);
  EXPECT_EQ(leaf.columns_to_parent[0], "x1");
  EXPECT_EQ(leaf.columns_to_parent[1], "x2");
  EXPECT_EQ(leaf.parent_columns[0], "y1");
  EXPECT_EQ(leaf.parent_columns[1], "y2");
}

TEST(CompositeJoinTest, ExecutorMatchesMaterializedJoin) {
  CompositeDb db = MakeCompositeDb(500);
  Table joined = MaterializeJoin(db.catalog, db.query).ValueOrDie();
  double card = ExactJoinCardinality(db.catalog, db.query).ValueOrDie();
  EXPECT_DOUBLE_EQ(card, static_cast<double>(joined.num_rows()));
  EXPECT_GT(card, 0.0);
  // Every materialized row satisfies both predicates.
  const Column* x1 = joined.GetColumn("R.x1").ValueOrDie();
  const Column* y1 = joined.GetColumn("S.y1").ValueOrDie();
  const Column* x2 = joined.GetColumn("R.x2").ValueOrDie();
  const Column* y2 = joined.GetColumn("S.y2").ValueOrDie();
  for (size_t row = 0; row < joined.num_rows(); ++row) {
    EXPECT_EQ(x1->GetNumeric(row), y1->GetNumeric(row));
    EXPECT_EQ(x2->GetNumeric(row), y2->GetNumeric(row));
  }
}

TEST(CompositeJoinTest, SweepExactMatchesTrueCardinality) {
  CompositeDb db = MakeCompositeDb();
  BaseStatsCache stats;
  SitBuildOptions options;
  options.variant = SweepVariant::kSweepExact;
  Sit sit = CreateSit(&db.catalog, &stats,
                      SitDescriptor(db.attribute, db.query), options)
                .ValueOrDie();
  double truth = ExactJoinCardinality(db.catalog, db.query).ValueOrDie();
  EXPECT_DOUBLE_EQ(sit.estimated_cardinality, truth);
}

TEST(CompositeJoinTest, ExactBuildsShareOneCountTableOfTheKeyPair) {
  // Two composite SweepExact builds on one catalog count R's (x1, x2)
  // pairs once, in the catalog, and both borrow that table.
  CompositeDb db = MakeCompositeDb(2'000);
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  for (int build = 0; build < 2; ++build) {
    BaseStatsCache stats;
    SitBuildOptions options;
    options.variant = SweepVariant::kSweepExact;
    ASSERT_TRUE(CreateSit(&db.catalog, &stats,
                          SitDescriptor(db.attribute, db.query), options)
                    .ok());
  }
  tracer.SetEnabled(false);
  int pair_counts = 0;
  for (const telemetry::TraceEvent& event : tracer.Snapshot()) {
    if (event.name != "storage.build_index") continue;
    for (const auto& [key, value] : event.args) {
      pair_counts += key == "column" && value == "R.x1,x2";
    }
  }
  tracer.Clear();
  EXPECT_EQ(pair_counts, 1);
  const std::vector<std::string> pair = {"x1", "x2"};
  const WeightTable* counts = db.catalog.EnsureIndex("R", pair).ValueOrDie();
  EXPECT_EQ(counts->width(), 2u);
  EXPECT_EQ(db.catalog.EnsureIndex("R", pair).ValueOrDie(), counts);
  EXPECT_TRUE(db.catalog.ValidateConsistency().ok());
}

TEST(CompositeJoinTest, GridOracleBeatsIndependencePropagation) {
  CompositeDb db = MakeCompositeDb();
  BaseStatsCache stats;
  double truth = ExactJoinCardinality(db.catalog, db.query).ValueOrDie();

  // Sweep with the 2D grid oracle.
  SitBuildOptions sweep_options;
  sweep_options.variant = SweepVariant::kSweep;
  Sit sweep = CreateSit(&db.catalog, &stats,
                        SitDescriptor(db.attribute, db.query), sweep_options)
                  .ValueOrDie();
  // Hist-SIT multiplies per-predicate selectivities (independence between
  // predicates).
  SitBuildOptions hist_options;
  hist_options.variant = SweepVariant::kHistSit;
  Sit hist = CreateSit(&db.catalog, &stats,
                       SitDescriptor(db.attribute, db.query), hist_options)
                 .ValueOrDie();

  double sweep_err = std::fabs(sweep.estimated_cardinality - truth) / truth;
  double hist_err = std::fabs(hist.estimated_cardinality - truth) / truth;
  // The diagonal correlation makes the independent-predicate estimate a
  // large underestimate; the joint grid stays close.
  EXPECT_LT(sweep_err, 0.25) << "grid=" << sweep.estimated_cardinality
                             << " truth=" << truth;
  EXPECT_GT(hist_err, 0.5) << "hist=" << hist.estimated_cardinality
                           << " truth=" << truth;
}

TEST(CompositeJoinTest, SitAccuracyOrdering) {
  CompositeDb db = MakeCompositeDb();
  BaseStatsCache stats;
  TrueDistribution truth =
      TrueDistribution::Compute(db.catalog, db.query, db.attribute)
          .ValueOrDie();
  AccuracyOptions aopts;
  aopts.num_queries = 300;
  aopts.min_actual_fraction = 0.001;
  auto measure = [&](SweepVariant variant) {
    SitBuildOptions options;
    options.variant = variant;
    Sit sit = CreateSit(&db.catalog, &stats,
                        SitDescriptor(db.attribute, db.query), options)
                  .ValueOrDie();
    Rng rng(55);
    return EvaluateHistogramAccuracy(truth, sit.histogram, aopts, &rng)
        .mean_relative_error;
  };
  double hist = measure(SweepVariant::kHistSit);
  double sweep = measure(SweepVariant::kSweep);
  double exact = measure(SweepVariant::kSweepExact);
  EXPECT_LT(sweep, hist);
  EXPECT_LT(exact, hist);
}

TEST(CompositeJoinTest, CompositeLeafSitBytesArePinned) {
  // FNV-1a of the serialized composite-leaf-edge SIT per Sweep variant:
  // grid oracle (Sweep, SweepFull) and composite exact oracle (SweepIndex,
  // SweepExact). A change that moves a single random draw or
  // floating-point operation of the build shows up here.
  const SweepVariant variants[] = {
      SweepVariant::kSweep, SweepVariant::kSweepIndex,
      SweepVariant::kSweepFull, SweepVariant::kSweepExact};
  const uint64_t kPinned[] = {0x667ce416162b49d9ull, 0x455e3d8c63d41ee7ull,
                              0x3ed3506a8d5c796dull, 0xa2b29a086b7f068eull};
  CompositeDb db = MakeCompositeDb();
  for (size_t v = 0; v < std::size(variants); ++v) {
    BaseStatsCache stats;
    SitBuildOptions options;
    options.variant = variants[v];
    Sit sit = CreateSit(&db.catalog, &stats,
                        SitDescriptor(db.attribute, db.query), options)
                  .ValueOrDie();
    uint64_t hash = HashString64(SerializeSit(sit));
    EXPECT_EQ(hash, kPinned[v]) << SweepVariantToString(variants[v])
                                << " hash 0x" << std::hex << hash;
  }
}

TEST(CompositeJoinTest, GridOracleSkipsNaNAndRejectsInfJoinValue) {
  // The child's composite join columns hold a NaN in their first row and
  // `extra` in their last: a NaN key joins nothing, so every variant drops
  // that row, while an infinite key still fails the grid's bounds fit.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto make_catalog = [nan](Catalog* catalog, double extra) {
    Schema rs;
    rs.AddColumn("x1", ValueType::kDouble);
    rs.AddColumn("x2", ValueType::kDouble);
    Table* r = catalog->CreateTable("R", rs).ValueOrDie();
    Schema ss;
    ss.AddColumn("y1", ValueType::kDouble);
    ss.AddColumn("y2", ValueType::kDouble);
    ss.AddColumn("a", ValueType::kDouble);
    Table* s = catalog->CreateTable("S", ss).ValueOrDie();
    SITSTATS_CHECK_OK(r->AppendRow({Value(nan), Value(1.0)}));
    for (int i = 0; i < 20; ++i) {
      const double k = i % 4;
      SITSTATS_CHECK_OK(r->AppendRow({Value(k), Value(k + 1)}));
      SITSTATS_CHECK_OK(s->AppendRow({Value(k), Value(k + 1), Value(k * 2)}));
    }
    SITSTATS_CHECK_OK(r->AppendRow({Value(extra), Value(1.0)}));
  };
  GeneratingQuery query =
      GeneratingQuery::Create(
          {"R", "S"}, {Join("R", "x1", "S", "y1"), Join("R", "x2", "S", "y2")})
          .ValueOrDie();
  const SitDescriptor descriptor(ColumnRef{"S", "a"}, query);
  auto build = [&descriptor](Catalog* catalog, SweepVariant variant) {
    BaseStatsCache stats;
    SitBuildOptions options;
    options.variant = variant;
    return CreateSit(catalog, &stats, descriptor, options);
  };

  Catalog catalog;
  make_catalog(&catalog, nan);
  for (SweepVariant variant : {SweepVariant::kSweep, SweepVariant::kSweepFull}) {
    Result<Sit> sit = build(&catalog, variant);
    ASSERT_TRUE(sit.ok()) << sit.status().ToString();
    EXPECT_TRUE(sit->histogram.Validate().ok());
    EXPECT_TRUE(std::isfinite(sit->estimated_cardinality));
  }
  Sit exact = build(&catalog, SweepVariant::kSweepExact).ValueOrDie();
  EXPECT_DOUBLE_EQ(exact.estimated_cardinality,
                   ExactJoinCardinality(catalog, query).ValueOrDie());
  EXPECT_DOUBLE_EQ(exact.estimated_cardinality, 100.0);  // 20 rows x 5 each

  for (double inf : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Catalog with_inf;
    make_catalog(&with_inf, inf);
    for (SweepVariant variant :
         {SweepVariant::kSweep, SweepVariant::kSweepFull}) {
      EXPECT_EQ(build(&with_inf, variant).status().code(),
                StatusCode::kInvalidArgument)
          << inf;
    }
  }
}

TEST(CompositeJoinTest, IntermediateCompositeEdgesAreRejected) {
  // Chain R - S - T where the S-T link is composite and S is internal:
  // intermediate 1D statistics cannot carry the joint key distribution.
  Catalog catalog;
  Schema two;
  two.AddColumn("k1", ValueType::kInt64);
  two.AddColumn("k2", ValueType::kInt64);
  Table* r = catalog.CreateTable("R", two).ValueOrDie();
  Table* s = catalog.CreateTable("S", two).ValueOrDie();
  Schema three = two;
  three.AddColumn("a", ValueType::kInt64);
  Table* t = catalog.CreateTable("T", three).ValueOrDie();
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    SITSTATS_CHECK_OK(
        r->AppendRow({Value(rng.UniformInt(1, 5)), Value(rng.UniformInt(1, 5))}));
    SITSTATS_CHECK_OK(
        s->AppendRow({Value(rng.UniformInt(1, 5)), Value(rng.UniformInt(1, 5))}));
    SITSTATS_CHECK_OK(t->AppendRow({Value(rng.UniformInt(1, 5)),
                                    Value(rng.UniformInt(1, 5)),
                                    Value(rng.UniformInt(1, 5))}));
  }
  GeneratingQuery q =
      GeneratingQuery::Create({"R", "S", "T"},
                              {Join("R", "k1", "S", "k1"),
                               Join("S", "k1", "T", "k1"),
                               Join("S", "k2", "T", "k2")})
          .ValueOrDie();
  BaseStatsCache stats;
  SitBuildOptions options;
  // The S-T edge is composite and S is internal when rooted at T... the
  // composite edge is between T (root) and S (internal child) — S's own
  // subtree scan feeds a composite edge, which is unsupported.
  EXPECT_EQ(CreateSit(&catalog, &stats,
                      SitDescriptor(ColumnRef{"T", "a"}, q), options)
                .status()
                .code(),
            StatusCode::kNotImplemented);
}

}  // namespace
}  // namespace sitstats
