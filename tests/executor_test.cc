#include "exec/query_executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/logging.h"
#include "datagen/synthetic_db.h"
#include "exec/hash_join.h"
#include "sit/creator.h"

namespace sitstats {
namespace {

JoinPredicate Join(const std::string& lt, const std::string& lc,
                   const std::string& rt, const std::string& rc) {
  return JoinPredicate{ColumnRef{lt, lc}, ColumnRef{rt, rc}};
}

/// R(x, a): 4 rows; S(y, b): 4 rows; join on x = y.
Catalog SmallJoinCatalog() {
  Catalog catalog;
  Schema rs;
  rs.AddColumn("x", ValueType::kInt64);
  rs.AddColumn("a", ValueType::kInt64);
  Table* r = catalog.CreateTable("R", rs).ValueOrDie();
  // x: 1,1,2,3
  SITSTATS_CHECK_OK(r->AppendRow({Value(int64_t{1}), Value(int64_t{10})}));
  SITSTATS_CHECK_OK(r->AppendRow({Value(int64_t{1}), Value(int64_t{11})}));
  SITSTATS_CHECK_OK(r->AppendRow({Value(int64_t{2}), Value(int64_t{12})}));
  SITSTATS_CHECK_OK(r->AppendRow({Value(int64_t{3}), Value(int64_t{13})}));
  Schema ss;
  ss.AddColumn("y", ValueType::kInt64);
  ss.AddColumn("b", ValueType::kInt64);
  Table* s = catalog.CreateTable("S", ss).ValueOrDie();
  // y: 1,2,2,5
  SITSTATS_CHECK_OK(s->AppendRow({Value(int64_t{1}), Value(int64_t{20})}));
  SITSTATS_CHECK_OK(s->AppendRow({Value(int64_t{2}), Value(int64_t{21})}));
  SITSTATS_CHECK_OK(s->AppendRow({Value(int64_t{2}), Value(int64_t{22})}));
  SITSTATS_CHECK_OK(s->AppendRow({Value(int64_t{5}), Value(int64_t{23})}));
  return catalog;
}

TEST(HashJoinTest, InnerJoinSemantics) {
  Catalog catalog = SmallJoinCatalog();
  const Table* r = catalog.GetTable("R").ValueOrDie();
  const Table* s = catalog.GetTable("S").ValueOrDie();
  Table joined = HashJoinTables(*r, *s, "x", "y").ValueOrDie();
  // Matches: x=1 (2 R rows x 1 S row) + x=2 (1 R row x 2 S rows) = 4.
  EXPECT_EQ(joined.num_rows(), 4u);
  EXPECT_EQ(joined.num_columns(), 4u);
  EXPECT_TRUE(joined.schema().HasColumn("R.x"));
  EXPECT_TRUE(joined.schema().HasColumn("S.b"));
  // Every output row satisfies the predicate.
  const Column* jx = joined.GetColumn("R.x").ValueOrDie();
  const Column* jy = joined.GetColumn("S.y").ValueOrDie();
  for (size_t i = 0; i < joined.num_rows(); ++i) {
    EXPECT_EQ(jx->GetNumeric(i), jy->GetNumeric(i));
  }
}

TEST(HashJoinTest, NoMatches) {
  Catalog catalog = SmallJoinCatalog();
  const Table* r = catalog.GetTable("R").ValueOrDie();
  Schema es;
  es.AddColumn("y", ValueType::kInt64);
  Table empty("E", es);
  SITSTATS_CHECK_OK(empty.AppendRow({Value(int64_t{99})}));
  Table joined = HashJoinTables(*r, empty, "x", "y").ValueOrDie();
  EXPECT_EQ(joined.num_rows(), 0u);
}

TEST(ExecuteProjectionTest, MatchesHandComputedJoin) {
  Catalog catalog = SmallJoinCatalog();
  auto q = GeneratingQuery::Create({"R", "S"}, {Join("R", "x", "S", "y")});
  ASSERT_TRUE(q.ok());
  // Project S.b over the join: S row (1,20) matches 2 R rows; rows
  // (2,21),(2,22) match 1 R row each; (5,23) matches none.
  auto weighted =
      ExecuteProjection(catalog, *q, ColumnRef{"S", "b"}).ValueOrDie();
  std::map<double, uint64_t> result;
  for (const WeightedValue& wv : weighted) result[wv.value] += wv.weight;
  EXPECT_EQ(result[20.0], 2u);
  EXPECT_EQ(result[21.0], 1u);
  EXPECT_EQ(result[22.0], 1u);
  EXPECT_FALSE(result.contains(23.0));
}

TEST(ExecuteProjectionTest, CardinalityMatchesMaterializedJoin) {
  Catalog catalog = SmallJoinCatalog();
  auto q = GeneratingQuery::Create({"R", "S"}, {Join("R", "x", "S", "y")});
  Table joined = MaterializeJoin(catalog, *q).ValueOrDie();
  double card = ExactJoinCardinality(catalog, *q).ValueOrDie();
  EXPECT_DOUBLE_EQ(card, static_cast<double>(joined.num_rows()));
}

TEST(ExecuteProjectionTest, ChainAgreesWithMaterializedJoin) {
  // Cross-check the linear-time weighted evaluator against the
  // materializing hash join on a small random 3-chain.
  ChainDbSpec spec;
  spec.num_tables = 3;
  spec.table_rows = {200, 200, 200};
  spec.join_domain = 50;
  spec.zipf_z = 0.5;
  spec.seed = 5;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  Table joined = MaterializeJoin(*db.catalog, db.query).ValueOrDie();
  // Compare the full distribution of the SIT attribute.
  const Column* attr_col =
      joined
          .GetColumn(db.sit_attribute.table + "." + db.sit_attribute.column)
          .ValueOrDie();
  std::map<double, uint64_t> expected;
  for (size_t i = 0; i < attr_col->size(); ++i) {
    expected[attr_col->GetNumeric(i)] += 1;
  }
  auto weighted =
      ExecuteProjection(*db.catalog, db.query, db.sit_attribute)
          .ValueOrDie();
  std::map<double, uint64_t> got;
  for (const WeightedValue& wv : weighted) got[wv.value] += wv.weight;
  EXPECT_EQ(got, expected);
}

TEST(ExecuteProjectionTest, StarQuery) {
  // R(k1,k2,a) joins S on k1 and T on k2; multiplicities multiply.
  Catalog catalog;
  Schema rs;
  rs.AddColumn("k1", ValueType::kInt64);
  rs.AddColumn("k2", ValueType::kInt64);
  rs.AddColumn("a", ValueType::kInt64);
  Table* r = catalog.CreateTable("R", rs).ValueOrDie();
  SITSTATS_CHECK_OK(r->AppendRow(
      {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{100})}));
  Schema ks;
  ks.AddColumn("k", ValueType::kInt64);
  Table* s = catalog.CreateTable("S", ks).ValueOrDie();
  Table* t = catalog.CreateTable("T", ks).ValueOrDie();
  for (int i = 0; i < 3; ++i) {
    SITSTATS_CHECK_OK(s->AppendRow({Value(int64_t{1})}));
  }
  for (int i = 0; i < 4; ++i) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(int64_t{1})}));
  }
  auto q = GeneratingQuery::Create(
      {"R", "S", "T"},
      {Join("R", "k1", "S", "k"), Join("R", "k2", "T", "k")});
  ASSERT_TRUE(q.ok());
  auto weighted =
      ExecuteProjection(catalog, *q, ColumnRef{"R", "a"}).ValueOrDie();
  ASSERT_EQ(weighted.size(), 1u);
  EXPECT_EQ(weighted[0].weight, 12u);  // 3 * 4
}

TEST(ExactRangeCardinalityTest, RangeFilters) {
  Catalog catalog = SmallJoinCatalog();
  auto q = GeneratingQuery::Create({"R", "S"}, {Join("R", "x", "S", "y")});
  ColumnRef attr{"S", "b"};
  EXPECT_DOUBLE_EQ(
      ExactRangeCardinality(catalog, *q, attr, 20, 20).ValueOrDie(), 2.0);
  EXPECT_DOUBLE_EQ(
      ExactRangeCardinality(catalog, *q, attr, 21, 22).ValueOrDie(), 2.0);
  EXPECT_DOUBLE_EQ(
      ExactRangeCardinality(catalog, *q, attr, 0, 100).ValueOrDie(), 4.0);
  EXPECT_DOUBLE_EQ(
      ExactRangeCardinality(catalog, *q, attr, 23, 23).ValueOrDie(), 0.0);
}

// One key equality on every exact path: the executor, the materialized
// hash join and SweepExact's oracles all treat -0.0 and +0.0 as one key
// and never match a NaN.

void AddDoubleTable(Catalog* catalog, const std::string& name,
                    const std::vector<std::string>& columns,
                    const std::vector<std::vector<double>>& rows) {
  Schema schema;
  for (const std::string& column : columns) {
    schema.AddColumn(column, ValueType::kDouble);
  }
  Table* table = catalog->CreateTable(name, schema).ValueOrDie();
  for (const std::vector<double>& row : rows) {
    std::vector<Value> values;
    for (double v : row) values.emplace_back(v);
    SITSTATS_CHECK_OK(table->AppendRow(values));
  }
}

double MaterializedRows(const Catalog& catalog, const GeneratingQuery& query) {
  return static_cast<double>(
      MaterializeJoin(catalog, query).ValueOrDie().num_rows());
}

/// The cardinality a SweepExact (or SweepIndex) build of `attribute`
/// reports; both variants count the join exactly.
double SweepExactCardinality(
    Catalog* catalog, const GeneratingQuery& query, const ColumnRef& attribute,
    SweepVariant variant = SweepVariant::kSweepExact) {
  BaseStatsCache stats;
  SitBuildOptions options;
  options.variant = variant;
  return CreateSit(catalog, &stats, SitDescriptor(attribute, query), options)
      .ValueOrDie()
      .estimated_cardinality;
}

TEST(ExactKeyEqualityTest, SignedZerosAreOneKey) {
  Catalog catalog;
  AddDoubleTable(&catalog, "R", {"x"}, {{0.0}, {0.0}, {1.0}});
  AddDoubleTable(&catalog, "S", {"y"}, {{-0.0}, {1.0}});
  GeneratingQuery query =
      GeneratingQuery::Create({"R", "S"}, {Join("R", "x", "S", "y")})
          .ValueOrDie();
  const double materialized = MaterializedRows(catalog, query);
  EXPECT_EQ(materialized, 3.0);
  EXPECT_EQ(ExactJoinCardinality(catalog, query).ValueOrDie(), materialized);
  // Both scan directions: R probing an index over S.y, and S over R.x.
  EXPECT_EQ(SweepExactCardinality(&catalog, query, {"R", "x"}), materialized);
  EXPECT_EQ(SweepExactCardinality(&catalog, query, {"S", "y"}), materialized);
}

TEST(ExactKeyEqualityTest, SignedZerosThroughTheExactMap) {
  // T.z = S.w joins through S's exact map, accumulated over S.w values
  // that mix -0.0 and +0.0 and probed with both.
  Catalog catalog;
  AddDoubleTable(&catalog, "R", {"x"}, {{0.0}, {-0.0}, {1.0}});
  AddDoubleTable(&catalog, "S", {"y", "w"},
                 {{-0.0, -0.0}, {0.0, 0.0}, {1.0, -0.0}, {1.0, 2.0}});
  AddDoubleTable(&catalog, "T", {"z"}, {{0.0}, {-0.0}, {2.0}, {3.0}});
  GeneratingQuery query =
      GeneratingQuery::Create({"R", "S", "T"}, {Join("R", "x", "S", "y"),
                                                Join("S", "w", "T", "z")})
          .ValueOrDie();
  const double materialized = MaterializedRows(catalog, query);
  EXPECT_EQ(materialized, 11.0);
  EXPECT_EQ(ExactJoinCardinality(catalog, query).ValueOrDie(), materialized);
  EXPECT_EQ(SweepExactCardinality(&catalog, query, {"T", "z"}), materialized);
  EXPECT_EQ(SweepExactCardinality(&catalog, query, {"R", "x"}), materialized);
}

TEST(ExactKeyEqualityTest, CompositeSignedZerosAreOneKey) {
  Catalog catalog;
  AddDoubleTable(&catalog, "R", {"x", "x2"},
                 {{0.0, 1.0}, {0.0, 1.0}, {1.0, 1.0}});
  AddDoubleTable(&catalog, "S", {"y", "y2"}, {{-0.0, 1.0}, {1.0, 1.0}});
  GeneratingQuery query =
      GeneratingQuery::Create(
          {"R", "S"}, {Join("R", "x", "S", "y"), Join("R", "x2", "S", "y2")})
          .ValueOrDie();
  const double materialized = MaterializedRows(catalog, query);
  EXPECT_EQ(materialized, 3.0);
  EXPECT_EQ(ExactJoinCardinality(catalog, query).ValueOrDie(), materialized);
  EXPECT_EQ(SweepExactCardinality(&catalog, query, {"S", "y"}), materialized);
  EXPECT_EQ(SweepExactCardinality(&catalog, query, {"R", "x"}), materialized);
}

TEST(ExactKeyEqualityTest, NaNJoinsNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Catalog catalog;
  AddDoubleTable(&catalog, "R", {"x", "x2"}, {{nan, 1.0}, {1.0, 1.0}});
  AddDoubleTable(&catalog, "S", {"y", "y2"}, {{nan, 1.0}, {1.0, 1.0}});
  GeneratingQuery single =
      GeneratingQuery::Create({"R", "S"}, {Join("R", "x", "S", "y")})
          .ValueOrDie();
  EXPECT_EQ(MaterializedRows(catalog, single), 1.0);
  EXPECT_EQ(ExactJoinCardinality(catalog, single).ValueOrDie(), 1.0);
  GeneratingQuery composite =
      GeneratingQuery::Create(
          {"R", "S"}, {Join("R", "x2", "S", "y2"), Join("R", "x", "S", "y")})
          .ValueOrDie();
  EXPECT_EQ(MaterializedRows(catalog, composite), 1.0);
  EXPECT_EQ(ExactJoinCardinality(catalog, composite).ValueOrDie(), 1.0);
  // Both exact variants, both scan directions: a NaN row of the scanned
  // side finds no match, and one of the other side is counted nowhere.
  for (SweepVariant variant :
       {SweepVariant::kSweepExact, SweepVariant::kSweepIndex}) {
    for (const GeneratingQuery* query : {&single, &composite}) {
      EXPECT_EQ(SweepExactCardinality(&catalog, *query, {"R", "x"}, variant),
                1.0);
      EXPECT_EQ(SweepExactCardinality(&catalog, *query, {"S", "y"}, variant),
                1.0);
    }
  }
  // The approximate variants read base histograms, which leave NaN out as
  // the exact counts do: each builds a valid SIT of finite cardinality.
  // (A composite edge's 2D grid drops NaN pairs too; see
  // CompositeJoinTest.GridOracleSkipsNaNAndRejectsInfJoinValue.)
  for (SweepVariant variant : {SweepVariant::kSweep, SweepVariant::kSweepFull,
                               SweepVariant::kHistSit}) {
    for (const ColumnRef& attribute :
         {ColumnRef{"R", "x"}, ColumnRef{"S", "y"}}) {
      BaseStatsCache stats;
      SitBuildOptions options;
      options.variant = variant;
      Result<Sit> sit = CreateSit(&catalog, &stats,
                                  SitDescriptor(attribute, single), options);
      ASSERT_TRUE(sit.ok()) << SweepVariantToString(variant) << ": "
                            << sit.status();
      EXPECT_TRUE(sit->histogram.Validate().ok());
      EXPECT_TRUE(std::isfinite(sit->estimated_cardinality));
    }
  }
}

}  // namespace
}  // namespace sitstats
