#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "datagen/distributions.h"
#include "datagen/synthetic_db.h"

namespace sitstats {
namespace {

TEST(ZipfTest, UniformWhenZIsZero) {
  ZipfDistribution zipf(10, 0.0);
  for (int k = 1; k <= 10; ++k) {
    EXPECT_NEAR(zipf.Probability(k), 0.1, 1e-12);
  }
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfDistribution zipf(100, 1.0);
  double total = 0.0;
  for (int k = 1; k <= 100; ++k) total += zipf.Probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(zipf.Probability(0), 0.0);
  EXPECT_DOUBLE_EQ(zipf.Probability(101), 0.0);
}

TEST(ZipfTest, HeadDominatesWithZ1) {
  ZipfDistribution zipf(1000, 1.0);
  EXPECT_GT(zipf.Probability(1), zipf.Probability(2));
  EXPECT_NEAR(zipf.Probability(1) / zipf.Probability(2), 2.0, 1e-9);
  EXPECT_NEAR(zipf.Probability(1) / zipf.Probability(10), 10.0, 1e-9);
}

TEST(ZipfTest, SamplingMatchesProbabilities) {
  ZipfDistribution zipf(50, 1.0);
  Rng rng(7);
  std::map<int64_t, int> counts;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) counts[zipf.Sample(&rng)] += 1;
  for (int k = 1; k <= 10; ++k) {
    double expected = zipf.Probability(k);
    double observed = static_cast<double>(counts[k]) / n;
    EXPECT_NEAR(observed, expected, 0.15 * expected + 0.002) << "k=" << k;
  }
}

TEST(ZipfTest, SampleManyInDomain) {
  ZipfDistribution zipf(10, 0.5);
  Rng rng(9);
  for (int i = 0; i < 1'000; ++i) {
    const int64_t v = zipf.Sample(&rng);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
  }
}

TEST(ChainDbTest, SchemaShape) {
  ChainDbSpec spec;
  spec.num_tables = 3;
  spec.table_rows = {100, 200, 300};
  spec.extra_attributes = 2;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  EXPECT_EQ(db.catalog->num_tables(), 3u);
  const Table* r1 = db.catalog->GetTable("R1").ValueOrDie();
  const Table* r2 = db.catalog->GetTable("R2").ValueOrDie();
  const Table* r3 = db.catalog->GetTable("R3").ValueOrDie();
  EXPECT_EQ(r1->num_rows(), 100u);
  EXPECT_EQ(r2->num_rows(), 200u);
  EXPECT_EQ(r3->num_rows(), 300u);
  // R1: jn + a + 2 extras (no jp); R2: jp + jn + a + 2; R3: jp + a + 2.
  EXPECT_FALSE(r1->schema().HasColumn("jp"));
  EXPECT_TRUE(r1->schema().HasColumn("jn"));
  EXPECT_TRUE(r2->schema().HasColumn("jp"));
  EXPECT_TRUE(r2->schema().HasColumn("jn"));
  EXPECT_TRUE(r3->schema().HasColumn("jp"));
  EXPECT_FALSE(r3->schema().HasColumn("jn"));
  EXPECT_TRUE(r3->schema().HasColumn("b1"));
  // Query shape and SIT attribute.
  EXPECT_EQ(db.query.num_tables(), 3u);
  EXPECT_EQ(db.query.num_joins(), 2u);
  EXPECT_EQ(db.sit_attribute.table, "R3");
  EXPECT_EQ(db.sit_attribute.column, "a");
}

TEST(ChainDbTest, ValuesStayInDomain) {
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {500, 500};
  spec.join_domain = 100;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  for (const std::string& name : db.catalog->TableNames()) {
    const Table* t = db.catalog->GetTable(name).ValueOrDie();
    for (size_t c = 0; c < t->num_columns(); ++c) {
      for (size_t r = 0; r < t->num_rows(); ++r) {
        double v = t->column(c).GetNumeric(r);
        EXPECT_GE(v, 1.0);
        EXPECT_LE(v, 100.0);
      }
    }
  }
}

TEST(ChainDbTest, DeterministicForSeed) {
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {100, 100};
  spec.seed = 99;
  ChainDatabase a = MakeChainJoinDatabase(spec).ValueOrDie();
  ChainDatabase b = MakeChainJoinDatabase(spec).ValueOrDie();
  const Table* ta = a.catalog->GetTable("R1").ValueOrDie();
  const Table* tb = b.catalog->GetTable("R1").ValueOrDie();
  for (size_t r = 0; r < ta->num_rows(); ++r) {
    EXPECT_EQ(ta->column(0).Get(r), tb->column(0).Get(r));
  }
}

TEST(ChainDbTest, CorrelationActuallyCorrelates) {
  ChainDbSpec correlated;
  correlated.num_tables = 2;
  correlated.table_rows = {5'000, 5'000};
  correlated.correlation = AttributeCorrelation::kCorrelated;
  correlated.noise_fraction = 0.05;
  ChainDatabase db = MakeChainJoinDatabase(correlated).ValueOrDie();
  const Table* r2 = db.catalog->GetTable("R2").ValueOrDie();
  const Column* jp = r2->GetColumn("jp").ValueOrDie();
  const Column* a = r2->GetColumn("a").ValueOrDie();
  // Pearson correlation between jp and a should be strongly positive.
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  double n = static_cast<double>(r2->num_rows());
  for (size_t i = 0; i < r2->num_rows(); ++i) {
    double x = jp->GetNumeric(i);
    double y = a->GetNumeric(i);
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  double corr = (n * sxy - sx * sy) /
                std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  EXPECT_GT(corr, 0.8);

  ChainDbSpec independent = correlated;
  independent.correlation = AttributeCorrelation::kIndependent;
  ChainDatabase db2 = MakeChainJoinDatabase(independent).ValueOrDie();
  const Table* r2i = db2.catalog->GetTable("R2").ValueOrDie();
  const Column* jpi = r2i->GetColumn("jp").ValueOrDie();
  const Column* ai = r2i->GetColumn("a").ValueOrDie();
  sx = sy = sxx = syy = sxy = 0;
  for (size_t i = 0; i < r2i->num_rows(); ++i) {
    double x = jpi->GetNumeric(i);
    double y = ai->GetNumeric(i);
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  double corr_ind = (n * sxy - sx * sy) /
                    std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
  EXPECT_LT(std::fabs(corr_ind), 0.1);
}

TEST(ChainDbTest, RejectsBadSpecs) {
  ChainDbSpec spec;
  spec.num_tables = 0;
  EXPECT_FALSE(MakeChainJoinDatabase(spec).ok());
  spec.num_tables = 2;
  spec.table_rows = {10};
  EXPECT_FALSE(MakeChainJoinDatabase(spec).ok());
  spec.table_rows.clear();
  spec.join_domain = 0;
  EXPECT_FALSE(MakeChainJoinDatabase(spec).ok());
}

}  // namespace
}  // namespace sitstats
