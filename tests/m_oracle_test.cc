#include "sit/m_oracle.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "storage/catalog.h"

namespace sitstats {
namespace {

TEST(HistogramMOracleTest, PaperFormula) {
  // R.x bucket: f=100, dv=10; S.y bucket: dv=15 (frequency irrelevant).
  Histogram r({Bucket{0, 14, 100, 10}});
  Histogram s({Bucket{0, 14, 60, 15}});
  HistogramMOracle oracle(r, s);
  EXPECT_FALSE(oracle.exact());
  // dv_S > dv_R: expected multiplicity f_R / dv_S = 100/15.
  EXPECT_NEAR(oracle.Multiplicity(5.0), 100.0 / 15.0, 1e-9);

  // dv_S <= dv_R: multiplicity f_R / dv_R.
  Histogram s2({Bucket{0, 14, 60, 4}});
  HistogramMOracle oracle2(r, s2);
  EXPECT_NEAR(oracle2.Multiplicity(5.0), 100.0 / 10.0, 1e-9);
}

TEST(HistogramMOracleTest, ValueOutsideOtherSideIsZero) {
  Histogram r({Bucket{0, 9, 100, 10}});
  Histogram s({Bucket{0, 99, 500, 50}});
  HistogramMOracle oracle(r, s);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(50.0), 0.0);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(-1.0), 0.0);
}

TEST(HistogramMOracleTest, ValueOutsideScannedSideUsesDvOne) {
  // If the scanned side's histogram does not cover y, only dv_R matters.
  Histogram r({Bucket{0, 9, 100, 10}});
  HistogramMOracle oracle(r, Histogram());
  EXPECT_NEAR(oracle.Multiplicity(5.0), 10.0, 1e-9);
}

TEST(IndexMOracleTest, ExactCounts) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("x", ValueType::kInt64);
  Table* t = catalog.CreateTable("R", schema).ValueOrDie();
  for (int64_t v : {1, 1, 1, 2, 7}) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(v)}));
  }
  SITSTATS_CHECK_OK(catalog.BuildIndex("R", "x"));
  IndexMOracle oracle(catalog.GetIndex("R", "x").ValueOrDie());
  EXPECT_TRUE(oracle.exact());
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(1.0), 3.0);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(2.0), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(3.0), 0.0);
}

TEST(ExactMapMOracleTest, LookupAndMissing) {
  ExactMapMOracle oracle({{1.0, 2.5}, {2.0, 4.0}});
  EXPECT_TRUE(oracle.exact());
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(1.0), 2.5);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(2.0), 4.0);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(9.0), 0.0);
}

TEST(MOracleTest, DescribeIsInformative) {
  Histogram r({Bucket{0, 9, 1, 1}});
  HistogramMOracle h(r, r);
  EXPECT_FALSE(h.Describe().empty());
  ExactMapMOracle m({});
  EXPECT_FALSE(m.Describe().empty());
}

}  // namespace
}  // namespace sitstats
