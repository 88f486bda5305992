#include "sit/m_oracle.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/distributions.h"
#include "histogram/builder.h"
#include "storage/catalog.h"
#include "storage/scan.h"

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

TEST(ExactMOracleTest, ExactCounts) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("x", ValueType::kInt64);
  Table* t = catalog.CreateTable("R", schema).ValueOrDie();
  for (int64_t v : {1, 1, 1, 2, 7}) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(v)}));
  }
  ExactMOracle oracle(catalog.EnsureIndex("R", "x").ValueOrDie(), "R.x");
  EXPECT_TRUE(oracle.exact());
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(1.0), 3.0);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(2.0), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(3.0), 0.0);
}

TEST(ExactMOracleTest, LookupAndMissing) {
  WeightTable map;
  map.Add(1.0, 2.5);
  map.Add(2.0, 4.0);
  ExactMOracle oracle(std::move(map));
  EXPECT_TRUE(oracle.exact());
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(1.0), 2.5);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(2.0), 4.0);
  EXPECT_DOUBLE_EQ(oracle.Multiplicity(9.0), 0.0);
}

TEST(ExactMOracleTest, BorrowsTheCatalogTableOfAnyWidth) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("x", ValueType::kInt64);
  schema.AddColumn("y", ValueType::kInt64);
  Table* t = catalog.CreateTable("R", schema).ValueOrDie();
  for (int64_t v : {1, 1, 2}) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(v), Value(v + 1)}));
  }
  const std::vector<std::string> pair = {"x", "y"};
  ExactMOracle oracle(catalog.EnsureIndex("R", pair).ValueOrDie(), "R.x,y");
  EXPECT_EQ(oracle.num_columns(), 2u);
  EXPECT_EQ(oracle.Describe(), "IndexMOracle(R.x,y)");
  const double hit[] = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(oracle.MultiplicityN(hit, 2), 2.0);
  EXPECT_EQ(ExactMOracle(WeightTable(3)).num_columns(), 3u);
  EXPECT_EQ(ExactMOracle(WeightTable()).Describe(), "ExactMapMOracle");
}

TEST(MOracleTest, DescribeIsInformative) {
  Histogram r({Bucket{0, 9, 1, 1}});
  HistogramMOracle h(r, r);
  EXPECT_FALSE(h.Describe().empty());
  ExactMOracle m{WeightTable()};
  EXPECT_FALSE(m.Describe().empty());
}

// Kernel checks: every oracle's MultiplicityBatch against an independent
// reference written here, compared bit for bit.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTwo53 = 9007199254740992.0;  // 2^53
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// `probes` plus each probe's neighbouring doubles, the signed zeros, the
/// infinities and NaN.
std::vector<double> WithNeighbours(const std::vector<double>& probes) {
  std::vector<double> out = {0.0, -0.0, kInf, -kInf, kNaN};
  for (double p : probes) {
    out.push_back(p);
    out.push_back(std::nextafter(p, -kInf));
    out.push_back(std::nextafter(p, kInf));
  }
  return out;
}

/// Runs `oracle` over the rows of `columns` (cycled to at least a little
/// over two scan batches) in batches of 1 and kScanBatchRows + 1 rows and
/// in one batch of all rows, and expects every output to have the bits of
/// reference(row values). A batch of 0 rows must write nothing.
void ExpectKernelMatches(
    const MultiplicityOracle& oracle,
    const std::vector<std::vector<double>>& columns,
    const std::function<double(const std::vector<double>&)>& reference) {
  ASSERT_EQ(columns.size(), oracle.num_columns());
  const size_t distinct_rows = columns[0].size();
  ASSERT_GT(distinct_rows, 0u);
  const size_t rows = std::max(2 * kScanBatchRows + 3, distinct_rows);
  std::vector<std::vector<double>> cycled(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      cycled[c].push_back(columns[c][r % distinct_rows]);
    }
  }
  std::vector<uint64_t> expected(rows);
  std::vector<double> row(columns.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) row[c] = cycled[c][r];
    expected[r] = std::bit_cast<uint64_t>(reference(row));
  }
  std::vector<const double*> pointers(columns.size());
  double untouched = -1.0;
  for (size_t c = 0; c < columns.size(); ++c) pointers[c] = cycled[c].data();
  oracle.MultiplicityBatch(pointers.data(), pointers.size(), 0, &untouched);
  EXPECT_EQ(untouched, -1.0);
  for (size_t batch : {size_t{1}, kScanBatchRows + 1, rows}) {
    std::vector<double> out(rows, -1.0);
    for (size_t begin = 0; begin < rows; begin += batch) {
      const size_t n = std::min(batch, rows - begin);
      for (size_t c = 0; c < columns.size(); ++c) {
        pointers[c] = cycled[c].data() + begin;
      }
      oracle.MultiplicityBatch(pointers.data(), pointers.size(), n,
                               out.data() + begin);
    }
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(std::bit_cast<uint64_t>(out[r]), expected[r])
          << oracle.Describe() << " batch " << batch << " row " << r
          << " probe " << cycled[0][r] << " got " << out[r];
    }
  }
}

/// The containment formula evaluated directly on the two FindBucket
/// results, as the oracle did per row before it was tabulated.
double ReferenceHistogram(const Histogram& other, const Histogram& scanned,
                          ContainmentMode mode, double y) {
  const int r_idx = other.FindBucket(y);
  if (r_idx < 0) return 0.0;
  const Bucket& br = other.bucket(static_cast<size_t>(r_idx));
  const double dv_r = std::max(br.distinct_values, 1.0);
  const int s_idx = scanned.FindBucket(y);
  if (s_idx < 0) return br.frequency / dv_r;
  const Bucket& bs = scanned.bucket(static_cast<size_t>(s_idx));
  const double dv_s = std::max(bs.distinct_values, 1.0);
  if (mode == ContainmentMode::kPaperRaw) {
    return br.frequency / std::max(dv_r, dv_s);
  }
  const double overlap =
      std::max(std::min(br.hi, bs.hi) - std::max(br.lo, bs.lo), 0.0);
  auto groups = [overlap](const Bucket& b, double dv) {
    if (b.Width() <= 0.0) return dv;
    return std::max(dv * overlap / b.Width(), 1.0);
  };
  return (br.frequency / dv_r) *
         std::min(1.0, groups(br, dv_r) / groups(bs, dv_s));
}

void ExpectHistogramKernel(const Histogram& other, const Histogram& scanned,
                           const std::vector<double>& extra_probes = {}) {
  std::vector<double> probes = extra_probes;
  for (const Histogram* h : {&other, &scanned}) {
    for (const Bucket& b : h->buckets()) {
      probes.push_back(b.lo);
      probes.push_back(b.hi);
      probes.push_back(b.lo + (b.hi - b.lo) / 3.0);
    }
  }
  const std::vector<double> column = WithNeighbours(probes);
  for (ContainmentMode mode :
       {ContainmentMode::kDensityNormalized, ContainmentMode::kPaperRaw}) {
    HistogramMOracle oracle(other, scanned, mode);
    ExpectKernelMatches(oracle, {column}, [&](const std::vector<double>& y) {
      return ReferenceHistogram(other, scanned, mode, y[0]);
    });
  }
}

std::vector<double> Zipf(size_t n, uint64_t domain, uint64_t seed) {
  Rng rng(seed);
  ZipfDistribution dist(domain, 1.0);
  std::vector<double> values;
  for (size_t i = 0; i < n; ++i) {
    values.push_back(static_cast<double>(dist.Sample(&rng)));
  }
  return values;
}

TEST(MOracleKernelTest, HistogramMatchesFormulaOnBuiltHistograms) {
  HistogramSpec spec;
  const Histogram r = BuildHistogram(Zipf(20'000, 2'000, 1), spec).ValueOrDie();
  const Histogram s = BuildHistogram(Zipf(20'000, 3'000, 2), spec).ValueOrDie();
  std::vector<double> between;
  for (int i = 0; i < 4'140; ++i) between.push_back(-3.5 + 0.75 * i);
  ExpectHistogramKernel(r, s, between);
  ExpectHistogramKernel(s, r, between);
  // Continuous values: non-integral endpoints, and no bucket alignment.
  Rng rng(3);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 5'000; ++i) {
    a.push_back(rng.UniformDouble(-50.0, 50.0));
    b.push_back(std::pow(rng.UniformDouble(0.0, 1.0), 4.0) * 60.0);
  }
  ExpectHistogramKernel(BuildHistogram(a, spec).ValueOrDie(),
                        BuildHistogram(b, spec).ValueOrDie(), between);
}

TEST(MOracleKernelTest, HistogramMatchesFormulaOnEdgeBuckets) {
  const double tiny = std::nextafter(1.0, kInf);
  // Gaps, singletons, a zero endpoint written as -0.0, buckets one ulp
  // apart, and zero-distinct buckets.
  const Histogram r({Bucket{-5, -0.0, 10, 3}, Bucket{1.0, 1.0, 4, 1},
                     Bucket{tiny, 3, 9, 3}, Bucket{7, 7, 0, 0},
                     Bucket{10, 1e6, 50, 40}});
  const Histogram s({Bucket{-2, 0.5, 20, 9}, Bucket{2, 2, 5, 1},
                     Bucket{2.5, 12, 30, 0.5}});
  ExpectHistogramKernel(r, s, {-1e300, 1e300, 0.25, 6.0, 8.0, 5e5});
  ExpectHistogramKernel(s, r, {-1e300, 1e300, 0.25, 6.0});
  // Infinite endpoints and a span too wide for the directory's scale.
  const Histogram wide({Bucket{-kInf, -1e308, 3, 2}, Bucket{0, 1, 2, 2},
                        Bucket{1e308, kInf, 5, 5}});
  ExpectHistogramKernel(wide, s, {-1e300, 1e300});
  ExpectHistogramKernel(s, wide, {-1e300, 1e300});
}

TEST(MOracleKernelTest, HistogramMatchesFormulaOnEmptySides) {
  const Histogram r({Bucket{0, 9, 100, 10}});
  ExpectHistogramKernel(r, Histogram(), {4.5});
  ExpectHistogramKernel(Histogram(), r, {4.5});
  ExpectHistogramKernel(Histogram(), Histogram(), {4.5});
}

/// Table R(x) of kDouble keys.
Catalog KeyCatalog(const std::vector<double>& keys) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("x", ValueType::kDouble);
  Table* t = catalog.CreateTable("R", schema).ValueOrDie();
  for (double k : keys) SITSTATS_CHECK_OK(t->AppendRow({Value(k)}));
  return catalog;
}

/// The dense layout's verdict on a table built from `keys`.
bool DenseFor(const std::vector<double>& keys) {
  WeightTable table;
  for (double k : keys) table.Add(k, 1.0);
  table.Compact();
  return table.dense();
}

void ExpectIndexKernel(const std::vector<double>& keys,
                       const std::vector<double>& extra_probes) {
  Catalog catalog = KeyCatalog(keys);
  ExactMOracle oracle(catalog.EnsureIndex("R", "x").ValueOrDie(), "R.x");
  std::vector<double> probes = keys;
  probes.insert(probes.end(), extra_probes.begin(), extra_probes.end());
  ExpectKernelMatches(
      oracle, {WithNeighbours(probes)}, [&](const std::vector<double>& y) {
        double count = 0.0;
        for (double k : keys) count += k == y[0] ? 1.0 : 0.0;
        return count;
      });
}

TEST(MOracleKernelTest, IndexMatchesCountInBothLayouts) {
  // Integral keys in a narrow span (dense), with duplicates, both zeros and
  // a NaN row (counted nowhere).
  std::vector<double> dense_keys = {-0.0, 0.0, 0.0, 1, 1, 1, 2, 5, -3, 7,
                                    kNaN};
  for (int i = 0; i < 200; ++i) dense_keys.push_back(i % 37);
  ASSERT_TRUE(DenseFor(dense_keys));
  ExpectIndexKernel(dense_keys, {0.5, 1.5, -2.5, 36.999, 100, -100});
  // The same keys spread over too wide a span (hash).
  std::vector<double> sparse_keys = dense_keys;
  sparse_keys.push_back(1e6);
  ASSERT_FALSE(DenseFor(sparse_keys));
  ExpectIndexKernel(sparse_keys, {0.5, 1.5, 1e6 - 1, 1e6 + 0.5});
  // Non-integral keys (hash).
  const std::vector<double> fractional = {0.5, 0.5, -0.25, 3.75, 1e-300};
  ASSERT_FALSE(DenseFor(fractional));
  ExpectIndexKernel(fractional, {0.0, 1.0, 3.0, 4.0});
  // Infinite keys (hash).
  const std::vector<double> infinite = {-kInf, 1, 2, 2, kInf};
  ASSERT_FALSE(DenseFor(infinite));
  ExpectIndexKernel(infinite, {0, 3});
}

TEST(MOracleKernelTest, IndexRefusesDenseAtTwoTo53) {
  // Just below 2^53 the integers are dense-eligible; at and beyond it a
  // double no longer has integral neighbours, and the layout is refused.
  const std::vector<double> below = {kTwo53 - 1, kTwo53 - 2, kTwo53 - 3,
                                     -(kTwo53 - 1), -(kTwo53 - 2)};
  EXPECT_FALSE(DenseFor(below));  // span ~2^54: hash
  const std::vector<double> narrow_below = {kTwo53 - 1, kTwo53 - 2,
                                            kTwo53 - 3};
  ASSERT_TRUE(DenseFor(narrow_below));
  ExpectIndexKernel(narrow_below, {kTwo53, kTwo53 + 2, kTwo53 - 4});
  for (const std::vector<double>& at :
       {std::vector<double>{kTwo53, kTwo53 - 1, kTwo53 - 2},
        std::vector<double>{-kTwo53, -kTwo53 + 1},
        std::vector<double>{kTwo53 + 2, kTwo53 + 4, kTwo53 + 6},
        std::vector<double>{-kTwo53 * 4, -kTwo53 * 4 + 8}}) {
    EXPECT_FALSE(DenseFor(at)) << at[0];
    ExpectIndexKernel(at, {kTwo53 + 1, kTwo53 - 0.5, 0});
  }
}

void ExpectExactMapKernel(const std::vector<std::pair<double, double>>& adds,
                          const std::vector<double>& extra_probes,
                          bool dense) {
  WeightTable table;
  std::unordered_map<double, double> reference;
  std::vector<double> probes = extra_probes;
  for (const auto& [key, weight] : adds) {
    table.Add(key, weight);
    reference[key] += weight;
    probes.push_back(key);
  }
  WeightTable compacted = table;
  compacted.Compact();
  EXPECT_EQ(compacted.dense(), dense);
  ExactMOracle oracle(std::move(table));
  ExpectKernelMatches(oracle, {WithNeighbours(probes)},
                      [&](const std::vector<double>& y) {
                        auto it = reference.find(y[0]);
                        return it == reference.end() ? 0.0 : it->second;
                      });
}

TEST(MOracleKernelTest, ExactMapMatchesUnorderedMapInBothLayouts) {
  // Fractional weights summed per key in add order; -0.0 and +0.0 share
  // one entry, and a NaN key is dropped (unordered_map stores it but can
  // never find it).
  std::vector<std::pair<double, double>> adds = {
      {0.0, 0.1}, {-0.0, 0.2}, {3, 1.0 / 3}, {3, 0.7}, {kNaN, 5}, {-4, 2.5}};
  for (int i = 0; i < 300; ++i) adds.push_back({i % 23, 0.1 * (i % 7) + 0.01});
  ExpectExactMapKernel(adds, {0.5, 22.5, 23, -5, 1e9}, /*dense=*/true);
  adds.push_back({-1e7, 1.5});  // span beyond the cap
  ExpectExactMapKernel(adds, {0.5, -1e7 + 1}, /*dense=*/false);
  ExpectExactMapKernel({{0.125, 1}, {kTwo53, 2}, {-kInf, 3}, {1e-310, 4}},
                       {0.0, 1, kTwo53 + 2}, /*dense=*/false);
  // Keys whose first two adds span far more than 4x their count end dense:
  // the layout follows the final keys, not the order they arrived in.
  std::vector<std::pair<double, double>> filled = {{0, 1}, {70'000, 2}};
  for (int k = 69'999; k > 0; k -= 3) filled.push_back({k, 0.5});
  ExpectExactMapKernel(filled, {-1, 70'001}, /*dense=*/true);
  // Empty maps, and a map of nothing but a NaN key.
  ExpectExactMapKernel({}, {0.0, 1.0}, /*dense=*/false);
  ExpectExactMapKernel({{kNaN, 1}}, {0.0, 1.0}, /*dense=*/false);
}

TEST(MOracleKernelTest, NonPositiveWeightsStoreNoKey) {
  // A key is stored iff its summed weight is positive: zero, negative and
  // NaN weights are ignored, in either layout.
  const double kNegZero = -0.0;
  for (bool hashed : {false, true}) {
    WeightTable table;
    for (double key : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) table.Add(key, 1.0);
    if (hashed) table.Add(0.5, 1.0);
    table.Compact();
    ASSERT_EQ(table.dense(), !hashed);
    const size_t stored = table.size();
    for (double weight : {0.0, kNegZero, -1.0, -kInf, kNaN}) {
      table.Add(7.0, weight);
      table.Add(-3.5, weight);
      table.Add(2.0, weight);
    }
    EXPECT_EQ(table.size(), stored) << hashed;
    EXPECT_EQ(table.dense(), !hashed);
    const std::vector<double> probes = {7.0, -3.5, 2.0};
    std::vector<double> out(probes.size());
    const double* column = probes.data();
    table.Lookup(&column, probes.size(), out.data());
    EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 1.0})) << hashed;
    for (const auto& [key, weight] : table.Entries()) {
      EXPECT_GT(weight, 0.0) << key;
    }
  }
}

TEST(MOracleKernelTest, CompositeExactMatchesCount) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("x", ValueType::kDouble);
  schema.AddColumn("y", ValueType::kDouble);
  Table* t = catalog.CreateTable("R", schema).ValueOrDie();
  const std::vector<std::pair<double, double>> rows = {
      {0.0, 1},   {-0.0, 1}, {1, -0.0}, {1, 0.0},  {1, 1},   {1, 1},
      {kNaN, 1},  {1, kNaN}, {2.5, 7},  {kInf, 3}, {-1e9, 4}, {kTwo53, 1}};
  for (const auto& [x, y] : rows) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(x), Value(y)}));
  }
  // The catalog's composite count table, as a composite exact edge borrows.
  ExactMOracle oracle(
      catalog.EnsureIndex("R", std::vector<std::string>{"x", "y"}).ValueOrDie(),
      "R.x,y");
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> values = {0.0, -0.0, 1, 2.5, 7, kInf, kNaN, -1e9, 4,
                                kTwo53, 3, 2};
  for (double x : values) {
    for (double y : values) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  ExpectKernelMatches(oracle, {xs, ys}, [&](const std::vector<double>& p) {
    double count = 0.0;
    for (const auto& [x, y] : rows) {
      count += x == p[0] && y == p[1] ? 1.0 : 0.0;
    }
    return count;
  });
}

TEST(MOracleKernelTest, GridMatchesCellFormula) {
  Rng rng(4);
  std::vector<std::pair<double, double>> r_points;
  std::vector<std::pair<double, double>> s_points;
  for (int i = 0; i < 2'000; ++i) {
    r_points.emplace_back(rng.UniformInt(0, 30), rng.UniformInt(0, 30));
    s_points.emplace_back(rng.UniformInt(5, 40), rng.UniformInt(-5, 20));
  }
  std::vector<std::pair<double, double>> all = r_points;
  all.insert(all.end(), s_points.begin(), s_points.end());
  const GridHistogram2D::Bounds bounds =
      GridHistogram2D::FitBounds(all, 7, 5).ValueOrDie();
  const GridHistogram2D r = GridHistogram2D::Build(r_points, bounds)
                                .ValueOrDie();
  const GridHistogram2D s = GridHistogram2D::Build(s_points, bounds)
                                .ValueOrDie();
  GridMOracle oracle(r, s);
  std::vector<double> xs;
  std::vector<double> ys;
  const std::vector<double> axis =
      WithNeighbours({-6, -5, 0, 4.5, 5.8, 17.5, 20, 30, 40, 41});
  for (double x : axis) {
    for (double y : axis) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  ExpectKernelMatches(oracle, {xs, ys}, [&](const std::vector<double>& p) {
    const GridHistogram2D::Cell* rc = r.FindCell(p[0], p[1]);
    if (rc == nullptr || rc->distinct_pairs <= 0.0) return 0.0;
    const double dv_r = std::max(rc->distinct_pairs, 1.0);
    const GridHistogram2D::Cell* sc = s.FindCell(p[0], p[1]);
    const double dv_s = sc == nullptr ? 1.0 : std::max(sc->distinct_pairs, 1.0);
    return rc->frequency / std::max(dv_r, dv_s);
  });
}

}  // namespace
}  // namespace sitstats
