#include "sit/sweep_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace sitstats {
namespace {

/// S(y, a) with known values; a constant-multiplicity oracle makes the
/// expected stream easy to compute by hand.
class ConstantOracle : public MultiplicityOracle {
 public:
  explicit ConstantOracle(double m) : m_(m) {}
  void MultiplicityBatch(const double* const*, size_t, size_t num_rows,
                         double* out) const override {
    std::fill(out, out + num_rows, m_);
  }
  bool exact() const override { return true; }
  std::string Describe() const override { return "Constant"; }

 private:
  double m_;
};

/// Multiplicity = the join value itself (distinguishes rows).
class IdentityOracle : public MultiplicityOracle {
 public:
  void MultiplicityBatch(const double* const* columns, size_t,
                         size_t num_rows, double* out) const override {
    std::copy(columns[0], columns[0] + num_rows, out);
  }
  bool exact() const override { return true; }
  std::string Describe() const override { return "Identity"; }
};

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).value();
}

Catalog MakeCatalog() {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("y", ValueType::kInt64);
  schema.AddColumn("a", ValueType::kInt64);
  schema.AddColumn("b", ValueType::kInt64);
  Table* s = catalog.CreateTable("S", schema).ValueOrDie();
  for (int i = 1; i <= 100; ++i) {
    SITSTATS_CHECK_OK(s->AppendRow({Value(int64_t{i % 5}),
                                    Value(int64_t{i}),
                                    Value(int64_t{i % 10})}));
  }
  return catalog;
}

TEST(SweepScanTest, ValidatesInput) {
  Catalog catalog = MakeCatalog();
  Rng rng(1);
  SweepScanSpec spec;
  spec.table = "S";
  EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
            StatusCode::kInvalidArgument);  // no targets
  ConstantOracle oracle(1.0);
  spec.joins.push_back(SweepJoin{{"y"}, nullptr});
  spec.targets.push_back(SweepTarget{"a", {0}, false});
  EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
            StatusCode::kInvalidArgument);  // null oracle
  spec.joins[0].oracle = &oracle;
  spec.targets[0].join_indices = {5};
  EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
            StatusCode::kInvalidArgument);  // join index out of range
  spec.targets[0].join_indices = {0};
  spec.use_sampling = true;
  for (double rate : {-0.5, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    spec.sampling_rate = rate;
    EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
              StatusCode::kInvalidArgument)
        << "rate " << rate;  // capacity would be ceil(rows * rate)
  }
}

/// Two targets over one attribute and join: a histogram target, then an
/// exact-map target.
std::vector<SweepTarget> HistogramAndExactMapTargets(
    const std::string& attribute) {
  SweepTarget histogram_target;
  histogram_target.attribute = attribute;
  histogram_target.join_indices = {0};
  SweepTarget map_target = histogram_target;
  map_target.build_exact_map = true;
  return {histogram_target, map_target};
}

TEST(SweepScanTest, FullPathIsExactForIntegerMultiplicities) {
  Catalog catalog = MakeCatalog();
  Rng rng(2);
  IdentityOracle oracle;  // multiplicity == y in {0..4}
  SweepScanSpec spec;
  spec.table = "S";
  spec.use_sampling = false;
  spec.joins.push_back(SweepJoin{{"y"}, &oracle});
  spec.targets = HistogramAndExactMapTargets("a");
  auto outputs = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
  ASSERT_EQ(outputs.size(), 2u);
  // Stream weight: sum over rows of (i % 5) = 20 * (0+1+2+3+4) = 200.
  EXPECT_DOUBLE_EQ(outputs[0].estimated_cardinality, 200.0);
  EXPECT_DOUBLE_EQ(outputs[0].histogram.TotalFrequency(), 200.0);
  EXPECT_DOUBLE_EQ(outputs[1].estimated_cardinality, 200.0);
  // Rows with y == 0 contribute nothing; exact map contains the others.
  EXPECT_EQ(outputs[1].exact_map.size(), 80u);
  // Row i contributes weight i%5 at value a=i.
  const ExactMOracle exact_map(outputs[1].exact_map);
  EXPECT_DOUBLE_EQ(exact_map.Multiplicity(1.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_map.Multiplicity(4.0), 4.0);
  EXPECT_EQ(exact_map.Multiplicity(5.0), 0.0);  // y = 0
}

/// T(m, v): both columns double; row (m, v) joins with multiplicity m
/// under IdentityOracle and carries attribute value v.
Catalog MakeWeightedCatalog(
    const std::vector<std::pair<double, double>>& rows) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("m", ValueType::kDouble);
  schema.AddColumn("v", ValueType::kDouble);
  Table* t = catalog.CreateTable("T", schema).ValueOrDie();
  for (const auto& [m, v] : rows) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(m), Value(v)}));
  }
  return catalog;
}

TEST(SweepScanTest, FullPathHistogramAgreesWithItsExactMap) {
  // A full-path histogram target and an exact-map target over a
  // non-integral attribute (the table's hash layout). Key 0.5 gets
  // weights 0.3, 0.2, 0.1 in row order, which sum to 0.6 in that order
  // and to 0.6000000000000001 in ascending order; -0.0 and +0.0 are one
  // key.
  Catalog catalog = MakeWeightedCatalog({{0.3, 0.5},
                                         {0.03, -0.0},
                                         {0.2, 0.5},
                                         {0.06, 0.0},
                                         {0.1, 0.5},
                                         {0.05, 1.25},
                                         {0.1, 2.75},
                                         {0.1, 1.25},
                                         {0.2, 2.75},
                                         {0.3, 3.1},
                                         {0.0, 9.5},
                                         {0.9, 4.4}});
  IdentityOracle oracle;
  Rng rng(9);
  SweepScanSpec spec;
  spec.table = "T";
  spec.use_sampling = false;
  spec.histogram_spec.num_buckets = 3;
  spec.joins.push_back(SweepJoin{{"m"}, &oracle});
  spec.targets = HistogramAndExactMapTargets("v");
  auto outputs = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
  ASSERT_EQ(outputs.size(), 2u);
  const Histogram& histogram = outputs[0].histogram;
  const WeightTable& exact_map = outputs[1].exact_map;
  EXPECT_FALSE(exact_map.dense());

  std::vector<std::pair<double, double>> entries = exact_map.Entries();
  std::sort(entries.begin(), entries.end());
  ASSERT_EQ(entries.size(), 6u);  // 9.5's row has multiplicity 0
  EXPECT_EQ(entries[0], std::make_pair(0.0, 0.03 + 0.06));
  EXPECT_EQ(entries[1], std::make_pair(0.5, (0.3 + 0.2) + 0.1));
  EXPECT_EQ(histogram.TotalDistinct(), static_cast<double>(exact_map.size()));
  size_t next = 0;
  for (const Bucket& bucket : histogram.buckets()) {
    double frequency = 0.0;
    double distinct = 0.0;
    for (; next < entries.size() && entries[next].first <= bucket.hi;
         ++next) {
      EXPECT_GE(entries[next].first, bucket.lo);
      frequency += entries[next].second;
      distinct += 1.0;
    }
    EXPECT_EQ(bucket.frequency, frequency) << bucket.ToString();
    EXPECT_EQ(bucket.distinct_values, distinct) << bucket.ToString();
  }
  EXPECT_EQ(next, entries.size());
}

TEST(SweepScanTest, ExactMapTargetDrawsNothingAndBuildsNoHistogram) {
  // On the sampling path, an exact-map target's stream (100 rows x 2.5
  // copies) far exceeds the reservoir's capacity of 10, and every row's
  // fractional multiplicity would cost a rounding draw. The target keeps
  // only its map, so its random stream is untouched.
  Catalog catalog = MakeCatalog();
  ConstantOracle oracle(2.5);
  Rng own(11);
  SweepScanSpec spec;
  spec.table = "S";
  spec.use_sampling = true;
  spec.sampling_rate = 0.1;
  spec.min_sample_size = 10;
  spec.joins.push_back(SweepJoin{{"y"}, &oracle});
  SweepTarget target;
  target.attribute = "a";
  target.join_indices = {0};
  target.build_exact_map = true;
  target.rng = &own;
  spec.targets.push_back(target);
  auto outputs = SweepScanTable(&catalog, spec, nullptr).ValueOrDie();
  ASSERT_EQ(outputs.size(), 1u);

  Rng fresh(11);
  EXPECT_EQ(own.NextUint64(), fresh.NextUint64());
  EXPECT_TRUE(outputs[0].histogram.empty());
  EXPECT_DOUBLE_EQ(outputs[0].estimated_cardinality, 250.0);
  EXPECT_EQ(outputs[0].exact_map.size(), 100u);  // a = 1..100
  const ExactMOracle exact_map(outputs[0].exact_map);
  EXPECT_DOUBLE_EQ(exact_map.Multiplicity(1.0), 2.5);
  EXPECT_DOUBLE_EQ(exact_map.Multiplicity(100.0), 2.5);
  EXPECT_EQ(exact_map.Multiplicity(101.0), 0.0);
}

TEST(SweepScanTest, FullPathRejectsNonFiniteAttributeValues) {
  // A row of positive multiplicity whose attribute is infinite has no
  // place in a histogram, on either path. A NaN attribute joins nothing:
  // every target skips its row, accumulating and counting none of its
  // weight, and reports it in nan_rows (AdvanceSweepBuilds fails a root
  // step that skipped one). A row that joins nothing is never looked at.
  IdentityOracle oracle;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {nan, std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    for (bool use_sampling : {false, true}) {
      for (double m : {1.0, 0.0}) {
        Catalog catalog =
            MakeWeightedCatalog({{1.0, 1.5}, {m, bad}, {2.0, 2.5}});
        Rng rng(10);
        Rng map_rng(11);
        SweepScanSpec spec;
        spec.table = "T";
        spec.use_sampling = use_sampling;
        spec.min_sample_size = 1'000;  // keep every row
        spec.joins.push_back(SweepJoin{{"m"}, &oracle});
        spec.targets.push_back(SweepTarget{"v", {0}, false});
        spec.targets.push_back(SweepTarget{"v", {0}, true, &map_rng});
        Result<std::vector<SweepOutput>> outputs =
            SweepScanTable(&catalog, spec, &rng);
        const std::string label = std::to_string(bad) + " m=" +
                                  std::to_string(m) + " sampling=" +
                                  std::to_string(use_sampling);
        if (m == 0.0 || std::isnan(bad)) {
          ASSERT_TRUE(outputs.ok()) << label << ": "
                                    << outputs.status().ToString();
          const uint64_t skipped = m == 0.0 ? 0 : 1;
          for (const SweepOutput& output : *outputs) {
            EXPECT_EQ(output.nan_rows, skipped) << label;
            EXPECT_DOUBLE_EQ(output.estimated_cardinality, 3.0) << label;
          }
          EXPECT_EQ(outputs->front().histogram.TotalDistinct(), 2.0) << label;
          EXPECT_EQ(outputs->back().exact_map.size(), 2u) << label;
          continue;
        }
        ASSERT_EQ(outputs.status().code(), StatusCode::kInvalidArgument)
            << label;
        EXPECT_EQ(outputs.status().message(),
                  "histogram input has a value that is not finite: " +
                      std::to_string(bad))
            << label;
      }
    }
  }
}

TEST(SweepScanTest, SamplingPathScalesToStreamWeight) {
  Catalog catalog = MakeCatalog();
  Rng rng(3);
  ConstantOracle oracle(7.0);
  SweepScanSpec spec;
  spec.table = "S";
  spec.use_sampling = true;
  spec.sampling_rate = 0.5;
  spec.min_sample_size = 10;
  spec.joins.push_back(SweepJoin{{"y"}, &oracle});
  spec.targets.push_back(SweepTarget{"a", {0}, false});
  auto outputs = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
  EXPECT_DOUBLE_EQ(outputs[0].estimated_cardinality, 700.0);
  EXPECT_NEAR(outputs[0].histogram.TotalFrequency(), 700.0, 1e-6);
}

TEST(SweepScanTest, SampledTargetTakesOneDrawPerScanAndCountsMergedSlots) {
  // A sampled target takes its draw key from one NextUint64 of its stream
  // at scan start, whatever the stream's length; every rounding and merge
  // draw is keyed from it, so the same key rebuilds the same sample. The
  // scan books the slots its merges refilled into sampling.slots_merged:
  // none while the stream fits in the reservoir.
  Catalog catalog = MakeCatalog();
  ConstantOracle oracle(2.5);
  for (size_t min_sample : {size_t{10}, size_t{1'000}}) {
    SweepScanSpec spec;
    spec.table = "S";
    spec.use_sampling = true;
    spec.sampling_rate = 0.0;
    spec.min_sample_size = min_sample;
    spec.joins.push_back(SweepJoin{{"y"}, &oracle});
    spec.targets.push_back(SweepTarget{"a", {0}, false});
    Rng rng(11);
    const uint64_t merged_before = CounterValue("sampling.slots_merged");
    auto first = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
    const uint64_t merged = CounterValue("sampling.slots_merged") -
                            merged_before;
    Rng control(11);
    control.NextUint64();
    EXPECT_EQ(rng.NextUint64(), control.NextUint64());
    Rng again(11);
    auto second = SweepScanTable(&catalog, spec, &again).ValueOrDie();
    EXPECT_EQ(first[0].histogram.ToString(), second[0].histogram.ToString());
    EXPECT_DOUBLE_EQ(first[0].estimated_cardinality, 250.0);
    if (min_sample == 10) {
      // 100 rows of 2 or 3 copies: the first 10 fill, and the merge
      // refills between 1 and 10 slots.
      EXPECT_GE(merged, 1u);
      EXPECT_LE(merged, 10u);
    } else {
      EXPECT_EQ(merged, 0u);
      EXPECT_NEAR(first[0].histogram.TotalFrequency(), 250.0, 1e-6);
    }
  }
}

TEST(SweepScanTest, SharedScanProducesIndependentTargets) {
  Catalog catalog = MakeCatalog();
  Rng rng(4);
  ConstantOracle m1(1.0);
  ConstantOracle m3(3.0);
  SweepScanSpec spec;
  spec.table = "S";
  spec.use_sampling = false;
  spec.joins.push_back(SweepJoin{{"y"}, &m1});
  spec.joins.push_back(SweepJoin{{"b"}, &m3});
  SweepTarget t1;
  t1.attribute = "a";
  t1.join_indices = {0};
  SweepTarget t2;
  t2.attribute = "b";
  t2.join_indices = {1};
  spec.targets = {t1, t2};
  const uint64_t scans_before = CounterValue("storage.sequential_scans");
  const uint64_t rows_before = CounterValue("storage.rows_scanned");
  auto outputs = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(outputs[0].estimated_cardinality, 100.0);
  EXPECT_DOUBLE_EQ(outputs[1].estimated_cardinality, 300.0);
  // One shared scan only, which each target reports as its own.
  EXPECT_EQ(CounterValue("storage.sequential_scans") - scans_before, 1u);
  EXPECT_EQ(CounterValue("storage.rows_scanned") - rows_before, 100u);
  for (const SweepOutput& output : outputs) {
    EXPECT_EQ(output.io_stats.sequential_scans, 1u);
    EXPECT_EQ(output.io_stats.rows_scanned, 100u);
  }
}

TEST(SweepScanTest, SamplingTargetsMustNotShareAStream) {
  // Two sampling targets drawing from one stream would make each target's
  // sample depend on the other's rows; the scan refuses instead.
  Catalog catalog = MakeCatalog();
  Rng rng(4);
  Rng own(5);
  ConstantOracle m1(1.0);
  SweepScanSpec spec;
  spec.table = "S";
  spec.use_sampling = true;
  spec.joins.push_back(SweepJoin{{"y"}, &m1});
  spec.targets = {SweepTarget{"a", {0}, false}, SweepTarget{"b", {0}, false}};
  // Both fall back to the scan-level stream.
  EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
            StatusCode::kInvalidArgument);
  // One falls back, the other names the same stream explicitly.
  spec.targets[1].rng = &rng;
  EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
            StatusCode::kInvalidArgument);
  // Both name the same private stream.
  spec.targets[0].rng = &own;
  spec.targets[1].rng = &own;
  const uint64_t scans_before = CounterValue("storage.sequential_scans");
  EXPECT_EQ(SweepScanTable(&catalog, spec, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  // Rejected before the scan opens.
  EXPECT_EQ(CounterValue("storage.sequential_scans"), scans_before);
  // Distinct streams: fine.
  spec.targets[1].rng = &rng;
  auto outputs = SweepScanTable(&catalog, spec, nullptr).ValueOrDie();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(outputs[0].estimated_cardinality, 100.0);
  EXPECT_DOUBLE_EQ(outputs[1].estimated_cardinality, 100.0);
}

TEST(SweepScanTest, MultiJoinMultiplicitiesMultiply) {
  Catalog catalog = MakeCatalog();
  Rng rng(5);
  ConstantOracle m2(2.0);
  ConstantOracle m5(5.0);
  SweepScanSpec spec;
  spec.table = "S";
  spec.use_sampling = false;
  spec.joins.push_back(SweepJoin{{"y"}, &m2});
  spec.joins.push_back(SweepJoin{{"b"}, &m5});
  SweepTarget target;
  target.attribute = "a";
  target.join_indices = {0, 1};
  spec.targets.push_back(target);
  auto outputs = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
  EXPECT_DOUBLE_EQ(outputs[0].estimated_cardinality, 1000.0);  // 100*2*5
}

TEST(SweepScanTest, FractionalMultiplicityIsUnbiasedUnderSampling) {
  // Constant multiplicity 0.5 with sampling: randomized rounding must give
  // a stream of about half the rows.
  Catalog catalog = MakeCatalog();
  Rng rng(6);
  ConstantOracle half(0.5);
  double total_sampled = 0.0;
  const int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    SweepScanSpec spec;
    spec.table = "S";
    spec.use_sampling = true;
    spec.min_sample_size = 1'000;  // keep everything
    spec.joins.push_back(SweepJoin{{"y"}, &half});
    spec.targets.push_back(SweepTarget{"a", {0}, false});
    auto outputs = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
    // estimated_cardinality is the fractional sum: exactly 50.
    EXPECT_DOUBLE_EQ(outputs[0].estimated_cardinality, 50.0);
    total_sampled += outputs[0].histogram.TotalDistinct();
  }
  // About half the 100 distinct `a` values survive rounding on average.
  EXPECT_NEAR(total_sampled / kTrials, 50.0, 5.0);
}

TEST(SweepScanTest, EachTargetCountsItsOwnLookupsByKind) {
  // Two targets over one 100-row scan: one through an approximating
  // (histogram) join, one through an exact (index) join. Each reports the
  // shared scan plus rows x its own joins, booked under the oracle's kind,
  // and the registry receives the scan's tally once.
  Catalog catalog = MakeCatalog();
  {
    Schema schema;
    schema.AddColumn("x", ValueType::kInt64);
    Table* r = catalog.CreateTable("R", schema).ValueOrDie();
    for (int64_t v : {0, 1, 1, 2, 3, 3, 3}) {
      SITSTATS_CHECK_OK(r->AppendRow({Value(v)}));
    }
  }
  ExactMOracle exact(catalog.EnsureIndex("R", "x").ValueOrDie(), "R.x");
  HistogramMOracle approximate(Histogram({Bucket{0, 4, 7, 4}}),
                               Histogram({Bucket{0, 4, 100, 5}}));
  Rng rng(8);
  SweepScanSpec spec;
  spec.table = "S";
  spec.use_sampling = false;
  spec.joins.push_back(SweepJoin{{"y"}, &approximate});
  spec.joins.push_back(SweepJoin{{"y"}, &exact});
  SweepTarget by_histogram;
  by_histogram.attribute = "a";
  by_histogram.join_indices = {0};
  SweepTarget by_index;
  by_index.attribute = "b";
  by_index.join_indices = {1};
  spec.targets = {by_histogram, by_index};

  const char* const kCounters[] = {
      "storage.sequential_scans", "storage.rows_scanned",
      "storage.histogram_lookups", "storage.index_lookups",
      "sit.moracle_calls"};
  std::vector<uint64_t> before;
  for (const char* name : kCounters) before.push_back(CounterValue(name));
  auto outputs = SweepScanTable(&catalog, spec, &rng).ValueOrDie();
  ASSERT_EQ(outputs.size(), 2u);

  const IoStats& hist_share = outputs[0].io_stats;
  const IoStats& index_share = outputs[1].io_stats;
  EXPECT_EQ(hist_share.sequential_scans, 1u);
  EXPECT_EQ(hist_share.rows_scanned, 100u);
  EXPECT_EQ(hist_share.histogram_lookups, 100u);
  EXPECT_EQ(hist_share.index_lookups, 0u);
  EXPECT_EQ(index_share.sequential_scans, 1u);
  EXPECT_EQ(index_share.rows_scanned, 100u);
  EXPECT_EQ(index_share.histogram_lookups, 0u);
  EXPECT_EQ(index_share.index_lookups, 100u);

  std::vector<uint64_t> delta;
  for (size_t i = 0; i < std::size(kCounters); ++i) {
    delta.push_back(CounterValue(kCounters[i]) - before[i]);
  }
  EXPECT_EQ(delta[0], 1u);  // one scan for both targets
  EXPECT_EQ(delta[1], 100u);
  EXPECT_EQ(delta[2], hist_share.histogram_lookups);
  EXPECT_EQ(delta[3], index_share.index_lookups);
  EXPECT_EQ(delta[4],
            hist_share.histogram_lookups + index_share.index_lookups);
}

TEST(SweepScanTest, UnknownTableOrColumn) {
  Catalog catalog = MakeCatalog();
  Rng rng(7);
  ConstantOracle oracle(1.0);
  SweepScanSpec spec;
  spec.table = "Z";
  spec.joins.push_back(SweepJoin{{"y"}, &oracle});
  spec.targets.push_back(SweepTarget{"a", {0}, false});
  EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
            StatusCode::kNotFound);
  spec.table = "S";
  spec.targets[0].attribute = "zz";
  EXPECT_EQ(SweepScanTable(&catalog, spec, &rng).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace sitstats
