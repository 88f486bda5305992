#include "sit/base_stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "histogram/builder.h"
#include "telemetry/trace.h"

namespace sitstats {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Table T of 5000 rows:
///  - i: int64 keys in [1, 400] (the index's dense layout);
///  - d: doubles spread over ~1e12 with few repeats (the hash layout);
///  - z: -0.0, +0.0, NaN, small integers and halves (hash layout);
///  - w: -0.0, +0.0, NaN and small integers (dense layout);
///  - s: strings.
void MakeTable(Catalog* catalog) {
  Schema schema;
  schema.AddColumn("i", ValueType::kInt64);
  schema.AddColumn("d", ValueType::kDouble);
  schema.AddColumn("z", ValueType::kDouble);
  schema.AddColumn("w", ValueType::kDouble);
  schema.AddColumn("s", ValueType::kString);
  Table* table = catalog->CreateTable("T", schema).ValueOrDie();
  Rng rng(31);
  const double halves[] = {-0.0, 0.0, kNaN, 1.0, -2.5, 0.5};
  const double integers[] = {-0.0, 0.0, kNaN, 1.0, -3.0};
  for (int row = 0; row < 5'000; ++row) {
    const double sparse =
        static_cast<double>(rng.UniformInt(0, 2'000)) * 7.3e8 + 0.25;
    SITSTATS_CHECK_OK(table->AppendRow(
        {Value(rng.UniformInt(1, 400)), Value(sparse),
         Value(halves[rng.UniformInt(0, 5)]),
         Value(integers[rng.UniformInt(0, 4)]),
         Value(std::string(row % 2 == 0 ? "a" : "b"))}));
  }
}

/// BuildHistogram over every non-NaN value of T.column.
Histogram FullColumnBuild(const Catalog& catalog, const std::string& column,
                          const HistogramSpec& spec) {
  const Column* col =
      catalog.GetTable("T").ValueOrDie()->GetColumn(column).ValueOrDie();
  std::vector<double> values = col->ToNumericVector();
  std::erase_if(values, [](double v) { return std::isnan(v); });
  return BuildHistogram(std::move(values), spec).ValueOrDie();
}

/// Bit-for-bit bucket equality: -0.0 and +0.0 differ here.
void ExpectSameBuckets(const Histogram& got, const Histogram& want) {
  ASSERT_EQ(got.num_buckets(), want.num_buckets());
  for (size_t b = 0; b < got.num_buckets(); ++b) {
    const Bucket& g = got.buckets()[b];
    const Bucket& w = want.buckets()[b];
    EXPECT_EQ(std::bit_cast<uint64_t>(g.lo), std::bit_cast<uint64_t>(w.lo));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.hi), std::bit_cast<uint64_t>(w.hi));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.frequency),
              std::bit_cast<uint64_t>(w.frequency));
    EXPECT_EQ(std::bit_cast<uint64_t>(g.distinct_values),
              std::bit_cast<uint64_t>(w.distinct_values));
  }
}

TEST(BaseStatsTest, MatchesAFullColumnBuild) {
  Catalog catalog;
  MakeTable(&catalog);
  for (int buckets : {7, 100}) {
    HistogramSpec spec;
    spec.num_buckets = buckets;
    BaseStatsCache stats(spec);
    for (const char* column : {"i", "d", "z", "w"}) {
      SCOPED_TRACE(std::string(column) + " at " + std::to_string(buckets));
      Result<const Histogram*> got =
          stats.GetOrBuild(catalog, "T", column, nullptr);
      ASSERT_TRUE(got.ok()) << got.status();
      ExpectSameBuckets(**got, FullColumnBuild(catalog, column, spec));
    }
  }
  // The columns cover both index layouts.
  EXPECT_TRUE(catalog.EnsureIndex("T", "i").ValueOrDie()->dense());
  EXPECT_FALSE(catalog.EnsureIndex("T", "d").ValueOrDie()->dense());
  EXPECT_FALSE(catalog.EnsureIndex("T", "z").ValueOrDie()->dense());
  EXPECT_TRUE(catalog.EnsureIndex("T", "w").ValueOrDie()->dense());
}

TEST(BaseStatsTest, RejectsInfiniteAndStringColumns) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("pos", ValueType::kDouble);
  schema.AddColumn("neg", ValueType::kDouble);
  Table* table = catalog.CreateTable("U", schema).ValueOrDie();
  for (double v : {1.0, 2.0, 3.0}) {
    SITSTATS_CHECK_OK(table->AppendRow({Value(v), Value(-v)}));
  }
  SITSTATS_CHECK_OK(table->AppendRow({Value(kInf), Value(-kInf)}));
  MakeTable(&catalog);
  BaseStatsCache stats;
  for (const auto& [name, column] :
       {std::pair{"U", "pos"}, std::pair{"U", "neg"}, std::pair{"T", "s"}}) {
    Result<const Histogram*> got =
        stats.GetOrBuild(catalog, name, column, nullptr);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
        << name << "." << column << ": " << got.status();
  }
  EXPECT_EQ(stats.size(), 0u);
}

TEST(BaseStatsTest, SharesTheCatalogIndex) {
  Catalog catalog;
  MakeTable(&catalog);
  BaseStatsCache stats;
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  auto index_builds = [&] {
    int builds = 0;
    for (const telemetry::TraceEvent& event : tracer.Snapshot()) {
      builds += event.name == "storage.build_index";
    }
    return builds;
  };
  tracer.Clear();
  tracer.SetEnabled(true);
  ASSERT_TRUE(stats.GetOrBuild(catalog, "T", "i", nullptr).ok());
  const int by_base_stats = index_builds();
  tracer.Clear();
  ASSERT_TRUE(catalog.EnsureIndex("T", "i").ok());
  const int by_ensure_index = index_builds();
  tracer.SetEnabled(false);
  tracer.Clear();
  EXPECT_EQ(by_base_stats, 1);
  EXPECT_EQ(by_ensure_index, 0);
}

TEST(BaseStatsTest, ConcurrentFirstUsesShareOneHistogram) {
  Catalog catalog;
  MakeTable(&catalog);
  BaseStatsCache stats;
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<Result<const Histogram*>> seen(kThreads,
                                             Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Every thread makes its first call at once.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      seen[i] = stats.GetOrBuild(catalog, "T", "d", nullptr);
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(seen[0].ok()) << seen[0].status();
  for (const Result<const Histogram*>& histogram : seen) {
    ASSERT_TRUE(histogram.ok()) << histogram.status();
    EXPECT_EQ(*histogram, *seen[0]);
  }
  EXPECT_EQ(stats.size(), 1u);
  ExpectSameBuckets(**seen[0], FullColumnBuild(catalog, "d", {}));
}

}  // namespace
}  // namespace sitstats
