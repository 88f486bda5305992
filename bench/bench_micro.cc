// Microbenchmarks (google-benchmark) for the performance-critical
// primitives: histogram construction and its sort, reservoir batch merges
// (including runs of 10^6 copies), the m-Oracle kernels, join-cardinality
// estimation, key counting in sorted and shuffled row order, one sweep scan
// per accumulator and one full Sweep build, the schedule solvers, and the
// colfile checksum every load verifies.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "datagen/distributions.h"
#include "datagen/synthetic_db.h"
#include "histogram/builder.h"
#include "histogram/join_estimate.h"
#include "sampling/reservoir.h"
#include "scheduler/instance_generator.h"
#include "scheduler/solver.h"
#include "sit/m_oracle.h"
#include "sit/creator.h"
#include "sit/sweep_scan.h"
#include "storage/catalog.h"
#include "storage/column_file.h"
#include "storage/scan.h"
#include "telemetry/telemetry.h"

namespace sitstats {
namespace {

std::vector<double> ZipfValues(size_t n, double z, uint64_t domain,
                               uint64_t seed = 7) {
  Rng rng(seed);
  ZipfDistribution dist(domain, z);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(static_cast<double>(dist.Sample(&rng)));
  }
  return values;
}

void BM_BuildMaxDiff(benchmark::State& state) {
  std::vector<double> values =
      ZipfValues(static_cast<size_t>(state.range(0)), 1.0, 10'000);
  HistogramSpec spec;
  for (auto _ : state) {
    auto h = BuildHistogram(values, spec);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildMaxDiff)->Arg(10'000)->Arg(100'000);

// The sort inside every histogram build, on BM_BuildMaxDiff's 100k Zipf
// input: the RadixSort that ToValueCounts runs against a std::sort of the
// same doubles. Both copy the input each iteration; CI fails if the radix
// case takes more than half the reference's time.
void BM_SortZipfRadix(benchmark::State& state) {
  const std::vector<double> values = ZipfValues(100'000, 1.0, 10'000);
  for (auto _ : state) {
    std::vector<double> sorted = values;
    RadixSort(&sorted);
    benchmark::DoNotOptimize(sorted.data());
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_SortZipfRadix);

void BM_SortZipfStdSort(benchmark::State& state) {
  const std::vector<double> values = ZipfValues(100'000, 1.0, 10'000);
  for (auto _ : state) {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    benchmark::DoNotOptimize(sorted.data());
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_SortZipfStdSort);

void BM_BuildEquiDepth(benchmark::State& state) {
  std::vector<double> values =
      ZipfValues(static_cast<size_t>(state.range(0)), 1.0, 10'000);
  HistogramSpec spec;
  spec.type = HistogramType::kEquiDepth;
  for (auto _ : state) {
    auto h = BuildHistogram(values, spec);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildEquiDepth)->Arg(100'000);

// The reservoir takes its stream a batch at a time (one hypergeometric
// draw per batch, then K evictions and K position draws). Each case merges
// 100k rows into a 2k-slot reservoir in scan-sized batches of
// kScanBatchRows rows; items are rows.
void MergeInScanBatches(const std::vector<double>& values,
                        const std::vector<uint64_t>& copies,
                        benchmark::State& state) {
  uint64_t key = 3;
  for (auto _ : state) {
    ReservoirSampler sampler(2'000, key++);
    for (size_t begin = 0; begin < values.size(); begin += kScanBatchRows) {
      const size_t rows = std::min(kScanBatchRows, values.size() - begin);
      sampler.MergeBatch(std::span(values).subspan(begin, rows),
                         std::span(copies).subspan(begin, rows));
    }
    benchmark::DoNotOptimize(sampler.sample().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}

std::vector<double> RowIds(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  return values;
}

void BM_ReservoirMergeUnitCopies(benchmark::State& state) {
  MergeInScanBatches(RowIds(100'000), std::vector<uint64_t>(100'000, 1),
                     state);
}
BENCHMARK(BM_ReservoirMergeUnitCopies);

void BM_ReservoirMergeShortRuns(benchmark::State& state) {
  // The Sweep loop's common case: 1-64 copies per scanned row.
  Rng lengths_rng(5);
  std::vector<uint64_t> copies(100'000);
  for (uint64_t& len : copies) {
    len = static_cast<uint64_t>(lengths_rng.UniformInt(1, 64));
  }
  MergeInScanBatches(RowIds(copies.size()), copies, state);
}
BENCHMARK(BM_ReservoirMergeShortRuns);

void BM_ReservoirMergeHugeRuns(benchmark::State& state) {
  // 10^6 copies per row: 10^11 logical elements per iteration.
  MergeInScanBatches(RowIds(100'000),
                     std::vector<uint64_t>(100'000, 1'000'000), state);
}
BENCHMARK(BM_ReservoirMergeHugeRuns);

// One SweepScanTable over a 100k-row table and its join to a 100k-row
// child through the histogram m-Oracle, with one target: sampled (rounding
// and one reservoir merge per batch) or on the full path (one WeightTable
// add per row). Same scan, same join, same multiplicities, so the ratio is
// the sampling layer's cost over the accumulator it replaces; CI fails if
// the sampled median exceeds a bar times the full-path one.
void RunSweepTarget(benchmark::State& state, bool use_sampling) {
  ChainDbSpec db_spec;
  db_spec.num_tables = 2;
  db_spec.table_rows = {100'000, 100'000};
  db_spec.join_domain = 10'000;
  ChainDatabase db = MakeChainJoinDatabase(db_spec).ValueOrDie();
  BaseStatsCache stats;
  const Histogram& child =
      *stats.GetOrBuild(*db.catalog, "R1", "jn", nullptr).ValueOrDie();
  const Histogram& scanned =
      *stats.GetOrBuild(*db.catalog, "R2", "jp", nullptr).ValueOrDie();
  HistogramMOracle oracle(child, scanned);
  SweepScanSpec spec;
  spec.table = "R2";
  spec.use_sampling = use_sampling;
  spec.joins.push_back(SweepJoin{{"jp"}, &oracle});
  spec.targets.push_back(SweepTarget{"a", {0}, false});
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto outputs = SweepScanTable(db.catalog.get(), spec, &rng).ValueOrDie();
    benchmark::DoNotOptimize(outputs);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}

void BM_SweepTargetSampled(benchmark::State& state) {
  RunSweepTarget(state, true);
}
BENCHMARK(BM_SweepTargetSampled);

void BM_SweepTargetFullPath(benchmark::State& state) {
  RunSweepTarget(state, false);
}
BENCHMARK(BM_SweepTargetFullPath);

// The m-Oracle kernels on Zipf(1) join values, 100k rows over a 10k
// domain: R's column builds the oracle and 100k probes from a second Zipf
// draw run through MultiplicityBatch in scan-sized batches. Items are
// probes. BM_IndexEqualRange is the search the Index kernel replaced
// (std::equal_range over R's sorted keys per probe); CI fails if the Index
// kernel's median exceeds a quarter of it.
struct OracleBenchData {
  std::vector<double> r = ZipfValues(100'000, 1.0, 10'000, 7);
  std::vector<double> probes = ZipfValues(100'000, 1.0, 10'000, 8);
};

const OracleBenchData& BenchData() {
  static const OracleBenchData data;
  return data;
}

void RunOracleBatches(benchmark::State& state,
                      const MultiplicityOracle& oracle) {
  const std::vector<double>& probes = BenchData().probes;
  std::vector<double> out(kScanBatchRows);
  for (auto _ : state) {
    for (size_t begin = 0; begin < probes.size(); begin += kScanBatchRows) {
      const double* column = probes.data() + begin;
      oracle.MultiplicityBatch(&column, 1,
                               std::min(kScanBatchRows, probes.size() - begin),
                               out.data());
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}

void BM_MOracleBatchHistogram(benchmark::State& state) {
  HistogramSpec spec;
  HistogramMOracle oracle(BuildHistogram(BenchData().r, spec).ValueOrDie(),
                          BuildHistogram(BenchData().probes, spec)
                              .ValueOrDie());
  RunOracleBatches(state, oracle);
}
BENCHMARK(BM_MOracleBatchHistogram);

void BM_MOracleBatchIndex(benchmark::State& state) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("x", ValueType::kDouble);
  Table* table = catalog.CreateTable("R", schema).ValueOrDie();
  for (double v : BenchData().r) {
    SITSTATS_CHECK_OK(table->AppendRow({Value(v)}));
  }
  ExactMOracle oracle(catalog.EnsureIndex("R", "x").ValueOrDie(), "R.x");
  RunOracleBatches(state, oracle);
}
BENCHMARK(BM_MOracleBatchIndex);

void BM_IndexEqualRange(benchmark::State& state) {
  std::vector<double> keys = BenchData().r;
  std::sort(keys.begin(), keys.end());
  const std::vector<double>& probes = BenchData().probes;
  std::vector<double> out(probes.size());
  for (auto _ : state) {
    for (size_t i = 0; i < probes.size(); ++i) {
      auto range = std::equal_range(keys.begin(), keys.end(), probes[i]);
      out[i] = static_cast<double>(range.second - range.first);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_IndexEqualRange);

void BM_MOracleBatchExactMap(benchmark::State& state) {
  WeightTable multiplicities;
  for (double v : BenchData().r) multiplicities.Add(v, 1.0);
  ExactMOracle oracle(std::move(multiplicities));
  RunOracleBatches(state, oracle);
}
BENCHMARK(BM_MOracleBatchExactMap);

// CountKeys over one int64 column: 100k rows over 80k distinct integers
// spanning 0..99998, in key order or shuffled. The count table's layout is
// a function of the column's keys, so the two should cost about the same;
// CI fails if the shuffled median exceeds a bar times the sorted one.
Table CountKeysTable(bool shuffled) {
  std::vector<int64_t> keys;
  for (int64_t j = 0; j < 80'000; ++j) keys.push_back(j * 5 / 4);
  for (int64_t j = 0; j < 20'000; ++j) keys.push_back(j * 5);
  std::sort(keys.begin(), keys.end());
  if (shuffled) {
    Rng rng(33);
    for (size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.NextUint64() % (i + 1)]);
    }
  }
  Schema schema;
  schema.AddColumn("k", ValueType::kInt64);
  Table table("T", schema);
  for (int64_t k : keys) SITSTATS_CHECK_OK(table.AppendRow({Value(k)}));
  return table;
}

void RunCountKeys(benchmark::State& state, bool shuffled) {
  const Table table = CountKeysTable(shuffled);
  for (auto _ : state) {
    WeightTable counts = CountKeys(table, {"k"}).ValueOrDie();
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table.num_rows()));
}

void BM_CountKeysSorted(benchmark::State& state) {
  RunCountKeys(state, false);
}
BENCHMARK(BM_CountKeysSorted);

void BM_CountKeysShuffled(benchmark::State& state) {
  RunCountKeys(state, true);
}
BENCHMARK(BM_CountKeysShuffled);

void BM_EstimateJoinCardinality(benchmark::State& state) {
  HistogramSpec spec;
  Histogram a =
      BuildHistogram(ZipfValues(100'000, 1.0, 10'000), spec).ValueOrDie();
  Histogram b =
      BuildHistogram(ZipfValues(100'000, 0.5, 10'000), spec).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateJoinCardinality(a, b));
  }
}
BENCHMARK(BM_EstimateJoinCardinality);

void BM_SweepSingleJoin(benchmark::State& state) {
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {static_cast<size_t>(state.range(0)),
                     static_cast<size_t>(state.range(0))};
  spec.join_domain = 1'000;
  ChainDatabase db = MakeChainJoinDatabase(spec).ValueOrDie();
  BaseStatsCache stats;
  SitDescriptor desc(db.sit_attribute, db.query);
  for (auto _ : state) {
    SitBuildOptions options;
    Sit sit = CreateSit(db.catalog.get(), &stats, desc, options)
                  .ValueOrDie();
    benchmark::DoNotOptimize(sit);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepSingleJoin)->Arg(20'000)->Arg(100'000);

// The hash ReadColumnFile runs over every payload byte on every load; 8 MiB
// is about one TPC-H-lite lineitem column. Reported as bytes/s.
void BM_ColumnFileChecksum(benchmark::State& state) {
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ColumnFileChecksum(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ColumnFileChecksum)->Arg(64 << 10)->Arg(8 << 20);

void BM_SolverGreedy(benchmark::State& state) {
  Rng rng(11);
  InstanceSpec spec;
  spec.num_sits = static_cast<int>(state.range(0));
  SchedulingProblem problem = MakeRandomInstance(spec, &rng).ValueOrDie();
  for (auto _ : state) {
    SolverOptions options;
    options.kind = SolverKind::kGreedy;
    benchmark::DoNotOptimize(SolveSchedule(problem, options).ValueOrDie());
  }
}
BENCHMARK(BM_SolverGreedy)->Arg(10)->Arg(20);

void BM_SolverOptimalSmall(benchmark::State& state) {
  Rng rng(11);
  InstanceSpec spec;
  spec.num_sits = static_cast<int>(state.range(0));
  SchedulingProblem problem = MakeRandomInstance(spec, &rng).ValueOrDie();
  for (auto _ : state) {
    SolverOptions options;
    options.kind = SolverKind::kOptimal;
    benchmark::DoNotOptimize(SolveSchedule(problem, options).ValueOrDie());
  }
}
BENCHMARK(BM_SolverOptimalSmall)->Arg(5)->Arg(8);

// Cost of an instrumented scope while tracing is off: should compile down
// to one relaxed atomic load and a branch (sub-nanosecond), which is what
// makes it safe to leave spans in the hot Sweep/scan paths.
void BM_TraceSpanDisabled(benchmark::State& state) {
  telemetry::Tracer::Global().SetEnabled(false);
  for (auto _ : state) {
    SITSTATS_TRACE_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  telemetry::Tracer::Global().SetEnabled(true);
  for (auto _ : state) {
    SITSTATS_TRACE_SPAN("bench.enabled");
    benchmark::ClobberMemory();
  }
  telemetry::Tracer::Global().SetEnabled(false);
  telemetry::Tracer::Global().Clear();
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_CounterIncrement(benchmark::State& state) {
  static telemetry::Counter& counter =
      telemetry::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Increment();
  }
}
BENCHMARK(BM_CounterIncrement);

void BM_LatencyHistogramRecord(benchmark::State& state) {
  static telemetry::LatencyHistogram& hist =
      telemetry::MetricsRegistry::Global().GetHistogram("bench.hist_ms");
  double v = 0.0;
  for (auto _ : state) {
    hist.Record(v);
    v += 0.125;
  }
}
BENCHMARK(BM_LatencyHistogramRecord);

}  // namespace
}  // namespace sitstats

BENCHMARK_MAIN();
