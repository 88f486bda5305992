// The traced run: the end-to-end phases untraced and traced (the
// difference is the tracing overhead), then every layer on the build and
// serve paths timed in isolation through its public functions. Each
// timed call is wrapped in a benchmark-owned span named "bench:<metric>";
// the spans the library records itself land in the same trace, so a
// span's self time (its duration minus its children) shows what the
// library's own spans do not cover.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "common/rng.h"
#include "estimator/sit_estimator.h"
#include "histogram/builder.h"
#include "perfbench.h"
#include "query/join_tree.h"
#include "query/spec_parse.h"
#include "sampling/reservoir.h"
#include "scheduler/executor.h"
#include "scheduler/sit_problem.h"
#include "scheduler/solver.h"
#include "sit/creator.h"
#include "sit/oracle_factory.h"
#include "sit/serialization.h"
#include "sit/sit_catalog.h"
#include "sit/sweep_scan.h"
#include "storage/scan.h"
#include "storage/table_io.h"
#include "storage/temp_store.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace sitstats;

namespace {

constexpr int kLayerReps = 3;
constexpr char kSpanPrefix[] = "bench:";

/// Stable storage for span names built at run time.
const char* SpanName(const std::string& metric) {
  static std::set<std::string> names;
  return names.insert(kSpanPrefix + metric).first->c_str();
}

/// A benchmark-owned span around one call into a layer, plus its timer.
class LayerCall {
 public:
  explicit LayerCall(const std::string& metric)
      : span_(SpanName(metric)), start_(NowMs()) {}
  double ElapsedMs() const { return NowMs() - start_; }

 private:
  telemetry::TraceSpan span_;
  double start_;
};

/// One trace id per benchmark operation.
class Operation {
 public:
  Operation() : scope_(telemetry::MintTraceId()) {}

 private:
  telemetry::TraceIdScope scope_;
};

bool IsExact(SweepVariant variant) {
  return variant == SweepVariant::kSweepIndex ||
         variant == SweepVariant::kSweepExact;
}

/// CreateSit's sweep path replayed call by call (post-order over the join
/// tree), with the oracle constructions and each node's sweep scan timed
/// apart. Keeps every scan spec and its oracles for the per-row replays.
struct Replay {
  std::vector<std::unique_ptr<MultiplicityOracle>> oracles;
  std::vector<SweepScanSpec> steps;  // post-order: root step last
  double oracle_ms = 0.0;
  double sweep_ms = 0.0;
  SweepOutput root;
};

Result<Replay> ReplayBuild(Catalog* catalog, BaseStatsCache* base_stats,
                           const SitDescriptor& descriptor,
                           SweepVariant variant) {
  SITSTATS_ASSIGN_OR_RETURN(
      JoinTree tree,
      JoinTree::Build(descriptor.query(), descriptor.attribute().table));
  Rng rng(SitStreamSeed(kBuildSeed, descriptor));
  const bool exact = IsExact(variant);
  const bool sampling = variant == SweepVariant::kSweep ||
                        variant == SweepVariant::kSweepIndex;
  Replay replay;
  std::map<int, SweepOutput> outputs;
  for (int index : tree.PostOrder()) {
    if (tree.IsLeaf(index)) continue;
    const JoinTree::Node& node = tree.node(index);
    SweepScanSpec spec;
    spec.table = node.table;
    spec.use_sampling = sampling;
    SweepTarget target;
    for (int child : node.children) {
      auto it = outputs.find(child);
      SweepOutput* child_output = it == outputs.end() ? nullptr : &it->second;
      LayerCall call("sit.oracle_create_ms");
      SITSTATS_ASSIGN_OR_RETURN(
          std::unique_ptr<MultiplicityOracle> oracle,
          MakeChildOracle(catalog, base_stats, tree, index, child,
                          child_output, exact, &rng));
      replay.oracle_ms += call.ElapsedMs();
      target.join_indices.push_back(spec.joins.size());
      spec.joins.push_back(
          SweepJoin{tree.node(child).parent_columns, oracle.get()});
      replay.oracles.push_back(std::move(oracle));
    }
    const bool root = index == tree.root();
    target.attribute =
        root ? descriptor.attribute().column : node.column_to_parent();
    target.build_exact_map = exact && !root;
    spec.targets.push_back(target);
    LayerCall call("sit.sweep_scan_ms." + VariantKey(variant));
    SITSTATS_ASSIGN_OR_RETURN(std::vector<SweepOutput> out,
                              SweepScanTable(catalog, spec, &rng));
    replay.sweep_ms += call.ElapsedMs();
    outputs[index] = std::move(out[0]);
    replay.steps.push_back(std::move(spec));
  }
  replay.root = std::move(outputs[tree.root()]);
  return replay;
}

/// The scan projection of one sweep step: join columns, then the target.
std::vector<std::string> Projection(const SweepScanSpec& step) {
  std::vector<std::string> columns;
  auto add = [&columns](const std::string& column) {
    if (std::find(columns.begin(), columns.end(), column) == columns.end()) {
      columns.push_back(column);
    }
  };
  for (const SweepJoin& join : step.joins) {
    for (const std::string& column : join.scan_columns) add(column);
  }
  add(step.targets[0].attribute);
  return columns;
}

size_t Slot(const std::vector<std::string>& projection,
            const std::string& column) {
  return static_cast<size_t>(
      std::find(projection.begin(), projection.end(), column) -
      projection.begin());
}

std::string OracleKind(const MultiplicityOracle& oracle) {
  const std::string name = oracle.Describe();
  if (name.starts_with("HistogramMOracle")) return "Histogram";
  if (name.starts_with("IndexMOracle")) return "Index";
  if (name.starts_with("ExactMapMOracle")) return "ExactMap";
  return name;
}

struct OracleTiming {
  std::map<std::string, double> ns;
  std::map<std::string, double> rows;
  double scan_ms = 0.0;
  double scan_rows = 0.0;
};

/// Scans every step of `replay` and times, apart, the scan itself and the
/// MultiplicityBatch calls of each join's oracle over the scanned batches.
Status TimeStepScans(Catalog* catalog, const Replay& replay,
                     OracleTiming* timing) {
  for (const SweepScanSpec& step : replay.steps) {
    const std::vector<std::string> projection = Projection(step);
    {
      LayerCall call("storage.scan_rows_per_s");
      SITSTATS_ASSIGN_OR_RETURN(
          SequentialScan scan,
          SequentialScan::Open(catalog, step.table, projection));
      ScanBatch batch;
      double sink = 0.0;
      while (scan.NextBatch(&batch)) {
        for (size_t c = 0; c < batch.columns.size(); ++c) {
          sink += batch.column(c)[batch.num_rows - 1];
        }
        timing->scan_rows += static_cast<double>(batch.num_rows);
      }
      timing->scan_ms += call.ElapsedMs();
      if (std::isnan(sink)) return Status::Internal("NaN in scanned column");
    }
    for (const SweepJoin& join : step.joins) {
      const std::string kind = OracleKind(*join.oracle);
      LayerCall call("sit.moracle_ns_per_row." + kind);
      SITSTATS_ASSIGN_OR_RETURN(
          SequentialScan scan,
          SequentialScan::Open(catalog, step.table, join.scan_columns));
      ScanBatch batch;
      std::vector<double> out;
      std::vector<const double*> columns;
      while (scan.NextBatch(&batch)) {
        out.resize(batch.num_rows);
        columns.clear();
        for (size_t c = 0; c < batch.columns.size(); ++c) {
          columns.push_back(batch.column(c).data());
        }
        const double start = NowMs();
        join.oracle->MultiplicityBatch(columns.data(), columns.size(),
                                       batch.num_rows, out.data());
        timing->ns[kind] += (NowMs() - start) * 1e6;
        timing->rows[kind] += static_cast<double>(batch.num_rows);
      }
    }
  }
  return Status::OK();
}

/// The root step's stream: every scanned row's attribute value and its
/// (fractional) multiplicity, dropping rows that join nothing.
Status RootStream(Catalog* catalog, const SweepScanSpec& step,
                  std::vector<std::pair<double, double>>* stream) {
  const std::vector<std::string> projection = Projection(step);
  const size_t attribute = Slot(projection, step.targets[0].attribute);
  SITSTATS_ASSIGN_OR_RETURN(
      SequentialScan scan,
      SequentialScan::Open(catalog, step.table, projection));
  ScanBatch batch;
  std::vector<double> weight, out;
  std::vector<const double*> columns;
  while (scan.NextBatch(&batch)) {
    weight.assign(batch.num_rows, 1.0);
    out.resize(batch.num_rows);
    for (const SweepJoin& join : step.joins) {
      columns.clear();
      for (const std::string& column : join.scan_columns) {
        columns.push_back(batch.column(Slot(projection, column)).data());
      }
      join.oracle->MultiplicityBatch(columns.data(), columns.size(),
                                     batch.num_rows, out.data());
      for (size_t r = 0; r < batch.num_rows; ++r) weight[r] *= out[r];
    }
    for (size_t r = 0; r < batch.num_rows; ++r) {
      if (weight[r] > 0.0) {
        stream->emplace_back(batch.column(attribute)[r], weight[r]);
      }
    }
  }
  return Status::OK();
}

/// Self time of every benchmark span, grouped by the metric it feeds: the
/// span's duration minus the part its same-thread children cover.
std::map<std::string, std::vector<double>> SelfTimesMs(
    const std::vector<telemetry::TraceEvent>& events) {
  std::map<uint32_t, std::vector<const telemetry::TraceEvent*>> by_thread;
  for (const telemetry::TraceEvent& event : events) {
    if (event.phase == 'X') by_thread[event.tid].push_back(&event);
  }
  std::map<std::string, std::vector<double>> self;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    for (size_t i = 0; i < spans.size(); ++i) {
      const telemetry::TraceEvent& span = *spans[i];
      if (!span.name.starts_with(kSpanPrefix)) continue;
      const uint64_t end = span.ts_us + span.dur_us;
      uint64_t covered = 0, cursor = span.ts_us;
      for (size_t j = i + 1; j < spans.size() && spans[j]->ts_us < end; ++j) {
        const uint64_t child_end =
            std::min(end, spans[j]->ts_us + spans[j]->dur_us);
        const uint64_t from = std::max(spans[j]->ts_us, cursor);
        if (child_end > from) covered += child_end - from;
        cursor = std::max(cursor, child_end);
      }
      self[span.name.substr(sizeof(kSpanPrefix) - 1)].push_back(
          static_cast<double>(span.dur_us - covered) / 1e3);
    }
  }
  return self;
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetCounter(name).value();
}

template <typename F>
double MedianOf(int reps, F&& once) {
  std::vector<double> values;
  for (int r = 0; r < reps; ++r) values.push_back(once());
  return Median(std::move(values));
}

}  // namespace

Metrics RunTraced(Fixture* fixture, double seconds,
                  const std::string& trace_path, Tally* tally) {
  const WorkloadSpec& spec = *fixture->spec;
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  Metrics layer;
  auto fail = [&](const Status& status, const std::string& what) {
    tally->Record(status, what);
    return !status.ok();
  };

  // 1. End-to-end phases with tracing off, then on.
  // Serving records several library spans per request; one second of it
  // keeps the in-memory trace small, so the untraced half gets the same.
  const double half = seconds / 2.0;
  const Phases untraced = RunPhases(*fixture, half, kServeSliceS, tally);
  const ServePhase& serve = untraced.serve;
  tracer.Clear();
  tracer.SetEnabled(true);
  const Phases traced = RunPhases(*fixture, half, kServeSliceS, tally);
  Metrics untraced_e2e, traced_e2e;
  AddEndToEndMetrics(*fixture, untraced, &untraced_e2e);
  AddEndToEndMetrics(*fixture, traced, &traced_e2e);
  std::printf("# tracing overhead (traced median - untraced median)\n");
  for (const auto& [name, metric] : untraced_e2e) {
    if (metric.unit != "ms") continue;
    std::printf("overhead %-22s %10.4f ms  (untraced %.4f, traced %.4f)\n",
                name.c_str(), traced_e2e[name].value - metric.value,
                metric.value, traced_e2e[name].value);
  }

  // 2. Layers in isolation, on the build target of this workload.
  Result<SitDescriptor> target = ParseSitSpec(spec.build_target);
  Result<std::unique_ptr<Catalog>> warm = LoadCatalogBinary(fixture->data_dir);
  if (fail(target.ok() ? warm.status() : target.status(), "layer inputs")) {
    return layer;
  }
  Catalog* catalog = warm->get();
  Result<JoinTree> tree =
      JoinTree::Build(target->query(), target->attribute().table);
  if (fail(tree.status(), "join tree")) return layer;

  // Leaf edges (indexes the exact variants build) and the base statistics
  // the histogram variants read.
  std::vector<std::pair<std::string, std::string>> index_columns, base_columns;
  for (int index : tree->PostOrder()) {
    const JoinTree::Node& node = tree->node(index);
    for (int child : node.children) {
      const JoinTree::Node& c = tree->node(child);
      base_columns.emplace_back(node.table, c.parent_column());
      if (tree->IsLeaf(child)) {
        base_columns.emplace_back(c.table, c.column_to_parent());
        index_columns.emplace_back(c.table, c.column_to_parent());
      }
    }
  }

  const double load_ms = MedianOf(kLayerReps, [&] {
    Operation op;
    LayerCall call("storage.load_ms");
    Result<std::unique_ptr<Catalog>> loaded =
        LoadCatalogBinary(fixture->data_dir);
    const double ms = call.ElapsedMs();
    tally->Record(loaded.status(), "load");
    return ms;
  });
  const double index_ms = MedianOf(kLayerReps, [&] {
    Operation op;
    Result<std::unique_ptr<Catalog>> fresh =
        LoadCatalogBinary(fixture->data_dir);
    if (fail(fresh.status(), "load")) return 0.0;
    LayerCall call("storage.index_build_ms");
    for (const auto& [table, column] : index_columns) {
      tally->Record((*fresh)->EnsureIndex(table, column).status(), "index");
    }
    return call.ElapsedMs();
  });
  for (const auto& [table, column] : index_columns) {
    tally->Record(catalog->EnsureIndex(table, column).status(), "index");
  }
  Rng base_rng(kBuildSeed);
  const double base_stats_ms = MedianOf(kLayerReps, [&] {
    Operation op;
    BaseStatsCache fresh;
    LayerCall call("sit.base_stats_ms");
    for (const auto& [table, column] : base_columns) {
      tally->Record(
          fresh.GetOrBuild(*catalog, table, column, &base_rng).status(),
          "base stats");
    }
    return call.ElapsedMs();
  });

  // Warm catalog + warm base statistics from here on.
  BaseStatsCache base_stats;
  std::map<SweepVariant, double> create_ms;
  for (SweepVariant variant : kVariants) {
    SitBuildOptions options;
    options.variant = variant;
    options.seed = kBuildSeed;
    tally->Record(CreateSit(catalog, &base_stats, *target, options).status(),
                  "warm-up create");
    create_ms[variant] = MedianOf(kLayerReps, [&] {
      Operation op;
      LayerCall call("sit.create_ms." + VariantKey(variant));
      Result<Sit> sit = CreateSit(catalog, &base_stats, *target, options);
      const double ms = call.ElapsedMs();
      tally->Record(sit.status(), "create");
      return ms;
    });
    layer["sit.create_ms." + VariantKey(variant)] = {create_ms[variant], "ms"};
  }

  std::map<SweepVariant, double> oracle_ms, sweep_ms;
  std::map<SweepVariant, Replay> replays;
  for (SweepVariant variant : kVariants) {
    if (variant == SweepVariant::kHistSit) continue;
    std::vector<double> oracle, sweep;
    for (int rep = 0; rep < kLayerReps; ++rep) {
      Operation op;
      Result<Replay> replay =
          ReplayBuild(catalog, &base_stats, *target, variant);
      if (fail(replay.status(), "replay " + VariantKey(variant))) continue;
      oracle.push_back(replay->oracle_ms);
      sweep.push_back(replay->sweep_ms);
      replays.insert_or_assign(variant, std::move(replay).ValueOrDie());
    }
    oracle_ms[variant] = Median(oracle);
    sweep_ms[variant] = Median(sweep);
    layer["sit.sweep_scan_ms." + VariantKey(variant)] = {sweep_ms[variant],
                                                         "ms"};
    // The replay must be CreateSit, call for call.
    SitBuildOptions options;
    options.variant = variant;
    options.seed = kBuildSeed;
    Result<Sit> sit = CreateSit(catalog, &base_stats, *target, options);
    auto replayed = replays.find(variant);
    tally->Check(sit.ok() && replayed != replays.end() &&
                     SerializeHistogram(sit->histogram) ==
                         SerializeHistogram(replayed->second.root.histogram),
                 "replay of " + VariantKey(variant) + " matches CreateSit");
  }
  if (replays.size() != 4) return layer;

  layer["storage.load_ms"] = {load_ms, "ms"};
  layer["storage.index_build_ms"] = {index_ms, "ms"};
  layer["sit.base_stats_ms"] = {base_stats_ms, "ms"};
  layer["sit.oracle_create_ms"] = {oracle_ms[SweepVariant::kSweep], "ms"};

  // Scan rate and per-row oracle cost: histogram oracles from the Sweep
  // replay, index and exact-map oracles from the SweepExact replay.
  std::vector<double> scan_rate;
  std::map<std::string, std::vector<double>> ns_per_row;
  std::vector<double> sweep_scan_ms, sweep_oracle_ms;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    Operation op;
    OracleTiming sweep_steps, exact_steps;
    if (fail(TimeStepScans(catalog, replays.at(SweepVariant::kSweep),
                           &sweep_steps),
             "scan replay") ||
        fail(TimeStepScans(catalog, replays.at(SweepVariant::kSweepExact),
                           &exact_steps),
             "scan replay")) {
      continue;
    }
    scan_rate.push_back(sweep_steps.scan_rows / (sweep_steps.scan_ms / 1e3));
    sweep_scan_ms.push_back(sweep_steps.scan_ms);
    sweep_oracle_ms.push_back(sweep_steps.ns["Histogram"] / 1e6);
    for (const OracleTiming* timing : {&sweep_steps, &exact_steps}) {
      for (const auto& [kind, ns] : timing->ns) {
        ns_per_row[kind].push_back(ns / timing->rows.at(kind));
      }
    }
  }
  layer["storage.scan_rows_per_s"] = {Median(scan_rate), "rows/s"};
  for (const char* kind : {"Histogram", "Index", "ExactMap"}) {
    layer[std::string("sit.moracle_ns_per_row.") + kind] = {
        Median(ns_per_row[kind]), "ns"};
  }

  // The root step's streams: rounded copies into the reservoir (Sweep),
  // weighted runs into the temp store (SweepFull), and the histograms
  // built from each.
  const SweepScanSpec& root_step =
      replays.at(SweepVariant::kSweep).steps.back();
  std::vector<std::pair<double, double>> weighted;
  if (fail(RootStream(catalog, root_step, &weighted), "root stream")) {
    return layer;
  }
  Rng rounding(kBuildSeed);
  std::vector<std::pair<double, uint64_t>> rounded;
  double population = 0.0;
  for (const auto& [value, weight] : weighted) {
    population += weight;
    uint64_t copies = static_cast<uint64_t>(std::floor(weight));
    if (rounding.Bernoulli(weight - std::floor(weight))) ++copies;
    if (copies > 0) rounded.emplace_back(value, copies);
  }
  Result<const Table*> root_table = catalog->GetTable(root_step.table);
  if (fail(root_table.status(), "root table")) return layer;
  const size_t capacity = std::max<size_t>(
      100, static_cast<size_t>(std::ceil(
               static_cast<double>((*root_table)->num_rows()) * 0.1)));
  std::vector<double> sample;
  std::vector<double> reservoir_ms;
  const double reservoir_ns = MedianOf(kLayerReps, [&] {
    Operation op;
    Rng rng(kBuildSeed);
    ReservoirSampler sampler(capacity, &rng);
    LayerCall call("sampling.reservoir_ns_per_elem");
    for (const auto& [value, copies] : rounded) {
      sampler.AddRepeated(value, copies);
    }
    reservoir_ms.push_back(call.ElapsedMs());
    sample = sampler.sample();
    return reservoir_ms.back() * 1e6 / static_cast<double>(rounded.size());
  });
  layer["sampling.reservoir_ns_per_elem"] = {reservoir_ns, "ns"};
  HistogramSpec histogram_spec;
  auto time_histogram = [&](const char* metric, auto&& build_histogram) {
    return MedianOf(kLayerReps, [&] {
      Operation op;
      LayerCall call(metric);
      Result<Histogram> histogram = build_histogram();
      const double ms = call.ElapsedMs();
      tally->Record(histogram.ok() ? histogram->Validate()
                                   : histogram.status(),
                    metric);
      return ms;
    });
  };
  layer["histogram.sample_build_ms"] = {
      time_histogram("histogram.sample_build_ms",
                     [&] {
                       return BuildHistogramFromSample(sample, population,
                                                       histogram_spec);
                     }),
      "ms"};
  std::vector<std::pair<double, double>> runs;
  uint64_t spilled = 0;
  layer["storage.temp_store_ms"] = {
      MedianOf(kLayerReps,
               [&] {
                 Operation op;
                 TempValueStore store;
                 LayerCall call("storage.temp_store_ms");
                 for (const auto& [value, weight] : weighted) {
                   tally->Record(store.Append(value, weight), "temp append");
                 }
                 const double ms = call.ElapsedMs();
                 runs.clear();
                 tally->Record(store.ReadAll(&runs), "temp read");
                 spilled = store.runs_spilled();
                 return ms;
               }),
      "ms"};
  layer["histogram.weighted_build_ms"] = {
      time_histogram("histogram.weighted_build_ms",
                     [&] {
                       return BuildHistogramWeighted(runs, histogram_spec);
                     }),
      "ms"};
  Result<const Column*> attribute_column =
      (*root_table)->GetColumn(target->attribute().column);
  if (fail(attribute_column.status(), "attribute column")) return layer;
  const std::vector<double> base_values =
      (*attribute_column)->ToNumericVector();
  layer["histogram.base_build_ms"] = {
      time_histogram("histogram.base_build_ms",
                     [&] {
                       return BuildHistogram(base_values, histogram_spec);
                     }),
      "ms"};

  // Layer reconciliation: the isolated layers against the end-to-end
  // build they make up.
  std::printf("# layer reconciliation: build_ms vs load + base stats|index"
              " + oracle create + sweep scans (ms)\n");
  for (const auto& [variant, sweep] : sweep_ms) {
    const double built = untraced_e2e["build_ms." + VariantKey(variant)].value;
    const double stats = IsExact(variant) ? index_ms : base_stats_ms;
    const double parts = load_ms + stats + oracle_ms[variant] + sweep;
    const double gap = built > 0 ? 100.0 * (built - parts) / built : 0.0;
    layer["sit.layer_gap_pct." + VariantKey(variant)] = {gap, "%"};
    std::printf("reconcile %-10s build %9.2f = load %7.2f + %s %7.2f + oracle "
                "%7.2f + sweep %8.2f (sum %9.2f) gap %6.2f%%\n",
                VariantKey(variant).c_str(), built, load_ms,
                IsExact(variant) ? "index" : "stats", stats,
                oracle_ms[variant], sweep, parts, gap);
  }
  // Every term is a median over its own repetitions.
  const double scan_med = Median(sweep_scan_ms);
  const double oracle_med = Median(sweep_oracle_ms);
  const double reservoir_med = Median(reservoir_ms);
  std::printf("sweep-scan attribution (Sweep, all steps, medians): sweep "
              "%.2f = scan %.2f + MultiplicityBatch %.2f + root reservoir "
              "%.2f + rest %.2f ms\n",
              sweep_ms[SweepVariant::kSweep], scan_med, oracle_med,
              reservoir_med,
              sweep_ms[SweepVariant::kSweep] - scan_med - oracle_med -
                  reservoir_med);

  // Work counts of one cold build per variant, as registry deltas.
  const std::vector<const char*> counters = {
      "storage.rows_scanned", "storage.index_lookups",
      "storage.temp_rows_spilled", "sit.rows_swept", "sit.moracle_calls"};
  std::vector<uint64_t> before;
  for (const char* name : counters) before.push_back(CounterValue(name));
  for (SweepVariant variant : kVariants) {
    Operation op;
    Result<std::unique_ptr<Catalog>> fresh =
        LoadCatalogBinary(fixture->data_dir);
    if (fail(fresh.status(), "load")) continue;
    BaseStatsCache cold;
    SitBuildOptions options;
    options.variant = variant;
    options.seed = kBuildSeed;
    tally->Record(CreateSit(fresh->get(), &cold, *target, options).status(),
                  "counted build");
  }
  for (size_t i = 0; i < counters.size(); ++i) {
    const double delta = static_cast<double>(CounterValue(counters[i]) -
                                             before[i]);
    if (std::string(counters[i]) == "storage.temp_rows_spilled") {
      std::printf("storage.temp_rows_spilled %.0f count (root step alone: "
                  "%llu)\n",
                  delta, static_cast<unsigned long long>(spilled));
      continue;
    }
    layer[counters[i]] = {delta, "count"};
  }

  // 3. Scheduler: problem, solve, and execution at 1 and N threads.
  Result<std::vector<SitDescriptor>> batch = ParseSpecs(spec.schedule_batch);
  if (fail(batch.status(), "schedule batch")) return layer;
  SitProblemOptions problem_options;
  problem_options.memory_limit = ScheduleMemoryLimit(*catalog, *batch);
  Result<SitSchedulingProblem> mapping = Status::Internal("unset");
  const double problem_ms = MedianOf(kLayerReps, [&] {
    Operation op;
    LayerCall call("scheduler.problem_ms");
    mapping = BuildSitSchedulingProblem(*catalog, *batch, problem_options);
    return call.ElapsedMs();
  });
  if (fail(mapping.status(), "scheduling problem")) return layer;
  Result<SolverResult> solved = Status::Internal("unset");
  uint64_t nodes = 0;
  const double solve_ms = MedianOf(kLayerReps, [&] {
    Operation op;
    SolverOptions options;
    options.kind = SolverKind::kExact;
    const uint64_t nodes_before = CounterValue("scheduler.exact.nodes");
    LayerCall call("scheduler.solve_ms");
    solved = SolveSchedule(mapping->problem, options);
    const double ms = call.ElapsedMs();
    nodes = CounterValue("scheduler.exact.nodes") - nodes_before;
    return ms;
  });
  SolverOptions naive_options;
  naive_options.kind = SolverKind::kNaive;
  Result<SolverResult> naive = SolveSchedule(mapping->problem, naive_options);
  if (fail(solved.ok() ? naive.status() : solved.status(), "solve")) {
    return layer;
  }
  const double steps = static_cast<double>(solved->schedule.steps.size());
  layer["scheduler.problem_ms"] = {problem_ms, "ms"};
  layer["scheduler.solve_ms"] = {solve_ms, "ms"};
  layer["scheduler.exact.nodes"] = {static_cast<double>(nodes), "count"};
  layer["schedule.steps"] = {steps, "count"};
  layer["schedule.cost"] = {solved->schedule.cost, "cost"};
  layer["scheduler.shared_scan_ratio"] = {
      steps / static_cast<double>(naive->schedule.steps.size()), "ratio"};
  auto execute_ms = [&](int threads, const char* metric) {
    return MedianOf(2, [&] {
      Operation op;
      BaseStatsCache cold;
      ScheduleExecutionOptions options;
      options.seed = kBuildSeed;
      options.num_threads = threads;
      LayerCall call(metric);
      tally->Record(ExecuteSitSchedule(catalog, &cold, *batch, *mapping,
                                       solved->schedule, options)
                        .status(),
                    "execute");
      return call.ElapsedMs();
    });
  };
  const double t1 = execute_ms(1, "scheduler.execute_ms.t1");
  const double tn =
      execute_ms(spec.schedule_threads, "scheduler.execute_ms.tN");
  layer["scheduler.execute_ms.t1"] = {t1, "ms"};
  layer["scheduler.execute_ms.tN"] = {tn, "ms"};
  layer["scheduler.parallel_efficiency"] = {
      t1 / (spec.schedule_threads * tn), "ratio"};

  // 4. Estimator, called directly with and without a matching SIT.
  SitCatalog sits;
  for (const std::string& sit_spec : spec.sit_estimate_specs) {
    Result<SitDescriptor> descriptor = ParseSitSpec(sit_spec);
    if (fail(descriptor.status(), "parse")) return layer;
    SitBuildOptions options;
    options.seed = kBuildSeed;
    Result<Sit> sit = CreateSit(catalog, &base_stats, *descriptor, options);
    if (fail(sit.status(), "estimator SIT")) return layer;
    sits.Add(std::move(sit).ValueOrDie());
  }
  CardinalityEstimator estimator(catalog, &base_stats, &sits);
  auto estimate_us = [&](const std::string& estimate_spec, bool with_sit) {
    Result<SitDescriptor> descriptor = ParseSitSpec(estimate_spec);
    if (fail(descriptor.status(), "parse")) return 0.0;
    const auto ranges = RepeatRanges(*fixture, estimate_spec);
    std::vector<double> per_call;
    constexpr int kCalls = 200;
    for (int rep = 0; rep < 10; ++rep) {
      Operation op;
      bool ok = true;
      LayerCall call(with_sit ? "estimator.sit_estimate_us"
                              : "estimator.propagate_us");
      for (int i = 0; i < kCalls; ++i) {
        const auto& [lo, hi] = ranges[static_cast<size_t>(i) % ranges.size()];
        Result<CardinalityEstimator::Estimate> estimate =
            estimator.EstimateRangeQuery(descriptor->query(),
                                         descriptor->attribute(), lo, hi);
        ok = ok && estimate.ok() &&
             (estimate->provenance ==
              (with_sit ? CardinalityEstimator::Provenance::kSit
                        : CardinalityEstimator::Provenance::kPropagation));
      }
      per_call.push_back(call.ElapsedMs() * 1e3 / kCalls);
      tally->Check(ok, "direct estimates of " + estimate_spec);
    }
    return Median(per_call);
  };
  layer["estimator.sit_estimate_us"] = {
      estimate_us(spec.sit_estimate_specs[0], true), "us"};
  layer["estimator.propagate_us"] = {
      estimate_us(spec.propagate_estimate_spec, false), "us"};

  // 5. Server, from the untraced serve phase.
  const double requests =
      static_cast<double>(serve.hit_ms.size() + serve.miss_ms.size());
  layer["server.cache_hit_rate"] = {
      requests > 0 ? static_cast<double>(serve.hit_ms.size()) / requests : 0.0,
      "ratio"};
  layer["server.estimate_hit_p50_ms"] = {Median(serve.hit_ms), "ms"};
  layer["server.estimate_miss_p50_ms"] = {Median(serve.miss_ms), "ms"};
  layer["server.estimate_p99_ms"] = {Median(serve.slice_p99_ms), "ms"};
  layer["server.estimate_rps"] = {Median(serve.slice_rps), "req/s"};
  layer["server.queue_wait"] = {serve.queue_wait_ms, "ms"};
  std::printf("server.rejected %llu count\n",
              static_cast<unsigned long long>(serve.rejected));
  std::vector<double> isolated;
  for (const std::string& build_spec : spec.build_cycle) {
    Result<SitDescriptor> descriptor = ParseSitSpec(build_spec);
    if (fail(descriptor.status(), "parse")) return layer;
    SitBuildOptions options;
    options.seed = kBuildSeed;
    for (int rep = 0; rep <= kLayerReps; ++rep) {
      Operation op;
      LayerCall call("server.build_overhead_ms");
      Result<Sit> sit = CreateSit(catalog, &base_stats, *descriptor, options);
      const double ms = call.ElapsedMs();
      tally->Record(sit.status(), "isolated create");
      if (rep > 0) isolated.push_back(ms);  // rep 0 warms base statistics
    }
  }
  layer["server.build_overhead_ms"] = {
      BuildRequestP50(serve) - Median(isolated), "ms"};

  tracer.SetEnabled(false);
  tally->Record(tracer.WriteChromeTrace(trace_path), "write trace");
  const auto self = SelfTimesMs(tracer.Snapshot());
  tracer.Clear();
  std::printf("# per-layer metrics (self time = median span minus children,"
              " per call)\n");
  for (const auto& [name, metric] : layer) {
    auto it = self.find(name);
    if (it == self.end()) {
      std::printf("layer %-34s %14.4f %-6s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    } else {
      std::printf("layer %-34s %14.4f %-6s self %10.4f ms over %zu spans\n",
                  name.c_str(), metric.value, metric.unit.c_str(),
                  Median(it->second), it->second.size());
    }
  }
  std::printf("# trace written to %s\n", trace_path.c_str());
  return layer;
}

}  // namespace perfbench
