#include "sit/sweep_scan.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "common/fault_injection.h"
#include "sampling/reservoir.h"
#include "storage/scan.h"
#include "telemetry/telemetry.h"

namespace sitstats {

namespace {

/// Per-target accumulation state during the scan. A target keeps one
/// accumulator: `weights` for an exact-map target or on the full path,
/// `reservoir` for any other target on the sampling path.
struct TargetState {
  size_t attribute_slot = 0;           // index into the scan projection
  ReservoirSampler* reservoir = nullptr;
  // Keys this target's draws: rounding by row, merges by batch.
  uint64_t draw_key = 0;
  double fractional_cardinality = 0.0;
  uint64_t nan_rows = 0;
  // An infinite attribute of a row of positive multiplicity, or 0.
  double infinite = 0.0;
  // Attribute value -> summed multiplicity, in row order.
  WeightTable weights;
};

}  // namespace

Result<std::vector<SweepOutput>> SweepScanTable(Catalog* catalog,
                                                const SweepScanSpec& spec,
                                                Rng* rng) {
  SITSTATS_FAULT_SITE("sit.sweep.scan");
  if (spec.targets.empty()) {
    return Status::InvalidArgument("sweep scan with no targets");
  }
  // A NaN, infinite or negative rate would reach the capacity computation
  // below, where casting ceil(rows * rate) to size_t is undefined behavior.
  if (spec.use_sampling &&
      !(spec.sampling_rate >= 0.0 && std::isfinite(spec.sampling_rate))) {
    return Status::InvalidArgument(
        "sweep sampling rate must be a finite non-negative number");
  }
  for (const SweepJoin& join : spec.joins) {
    if (join.oracle == nullptr) {
      return Status::InvalidArgument("sweep join without an oracle");
    }
    if (join.scan_columns.empty()) {
      return Status::InvalidArgument("sweep join without scan columns");
    }
    if (join.oracle->num_columns() != join.scan_columns.size()) {
      return Status::InvalidArgument(
          "sweep join column count does not match its oracle");
    }
  }
  // Each drawing target needs a private stream, so that its draws depend
  // only on its own rows, whatever else shares the scan.
  std::vector<Rng*> streams;
  for (const SweepTarget& target : spec.targets) {
    for (size_t idx : target.join_indices) {
      if (idx >= spec.joins.size()) {
        return Status::InvalidArgument("sweep target join index out of range");
      }
    }
    Rng* stream = target.rng != nullptr ? target.rng : rng;
    if (spec.use_sampling &&
        (stream == nullptr ||
         std::find(streams.begin(), streams.end(), stream) != streams.end())) {
      return Status::InvalidArgument(
          "each sampling sweep target needs a random stream of its own");
    }
    streams.push_back(stream);
  }
  SITSTATS_ASSIGN_OR_RETURN(const Table* table,
                            catalog->GetTable(spec.table));

  // Projection: all join columns, then all target attributes (deduplicated
  // by the column list; slots may alias the same column).
  std::vector<std::string> projection;
  auto slot_of = [&projection](const std::string& column) {
    for (size_t i = 0; i < projection.size(); ++i) {
      if (projection[i] == column) return i;
    }
    projection.push_back(column);
    return projection.size() - 1;
  };
  std::vector<std::vector<size_t>> join_slots;
  join_slots.reserve(spec.joins.size());
  for (const SweepJoin& join : spec.joins) {
    std::vector<size_t> slots;
    for (const std::string& column : join.scan_columns) {
      slots.push_back(slot_of(column));
    }
    join_slots.push_back(std::move(slots));
  }

  // Reservoir capacity is a sample of the *stream* (which multiplicities
  // can make far longer than the table); never 0, even for empty tables
  // with min_sample_size = 0 — the sampler requires positive capacity.
  size_t capacity = std::max(
      spec.min_sample_size,
      static_cast<size_t>(std::ceil(static_cast<double>(table->num_rows()) *
                                    spec.sampling_rate)));
  if (capacity == 0) capacity = 1;

  // A weighted target lays its table out for its attribute column's keys.
  // A sampled target takes one draw from its stream, at scan start: the
  // key of every rounding and merge draw of this scan.
  std::vector<TargetState> states(spec.targets.size());
  std::vector<ReservoirSampler> reservoirs;
  reservoirs.reserve(spec.targets.size());
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    states[t].attribute_slot = slot_of(spec.targets[t].attribute);
    if (!spec.use_sampling || spec.targets[t].build_exact_map) {
      SITSTATS_ASSIGN_OR_RETURN(const Column* column,
                                table->GetColumn(spec.targets[t].attribute));
      states[t].weights = WeightTable::ForColumn(*column);
    } else {
      states[t].draw_key = streams[t]->NextUint64();
      SITSTATS_ASSIGN_OR_RETURN(
          ReservoirSampler sampler,
          ReservoirSampler::Create(capacity, states[t].draw_key));
      reservoirs.push_back(std::move(sampler));
      states[t].reservoir = &reservoirs.back();
    }
  }

  telemetry::TraceSpan span("sweep.scan");
  span.AddAttribute("table", spec.table);
  span.AddAttribute("targets", static_cast<double>(spec.targets.size()));
  span.AddAttribute("joins", static_cast<double>(spec.joins.size()));

  // Step 1: the (single, shared) sequential scan, consumed in batches of
  // kScanBatchRows contiguous rows.
  SITSTATS_ASSIGN_OR_RETURN(
      SequentialScan scan,
      SequentialScan::Open(catalog, spec.table, projection));

  // A row's weight for one target, from the precomputed per-join
  // multiplicities of the current batch: their product, or 0 for a row
  // that joins nothing or is skipped. A positive weight counts towards the
  // target's cardinality.
  std::vector<std::vector<double>> batch_multiplicities(spec.joins.size());
  auto row_weight = [&](const SweepTarget& target, TargetState& state,
                        std::span<const double> attr_values,
                        size_t r) -> double {
    double multiplicity = 1.0;
    for (size_t idx : target.join_indices) {
      multiplicity *= batch_multiplicities[idx][r];
      if (multiplicity == 0.0) break;
    }
    if (multiplicity <= 0.0) return 0.0;
    // NaN joins nothing: at an intermediate step the row's weight has no
    // next join to reach, so it is neither accumulated nor counted. The
    // root has no next join, and AdvanceSweepBuilds fails it instead.
    if (std::isnan(attr_values[r])) {
      ++state.nan_rows;
      return 0.0;
    }
    // An exact map keeps an infinite join key; no histogram holds one.
    if (std::isinf(attr_values[r]) && !target.build_exact_map) {
      state.infinite = attr_values[r];
    }
    state.fractional_cardinality += multiplicity;
    return multiplicity;
  };

  // Rows read and looked up by every join, counted per batch so the row
  // loop touches no counter.
  uint64_t rows = 0;
  ScanBatch batch;
  std::vector<const double*> oracle_columns;
  std::vector<uint64_t> copies(kScanBatchRows);
  auto sweep = [&]() -> Status {
    while (scan.NextBatch(&batch)) {
      // Poll the token once per batch: a timeout or first-error abort
      // lands within a few thousand rows of scanning.
      SITSTATS_RETURN_IF_ERROR(spec.cancel.CheckCancelled("sweep scan"));
      const size_t n = batch.num_rows;
      // Step 2, batched: one oracle call per distinct join covers the
      // whole batch, shared across targets.
      for (size_t j = 0; j < spec.joins.size(); ++j) {
        batch_multiplicities[j].resize(n);
        oracle_columns.clear();
        for (size_t slot : join_slots[j]) {
          oracle_columns.push_back(batch.column(slot).data());
        }
        spec.joins[j].oracle->MultiplicityBatch(
            oracle_columns.data(), oracle_columns.size(), n,
            batch_multiplicities[j].data());
      }
      // Target-major: all of a batch's rows for target 0, then target 1,
      // ... keeps each target's work on its one accumulator. Every draw is
      // keyed by its target, row and batch, so neither the order across
      // targets nor the batch's neighbours change any target's draws.
      for (size_t t = 0; t < spec.targets.size(); ++t) {
        const SweepTarget& target = spec.targets[t];
        TargetState& state = states[t];
        std::span<const double> attr_values =
            batch.column(state.attribute_slot).first(n);
        if (state.reservoir == nullptr) {
          // An exact-map target feeds only the next step's exact m-Oracle
          // (DESIGN.md note 3), which reads this table and nothing else:
          // no draws, no histogram. The temporary table of the full path
          // is only ever grouped by value (DESIGN.md note 2), so it sums
          // each value's copies into `weights` as it scans, too.
          for (size_t r = 0; r < n; ++r) {
            const double weight = row_weight(target, state, attr_values, r);
            if (weight > 0.0) state.weights.Add(attr_values[r], weight);
          }
          continue;
        }
        // Steps 3-4: `multiplicity` copies of each row's attribute value
        // join the conceptual temporary table, by unbiased randomized
        // rounding on a draw keyed by the row's index in the table, then
        // the whole batch merges into the reservoir at once.
        for (size_t r = 0; r < n; ++r) {
          const double weight = row_weight(target, state, attr_values, r);
          const double floor_weight = std::floor(weight);
          const double u = UnitDouble(SplitMix64At(state.draw_key, rows + r));
          copies[r] = static_cast<uint64_t>(floor_weight) +
                      (u < weight - floor_weight ? 1 : 0);
        }
        state.reservoir->MergeBatch(attr_values,
                                    std::span<const uint64_t>(copies).first(n));
      }
      rows += n;
    }
    return Status::OK();
  };
  const Status swept = sweep();

  // Tally the scan's work, per target and in total (each join once), and
  // book the total into the registry whether or not the loop finished.
  auto add_lookups = [&](size_t join, IoStats* stats) {
    (spec.joins[join].oracle->exact() ? stats->index_lookups
                                      : stats->histogram_lookups) += rows;
  };
  IoStats total;
  for (size_t j = 0; j < spec.joins.size(); ++j) add_lookups(j, &total);
  std::vector<IoStats> shares(spec.targets.size());
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    IoStats& share = shares[t];
    share.sequential_scans = 1;
    share.rows_scanned = rows;
    for (size_t idx : spec.targets[t].join_indices) add_lookups(idx, &share);
  }
  static telemetry::Counter& index_lookups =
      telemetry::MetricsRegistry::Global().GetCounter("storage.index_lookups");
  static telemetry::Counter& histogram_lookups =
      telemetry::MetricsRegistry::Global().GetCounter(
          "storage.histogram_lookups");
  static telemetry::Counter& rows_swept =
      telemetry::MetricsRegistry::Global().GetCounter("sit.rows_swept");
  static telemetry::Counter& moracle_calls =
      telemetry::MetricsRegistry::Global().GetCounter("sit.moracle_calls");
  static telemetry::Counter& slots_merged =
      telemetry::MetricsRegistry::Global().GetCounter(
          "sampling.slots_merged");
  uint64_t merged = 0;
  for (const ReservoirSampler& reservoir : reservoirs) {
    merged += reservoir.slots_merged();
  }
  index_lookups.Increment(total.index_lookups);
  histogram_lookups.Increment(total.histogram_lookups);
  rows_swept.Increment(rows);
  moracle_calls.Increment(rows * spec.joins.size());
  slots_merged.Increment(merged);
  SITSTATS_RETURN_IF_ERROR(swept);
  static telemetry::Counter& sweep_scans =
      telemetry::MetricsRegistry::Global().GetCounter("sit.sweep_scans");
  sweep_scans.Increment();
  span.AddAttribute("rows", static_cast<double>(rows));
  span.AddAttribute("slots_merged", static_cast<double>(merged));

  // Step 5: build the statistic per target; an exact-map target hands its
  // table on instead.
  SITSTATS_TRACE_SPAN("sweep.build_outputs");
  std::vector<SweepOutput> outputs;
  outputs.reserve(spec.targets.size());
  for (size_t t = 0; t < spec.targets.size(); ++t) {
    SITSTATS_FAULT_SITE("sit.sweep.build_output");
    SITSTATS_RETURN_IF_ERROR(spec.cancel.CheckCancelled("sweep output"));
    TargetState& state = states[t];
    if (state.infinite != 0.0) {
      return Status::InvalidArgument(
          "histogram input has a value that is not finite: " +
          std::to_string(state.infinite));
    }
    SweepOutput out;
    out.estimated_cardinality = state.fractional_cardinality;
    out.nan_rows = state.nan_rows;
    if (spec.targets[t].build_exact_map) {
      out.exact_map = std::move(state.weights);
    } else if (spec.use_sampling) {
      SITSTATS_ASSIGN_OR_RETURN(
          out.histogram,
          BuildHistogramFromSample(state.reservoir->sample(),
                                   state.fractional_cardinality,
                                   spec.histogram_spec));
    } else {
      // Moved out, so the table is freed before the next target builds.
      WeightTable weights = std::move(state.weights);
      SITSTATS_ASSIGN_OR_RETURN(
          out.histogram,
          BuildHistogramWeighted(weights.Entries(), spec.histogram_spec));
    }
    out.io_stats = shares[t];
    outputs.push_back(std::move(out));
  }
  return outputs;
}

}  // namespace sitstats
