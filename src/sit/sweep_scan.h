#ifndef SITSTATS_SIT_SWEEP_SCAN_H_
#define SITSTATS_SIT_SWEEP_SCAN_H_

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/rng.h"
#include "histogram/builder.h"
#include "sit/m_oracle.h"
#include "storage/catalog.h"
#include "storage/io_stats.h"
#include "storage/weight_table.h"

namespace sitstats {

/// One join edge evaluated during a sweep scan: the scanned table's join
/// column(s), plus the oracle answering "how many tuples on the other side
/// match these values". Composite equality joins list one column per
/// predicate and require an oracle with a matching num_columns().
struct SweepJoin {
  std::vector<std::string> scan_columns;
  const MultiplicityOracle* oracle = nullptr;
};

/// One statistic to produce from a shared scan. Different targets may use
/// different subsets of the joins (Example 3: a scan of S builds
/// SIT(S.b | R ⋈_{r2=s2} S) and SIT(S.s3 | R ⋈_{r1=s1} S) simultaneously,
/// each with its own join).
struct SweepTarget {
  /// Column of the scanned table whose distribution is collected.
  std::string attribute;
  /// Indices into SweepScanSpec::joins that apply to this target. The
  /// tuple multiplicity is the product of the joins' multiplicities
  /// (Section 3.2's multi-way rule; acyclicity makes the product exact).
  std::vector<size_t> join_indices;
  /// Accumulate only the exact (weighted) multiplicity map over
  /// `attribute`, for a *next* sweep step that wants an exact m-Oracle over
  /// this intermediate result (SweepIndex / SweepExact). Such a target
  /// draws nothing and builds no histogram, on either path.
  bool build_exact_map = false;
  /// Random stream for this target's draws. Null falls back to the
  /// scan-level rng. A sampled target takes one NextUint64() from it at
  /// scan start, its draw key; every draw of the scan is counter-keyed
  /// from that: the randomized rounding of a row by (key, the row's index
  /// in the table), the reservoir merge of a batch by (key, the batch's
  /// index) (ReservoirSampler). So a scan consumes one draw of the stream,
  /// however many rows it has, and no draw depends on how the scan is cut
  /// into batches for other targets or threads. On the sampling path every
  /// target must resolve to a *different* stream (SweepScanTable rejects
  /// aliases), so a target consumes exactly the draws it would consume
  /// scanned alone — that is what makes a SIT built in a batch
  /// byte-identical to the same SIT built alone, at any thread count.
  /// SweepBuild passes each SIT's own stream here.
  Rng* rng = nullptr;
};

/// Parameters of one sequential scan shared by one or more targets.
struct SweepScanSpec {
  std::string table;
  std::vector<SweepJoin> joins;
  std::vector<SweepTarget> targets;
  /// Reservoir capacity = max(min_sample_size, sampling_rate * |table|);
  /// the rate must be finite and non-negative.
  double sampling_rate = 0.1;
  size_t min_sample_size = 100;
  /// false => sum every row's exact multiplicity per attribute value in
  /// one WeightTable instead of sampling (SweepFull / SweepExact): memory
  /// O(distinct values), whatever the stream's length.
  bool use_sampling = true;
  HistogramSpec histogram_spec;
  /// Cooperative cancellation: the row loop polls this token every batch
  /// of rows and aborts mid-scan with Status::Cancelled, or with
  /// Status::DeadlineExceeded once the token's deadline passed. A default
  /// token never cancels. Server request timeouts and the schedule executor's
  /// first-error signal both arrive here — this is what makes an abort
  /// prompt instead of waiting out the scan.
  CancellationToken cancel;
};

/// Result of one target of a sweep scan.
struct SweepOutput {
  /// The SIT statistic over the target attribute; empty for an exact-map
  /// target.
  Histogram histogram;
  /// Estimated |generating query| — the total (fractional) weight of the
  /// approximated stream.
  double estimated_cardinality = 0.0;
  /// Rows of positive multiplicity whose attribute is NaN: skipped, so
  /// neither accumulated nor counted in estimated_cardinality.
  uint64_t nan_rows = 0;
  /// Exact weighted multiplicity map, attribute value -> summed
  /// multiplicity in row order (only if build_exact_map was set).
  WeightTable exact_map;
  /// This target's share of the scan's physical work: the scan and its
  /// rows, and rows x this target's joins in m-Oracle lookups
  /// (index_lookups for exact oracles, histogram_lookups for approximating
  /// ones). Joins are shared per scan, so targets that share a join both
  /// count its lookups.
  IoStats io_stats;
};

/// Performs one sequential scan over spec.table and builds every target
/// (steps 1-5 of Figure 2, generalized to shared scans and multi-way
/// joins). Fractional expected multiplicities are converted to integral
/// stream copies by unbiased randomized rounding when sampling; the
/// no-sampling path keeps exact fractional weights, summed per value in row
/// order. Every target skips a row whose attribute is NaN (NaN joins
/// nothing) and counts it in SweepOutput::nan_rows; AdvanceSweepBuilds
/// fails a root step that skipped any. A histogram target fails with
/// InvalidArgument on a row of positive multiplicity whose attribute is
/// infinite, as the histogram builder does.
///
/// `rng` is the fallback random stream for targets that don't carry their
/// own (SweepTarget::rng); it may be null if every target does. With
/// spec.use_sampling, two targets resolving to the same stream are an
/// InvalidArgument. Rows are processed target by target within each
/// batch, which only private streams make order-independent. A sampled
/// target rounds a whole batch, then merges it into its reservoir at once
/// (kScanBatchRows rows per merge, whatever the thread count).
///
/// Counts its own work: m-Oracle lookups are rows x joins, tallied once
/// per batch, and the scan books them (with the sit.* counters and
/// sampling.slots_merged, the reservoir slots its merges refilled) into
/// the telemetry registry once, when it ends; the sweep.scan span carries
/// the same slots_merged. Each output carries its target's share in
/// SweepOutput::io_stats.
Result<std::vector<SweepOutput>> SweepScanTable(Catalog* catalog,
                                                const SweepScanSpec& spec,
                                                Rng* rng);

}  // namespace sitstats

#endif  // SITSTATS_SIT_SWEEP_SCAN_H_
