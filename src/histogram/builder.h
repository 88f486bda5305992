#ifndef SITSTATS_HISTOGRAM_BUILDER_H_
#define SITSTATS_HISTOGRAM_BUILDER_H_

#include <vector>

#include "common/result.h"
#include "histogram/histogram.h"

namespace sitstats {

/// Bucket-boundary strategies. The paper uses MaxDiff(V,A) histograms
/// (Poosala et al., SIGMOD'96), "natively supported in Microsoft SQL Server
/// 2000"; the others are provided for comparison/ablation. kVOptimal is
/// the dynamic-programming optimum (minimal within-bucket frequency
/// variance) — the gold standard MaxDiff approximates; it costs
/// O(distinct^2 * buckets) to build, so it is capped to inputs with at
/// most 4096 distinct values.
enum class HistogramType { kEquiWidth, kEquiDepth, kMaxDiff, kVOptimal };

/// How to derive per-bucket distinct-value counts when a histogram is built
/// from a *sample* (the "sampling assumption" of Section 2: distinct
/// estimation under sampling is provably hard, so any choice is an
/// approximation).
enum class DistinctEstimator {
  /// Use the sample's distinct count unchanged (maximally naive).
  kSampleCount,
  /// Scale the sample distinct count linearly by N/n, capped at the scaled
  /// frequency.
  kLinearScale,
  /// Guaranteed-Error Estimator (Charikar et al.): sqrt(N/n)*d1 + d2+,
  /// where d1 counts values seen exactly once and d2+ those seen at least
  /// twice. Default.
  kGee,
};

const char* HistogramTypeToString(HistogramType type);
const char* DistinctEstimatorToString(DistinctEstimator est);

/// Parameters for histogram construction.
struct HistogramSpec {
  HistogramType type = HistogramType::kMaxDiff;
  int num_buckets = 100;
  DistinctEstimator distinct_estimator = DistinctEstimator::kGee;
};

/// Builds a histogram over the full `values` population (exact frequencies
/// and distinct counts). `values` is taken by value because construction
/// sorts it. Every builder fails with InvalidArgument on a non-finite
/// value or weight, which has no place in a bucket order.
Result<Histogram> BuildHistogram(std::vector<double> values,
                                 const HistogramSpec& spec);

/// Builds a histogram from a sample of a population of (estimated) size
/// `population_size`: bucket frequencies are scaled by population/sample
/// and per-bucket distinct counts estimated per `spec.distinct_estimator`.
Result<Histogram> BuildHistogramFromSample(std::vector<double> sample,
                                           double population_size,
                                           const HistogramSpec& spec);

/// Builds a histogram over a *weighted* population given as (value, weight)
/// pairs — the run-length representation used when the population is a join
/// result too large to expand (a 4-way join can exceed 10^10 tuples).
/// Weights may be fractional (expected multiplicities); pairs need not be
/// sorted or deduplicated. Frequencies and distinct counts are exact with
/// respect to the weighted input.
Result<Histogram> BuildHistogramWeighted(
    std::vector<std::pair<double, double>> weighted,
    const HistogramSpec& spec);

}  // namespace sitstats

#endif  // SITSTATS_HISTOGRAM_BUILDER_H_
