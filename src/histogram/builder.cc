#include "histogram/builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/timer.h"
#include "telemetry/telemetry.h"

namespace sitstats {

namespace {

/// Shared per-build bookkeeping: counts every build and records its wall
/// time into the `histogram.build_ms` latency histogram on destruction.
class BuildTelemetry {
 public:
  BuildTelemetry(const HistogramSpec& spec, const char* source)
      : span_("histogram.build") {
    static telemetry::Counter& builds =
        telemetry::MetricsRegistry::Global().GetCounter("histogram.builds");
    builds.Increment();
    span_.AddAttribute("type", HistogramTypeToString(spec.type));
    span_.AddAttribute("buckets", static_cast<double>(spec.num_buckets));
    span_.AddAttribute("source", source);
  }
  ~BuildTelemetry() {
    static telemetry::LatencyHistogram& build_ms =
        telemetry::MetricsRegistry::Global().GetHistogram(
            "histogram.build_ms");
    build_ms.Record(timer_.ElapsedSeconds() * 1e3);
  }

 private:
  telemetry::TraceSpan span_;
  Timer timer_;
};

}  // namespace

namespace {

/// A distinct value with its (possibly fractional) multiplicity.
struct ValueCount {
  double value;
  double count;
};

Status NonFinite(const char* what, double v) {
  return Status::InvalidArgument(std::string("histogram input has a ") +
                                 what + " that is not finite: " +
                                 std::to_string(v));
}

/// Collapses sorted (value, weight) items into one (value, count) pair per
/// run of equal values, summing the weights in input order; -0.0 is stored
/// as +0.0. Sized exactly, so the result never holds a doubled growth
/// buffer.
template <typename T, typename Value, typename Weight>
std::vector<ValueCount> CollapseSorted(const std::vector<T>& items,
                                       Value value, Weight weight) {
  size_t distinct = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    distinct += i == 0 || value(items[i]) != value(items[i - 1]);
  }
  std::vector<ValueCount> vc;
  vc.reserve(distinct);
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0 && value(items[i]) == value(items[i - 1])) {
      vc.back().count += weight(items[i]);
    } else {
      vc.push_back(ValueCount{value(items[i]) + 0.0, weight(items[i])});
    }
  }
  return vc;
}

/// Radix-sorts `values` and collapses duplicates into (value, count)
/// pairs. Fails on a non-finite value.
Result<std::vector<ValueCount>> ToValueCounts(std::vector<double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return NonFinite("value", v);
  }
  RadixSort(&values);
  return CollapseSorted(
      values, [](double v) { return v; }, [](double) { return 1.0; });
}

/// Drops non-positive weights, radix-sorts the pairs by (value, weight) --
/// the order std::sort gives them, so each value's weights are summed in
/// the same order -- and merges equal values. Fails on a non-finite value
/// or weight.
Result<std::vector<ValueCount>> ToValueCountsWeighted(
    std::vector<std::pair<double, double>> weighted) {
  for (const auto& [value, weight] : weighted) {
    if (!std::isfinite(value)) return NonFinite("value", value);
    if (!std::isfinite(weight)) return NonFinite("weight", weight);
  }
  std::erase_if(weighted, [](const auto& p) { return p.second <= 0.0; });
  RadixSort(&weighted);
  return CollapseSorted(
      weighted, [](const auto& p) { return p.first; },
      [](const auto& p) { return p.second; });
}

std::vector<size_t> EquiWidthGroups(const std::vector<ValueCount>& vc,
                                    int num_buckets) {
  double lo = vc.front().value;
  double hi = vc.back().value;
  std::vector<size_t> ends;
  if (hi == lo) {
    ends.push_back(vc.size());
    return ends;
  }
  double width = (hi - lo) / num_buckets;
  size_t i = 0;
  for (int b = 0; b < num_buckets; ++b) {
    double boundary = (b == num_buckets - 1)
                          ? hi
                          : lo + width * static_cast<double>(b + 1);
    while (i < vc.size() && vc[i].value <= boundary) ++i;
    ends.push_back(i);
  }
  ends.back() = vc.size();
  return ends;
}

std::vector<size_t> EquiDepthGroups(const std::vector<ValueCount>& vc,
                                    int num_buckets) {
  double total = 0;
  for (const ValueCount& v : vc) total += v.count;
  double depth = total / num_buckets;
  std::vector<size_t> ends;
  double acc = 0.0;
  for (size_t i = 0; i < vc.size(); ++i) {
    acc += vc[i].count;
    if (acc >= depth && static_cast<int>(ends.size()) < num_buckets - 1) {
      ends.push_back(i + 1);
      acc = 0.0;
    }
  }
  ends.push_back(vc.size());
  return ends;
}

/// MaxDiff(V,A): place bucket boundaries at the num_buckets-1 largest
/// differences between the "areas" of adjacent distinct values, where
/// area_i = count_i * spread_i and spread_i = v_{i+1} - v_i.
std::vector<size_t> MaxDiffGroups(const std::vector<ValueCount>& vc,
                                  int num_buckets) {
  const size_t n = vc.size();
  if (n == 1 || num_buckets <= 1) {
    return {n};
  }
  std::vector<double> area(n, 0.0);
  for (size_t i = 0; i + 1 < n; ++i) {
    double spread = vc[i + 1].value - vc[i].value;
    area[i] = vc[i].count * spread;
  }
  // The last value has no successor; give it the previous spread so a
  // heavy final value can still attract a boundary.
  if (n >= 2) {
    double prev_spread = vc[n - 1].value - vc[n - 2].value;
    area[n - 1] = vc[n - 1].count * prev_spread;
  }
  // diff[i] = |area[i+1] - area[i]| is the tension between adjacent values;
  // boundaries go after position i for the largest diffs.
  std::vector<std::pair<double, size_t>> diffs;
  diffs.reserve(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) {
    diffs.emplace_back(std::fabs(area[i + 1] - area[i]), i);
  }
  size_t num_boundaries =
      std::min<size_t>(static_cast<size_t>(num_buckets - 1), diffs.size());
  std::partial_sort(diffs.begin(), diffs.begin() + num_boundaries,
                    diffs.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<size_t> ends;
  ends.reserve(num_boundaries + 1);
  for (size_t k = 0; k < num_boundaries; ++k) {
    ends.push_back(diffs[k].second + 1);
  }
  std::sort(ends.begin(), ends.end());
  ends.push_back(n);
  return ends;
}

/// V-Optimal(V,F): dynamic program minimizing the total within-bucket
/// variance of frequencies. dp[b][i] = minimal error partitioning the
/// first i values into b buckets; sse over a range comes from prefix
/// sums. O(n^2 * buckets).
std::vector<size_t> VOptimalGroups(const std::vector<ValueCount>& vc,
                                   int num_buckets) {
  const size_t n = vc.size();
  const size_t k = std::min<size_t>(static_cast<size_t>(num_buckets), n);
  if (k <= 1 || n <= 1) return {n};
  std::vector<double> prefix(n + 1, 0.0);
  std::vector<double> prefix_sq(n + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + vc[i].count;
    prefix_sq[i + 1] = prefix_sq[i] + vc[i].count * vc[i].count;
  }
  // Sum of squared deviations of counts in [lo, hi).
  auto sse = [&](size_t lo, size_t hi) {
    double cnt = static_cast<double>(hi - lo);
    double sum = prefix[hi] - prefix[lo];
    double sum_sq = prefix_sq[hi] - prefix_sq[lo];
    return sum_sq - sum * sum / cnt;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // dp over buckets; parent pointers for reconstruction.
  std::vector<double> prev(n + 1, kInf);
  std::vector<std::vector<size_t>> split(
      k + 1, std::vector<size_t>(n + 1, 0));
  for (size_t i = 1; i <= n; ++i) prev[i] = sse(0, i);
  std::vector<double> cur(n + 1, kInf);
  for (size_t b = 2; b <= k; ++b) {
    std::fill(cur.begin(), cur.end(), kInf);
    for (size_t i = b; i <= n; ++i) {
      for (size_t j = b - 1; j < i; ++j) {
        double candidate = prev[j] + sse(j, i);
        if (candidate < cur[i]) {
          cur[i] = candidate;
          split[b][i] = j;
        }
      }
    }
    std::swap(prev, cur);
  }
  // Reconstruct boundaries.
  std::vector<size_t> ends;
  size_t i = n;
  for (size_t b = k; b >= 2; --b) {
    size_t j = split[b][i];
    ends.push_back(i);
    i = j;
  }
  ends.push_back(i);
  std::sort(ends.begin(), ends.end());
  // First entry is the end of bucket 1 etc.; drop a possible leading 0.
  if (!ends.empty() && ends.front() == 0) ends.erase(ends.begin());
  return ends;
}

std::vector<size_t> MakeGroups(const std::vector<ValueCount>& vc,
                               const HistogramSpec& spec) {
  switch (spec.type) {
    case HistogramType::kEquiWidth:
      return EquiWidthGroups(vc, spec.num_buckets);
    case HistogramType::kEquiDepth:
      return EquiDepthGroups(vc, spec.num_buckets);
    case HistogramType::kMaxDiff:
      return MaxDiffGroups(vc, spec.num_buckets);
    case HistogramType::kVOptimal:
      return VOptimalGroups(vc, spec.num_buckets);
  }
  return {vc.size()};
}

/// Per-bucket distinct estimation from sample statistics.
/// `sample_vc` spans [begin, end) of the bucket; `scale` = N/n.
double EstimateBucketDistinct(const std::vector<ValueCount>& sample_vc,
                              size_t begin, size_t end, double scale,
                              double scaled_frequency,
                              DistinctEstimator estimator) {
  double d_sample = static_cast<double>(end - begin);
  double estimate = d_sample;
  switch (estimator) {
    case DistinctEstimator::kSampleCount:
      estimate = d_sample;
      break;
    case DistinctEstimator::kLinearScale:
      estimate = d_sample * scale;
      break;
    case DistinctEstimator::kGee: {
      double once = 0.0;
      double more = 0.0;
      for (size_t i = begin; i < end; ++i) {
        if (sample_vc[i].count == 1.0) {
          once += 1.0;
        } else {
          more += 1.0;
        }
      }
      estimate = std::sqrt(scale) * once + more;
      break;
    }
  }
  // A bucket cannot have fewer distinct values than the sample showed, nor
  // more distinct values than (estimated) tuples.
  estimate = std::max(estimate, d_sample);
  estimate = std::min(estimate, scaled_frequency);
  // When every sampled value in the bucket is integral, the bucket cannot
  // contain more distinct values than the integers in its range. Without
  // this cap GEE explodes on join-amplified populations, where the
  // population/sample ratio is enormous but the value domain is small.
  bool all_integral = true;
  for (size_t i = begin; i < end; ++i) {
    if (sample_vc[i].value != std::floor(sample_vc[i].value)) {
      all_integral = false;
      break;
    }
  }
  if (all_integral) {
    double integer_span = std::floor(sample_vc[end - 1].value) -
                          std::ceil(sample_vc[begin].value) + 1.0;
    estimate = std::min(estimate, std::max(integer_span, 1.0));
  } else if (sample_vc[end - 1].value == sample_vc[begin].value) {
    // A width-0 bucket covers exactly one value whatever the domain;
    // without this cap GEE inflates the distinct count of a repeated
    // non-integral value by sqrt(scale), deflating EstimateEquals by the
    // same factor.
    estimate = 1.0;
  }
  return std::max(estimate, 1.0);
}

}  // namespace

const char* HistogramTypeToString(HistogramType type) {
  switch (type) {
    case HistogramType::kEquiWidth:
      return "EquiWidth";
    case HistogramType::kEquiDepth:
      return "EquiDepth";
    case HistogramType::kMaxDiff:
      return "MaxDiff";
    case HistogramType::kVOptimal:
      return "VOptimal";
  }
  return "?";
}

const char* DistinctEstimatorToString(DistinctEstimator est) {
  switch (est) {
    case DistinctEstimator::kSampleCount:
      return "SampleCount";
    case DistinctEstimator::kLinearScale:
      return "LinearScale";
    case DistinctEstimator::kGee:
      return "GEE";
  }
  return "?";
}

namespace {
Status CheckVOptimalSize(const HistogramSpec& spec, size_t distinct) {
  if (spec.type == HistogramType::kVOptimal && distinct > 4096) {
    return Status::InvalidArgument(
        "V-Optimal histograms are quadratic in distinct values; got " +
        std::to_string(distinct) + " > 4096");
  }
  return Status::OK();
}

/// The shared tail of every build, after sort/dedup: partitions the sorted
/// (value, count) list per spec.type and assembles one bucket per group.
/// Without `sample_scale` the counts are the population's own (exact
/// frequencies and distinct counts); with it they come from a sample, so
/// bucket frequencies are multiplied by the scale N/n and distinct counts
/// estimated per spec.distinct_estimator.
Result<Histogram> ValueCountsToHistogram(const std::vector<ValueCount>& vc,
                                         const HistogramSpec& spec,
                                         std::optional<double> sample_scale) {
  SITSTATS_RETURN_IF_ERROR(CheckVOptimalSize(spec, vc.size()));
  SITSTATS_TRACE_SPAN("histogram.partition");
  std::vector<size_t> ends = MakeGroups(vc, spec);
  std::vector<Bucket> buckets;
  size_t begin = 0;
  for (size_t end : ends) {
    if (end == begin) continue;
    Bucket b;
    b.lo = vc[begin].value;
    b.hi = vc[end - 1].value;
    double freq = 0.0;
    for (size_t i = begin; i < end; ++i) freq += vc[i].count;
    if (sample_scale.has_value()) {
      b.frequency = freq * *sample_scale;
      b.distinct_values =
          EstimateBucketDistinct(vc, begin, end, *sample_scale, b.frequency,
                                 spec.distinct_estimator);
    } else {
      b.frequency = freq;
      b.distinct_values = static_cast<double>(end - begin);
    }
    buckets.push_back(b);
    begin = end;
  }
  Histogram h(std::move(buckets));
  SITSTATS_RETURN_IF_ERROR(h.CheckValid());
  SITSTATS_DCHECK_OK(h.Validate());
  return h;
}
}  // namespace

Result<Histogram> BuildHistogram(std::vector<double> values,
                                 const HistogramSpec& spec) {
  SITSTATS_FAULT_SITE("histogram.build");
  if (spec.num_buckets <= 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  if (values.empty()) return Histogram();
  // The build's peak allocation: the radix scratch array (a double per
  // value) during the sort, then the value counts (a ValueCount per
  // distinct value, at most one per value).
  SITSTATS_OOM_SITE(
      "oom.histogram.value_counts",
      values.size() * std::max(sizeof(double), sizeof(ValueCount)));
  BuildTelemetry telemetry(spec, "values");
  std::vector<ValueCount> vc;
  {
    SITSTATS_TRACE_SPAN("histogram.sort_dedup");
    SITSTATS_ASSIGN_OR_RETURN(vc, ToValueCounts(std::move(values)));
  }
  return ValueCountsToHistogram(vc, spec, std::nullopt);
}

Result<Histogram> BuildHistogramFromSample(std::vector<double> sample,
                                           double population_size,
                                           const HistogramSpec& spec) {
  SITSTATS_FAULT_SITE("histogram.build.sample");
  if (spec.num_buckets <= 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  if (population_size < 0.0) {
    return Status::InvalidArgument("population_size must be non-negative");
  }
  if (sample.empty()) return Histogram();
  BuildTelemetry telemetry(spec, "sample");
  std::vector<ValueCount> vc;
  {
    SITSTATS_TRACE_SPAN("histogram.sort_dedup");
    SITSTATS_ASSIGN_OR_RETURN(vc, ToValueCounts(std::move(sample)));
  }
  double sample_size = 0.0;
  for (const ValueCount& v : vc) sample_size += v.count;
  return ValueCountsToHistogram(vc, spec, population_size / sample_size);
}

Result<Histogram> BuildHistogramWeighted(
    std::vector<std::pair<double, double>> weighted,
    const HistogramSpec& spec) {
  SITSTATS_FAULT_SITE("histogram.build.weighted");
  if (spec.num_buckets <= 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  BuildTelemetry telemetry(spec, "weighted");
  std::vector<ValueCount> vc;
  {
    SITSTATS_TRACE_SPAN("histogram.sort_dedup");
    SITSTATS_ASSIGN_OR_RETURN(vc, ToValueCountsWeighted(std::move(weighted)));
  }
  if (vc.empty()) return Histogram();
  return ValueCountsToHistogram(vc, spec, std::nullopt);
}

}  // namespace sitstats
