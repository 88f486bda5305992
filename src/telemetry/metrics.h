#ifndef SITSTATS_TELEMETRY_METRICS_H_
#define SITSTATS_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace sitstats {
namespace telemetry {

class SlidingWindowHistogram;

/// The shared log2 binning rule: bin 0 holds values < 1, bin k holds
/// [2^(k-1), 2^k). Used by both the lifetime LatencyHistogram and the
/// rolling SlidingWindowHistogram so their percentiles are comparable.
size_t Log2BinIndex(double value);

/// Value at percentile p in [0, 100] over `bins` (64 log2 bins holding
/// `count` samples total), interpolating linearly inside the winning bin
/// and clamping to the observed [min, max].
double Log2BinsPercentile(const uint64_t* bins, uint64_t count, double min,
                          double max, double p);

/// Monotonic event counter. Increments are relaxed atomic adds, safe from
/// any thread; hot call sites should cache the `Counter&` handle returned
/// by MetricsRegistry::GetCounter instead of re-resolving the name.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge (e.g. the cost of the most recent schedule). Set/Add
/// are lock-free CAS loops so gauges are safe from any thread.
class Gauge {
 public:
  void Set(double value) { bits_.store(Encode(value), std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }
  void Reset() { Set(0.0); }

 private:
  static uint64_t Encode(double value);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};
};

/// Histogram of non-negative measurements (latencies, sizes) over
/// log2-scaled bins: bin 0 holds values < 1, bin k holds [2^(k-1), 2^k).
/// Recording is a handful of relaxed atomic operations; percentile
/// estimates interpolate within the winning bin, so they are exact to a
/// factor of 2 regardless of the value range (the StatHist idea).
class LatencyHistogram {
 public:
  static constexpr size_t kNumBins = 64;

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;
  double max() const;
  double mean() const;
  /// Approximate value at percentile p in [0, 100].
  double ValueAtPercentile(double p) const;
  uint64_t bin_count(size_t bin) const {
    return bins_[bin].load(std::memory_order_relaxed);
  }
  /// Lower bound of bin k (0 for k = 0, else 2^(k-1)).
  static double BinLowerBound(size_t bin);

  void Reset();

 private:
  static size_t BinIndex(double value);

  // Doubles stored as bit patterns and updated with CAS loops; min/max
  // start at +/-infinity so the first Record wins unconditionally.
  static constexpr uint64_t kPosInfBits = 0x7FF0000000000000ull;
  static constexpr uint64_t kNegInfBits = 0xFFF0000000000000ull;

  std::atomic<uint64_t> bins_[kNumBins]{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> min_bits_{kPosInfBits};
  std::atomic<uint64_t> max_bits_{kNegInfBits};
};

/// Process-wide registry of named metrics. Get* registers on first use and
/// returns a reference with a stable address for the life of the process,
/// so call sites can cache handles (typically in a function-local static).
/// All methods are thread-safe.
class MetricsRegistry {
 public:
  /// The process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LatencyHistogram& GetHistogram(const std::string& name);

  /// Rolling-window companion histograms (telemetry/sliding_window.h).
  /// First use fixes the window; later calls with a different
  /// `window_us` return the existing histogram unchanged.
  SlidingWindowHistogram& GetWindowHistogram(const std::string& name,
                                             uint64_t window_us,
                                             size_t num_slots = 8);
  std::vector<std::string> WindowHistogramNames() const;
  const SlidingWindowHistogram* FindWindowHistogram(
      const std::string& name) const;

  /// Name -> current value snapshots (sorted by name).
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::string> HistogramNames() const;
  /// The histogram registered under `name`, or nullptr.
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  /// Flat JSON dump: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
  /// bins: [{lo, count}, ...nonempty...]}}}.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

  /// Zeroes every registered metric (registrations are kept). Intended for
  /// tests and benchmark harness resets, not for steady-state operation:
  /// a reset between a reader's before/after values corrupts its delta.
  void ResetAll();

 private:
  // mu_ guards the name->metric maps only; the metric objects themselves
  // are lock-free atomics (SlidingWindowHistogram locks internally) with
  // stable addresses, so handles returned by Get* outlive the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<SlidingWindowHistogram>> windows_
      GUARDED_BY(mu_);
};

}  // namespace telemetry
}  // namespace sitstats

#endif  // SITSTATS_TELEMETRY_METRICS_H_
