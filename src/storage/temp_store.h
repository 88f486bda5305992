#ifndef SITSTATS_STORAGE_TEMP_STORE_H_
#define SITSTATS_STORAGE_TEMP_STORE_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sitstats {

/// Append-only store of weighted values — run-length pairs
/// (value, weight) — that spills to a temporary file once an in-memory
/// budget is exceeded. Consecutive appends of the same value are merged.
///
/// No build path uses it: the no-sampling sweep sums each attribute
/// value's weight in a WeightTable (DESIGN.md note 2). It is kept only for
/// perfbench's `storage.temp_store_ms` layer, and goes when that layer
/// does.
///
/// The spill file is created lazily in the system temp directory and
/// removed on destruction.
class TempValueStore {
 public:
  /// `memory_budget_runs`: number of (value, weight) runs kept in memory
  /// before spilling.
  explicit TempValueStore(size_t memory_budget_runs = 1 << 20);
  ~TempValueStore();

  TempValueStore(const TempValueStore&) = delete;
  TempValueStore& operator=(const TempValueStore&) = delete;
  TempValueStore(TempValueStore&& other) noexcept;
  TempValueStore& operator=(TempValueStore&& other) noexcept;

  /// Appends `weight` copies of `value` (fractional weights allowed).
  /// Zero or negative weights are ignored.
  Status Append(double value, double weight = 1.0);

  /// Total weight appended (the modelled population size).
  double total_weight() const { return total_weight_; }
  /// Number of runs stored.
  size_t num_runs() const { return total_runs_; }
  bool spilled() const { return file_ != nullptr; }
  size_t runs_spilled() const { return spilled_runs_; }

  /// Copies every stored run (disk portion first, then the in-memory tail)
  /// into `out`. The store remains appendable afterwards.
  Status ReadAll(std::vector<std::pair<double, double>>* out) const;

 private:
  Status SpillBuffer();
  void CloseFile();

  size_t memory_budget_;
  std::vector<std::pair<double, double>> buffer_;
  std::FILE* file_ = nullptr;
  std::string file_path_;
  size_t spilled_runs_ = 0;
  size_t total_runs_ = 0;
  double total_weight_ = 0.0;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_TEMP_STORE_H_
