#ifndef SITSTATS_STORAGE_COST_MODEL_H_
#define SITSTATS_STORAGE_COST_MODEL_H_

#include <cstdint>

#include "storage/table.h"

namespace sitstats {

/// Cost model used by the multi-SIT scheduler (Section 4 of the paper).
///
/// The paper charges Cost(T) = |T| / 1000 abstract units per sequential scan
/// (cost proportional to input size) and SampleSize(T) = s * |T| values of
/// memory per in-flight sample set.
struct CostModel {
  /// Rows per abstract cost unit (the paper's 1000).
  double rows_per_cost_unit = 1000.0;

  /// Paper-style scan cost: |T| / rows_per_cost_unit, never below 1 for a
  /// non-empty table.
  double SequentialScanCost(uint64_t num_rows) const;
  double SequentialScanCost(const Table& table) const {
    return SequentialScanCost(table.num_rows());
  }

  /// Memory (in values) for one sample set at sampling rate `rate`:
  /// ceil(rate * num_rows), clamped to [0, num_rows]. A sample drawn from
  /// a table can never hold more values than the table has rows (rates
  /// above 1 and rounding both clamp), and an empty table yields an empty
  /// sample; non-finite or negative rates yield 0.
  uint64_t SampleSize(uint64_t num_rows, double rate) const;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_COST_MODEL_H_
