#include "storage/cost_model.h"

#include <cmath>

namespace sitstats {

double CostModel::SequentialScanCost(uint64_t num_rows) const {
  if (num_rows == 0) return 0.0;
  double cost = static_cast<double>(num_rows) / rows_per_cost_unit;
  return cost < 1.0 ? 1.0 : cost;
}

uint64_t CostModel::SampleSize(uint64_t num_rows, double rate) const {
  if (num_rows == 0 || !(rate > 0.0)) return 0;  // !(>) also rejects NaN
  if (rate >= 1.0) return num_rows;
  double size = std::ceil(static_cast<double>(num_rows) * rate);
  uint64_t clamped = static_cast<uint64_t>(size);
  return clamped > num_rows ? num_rows : clamped;
}

}  // namespace sitstats
