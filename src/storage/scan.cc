#include "storage/scan.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sitstats {

Result<SequentialScan> SequentialScan::Open(
    Catalog* catalog, const std::string& table_name,
    const std::vector<std::string>& columns) {
  telemetry::TraceSpan span("storage.open_scan");
  span.AddAttribute("table", table_name);
  SITSTATS_FAULT_SITE("storage.scan.open");
  SITSTATS_ASSIGN_OR_RETURN(const Table* table, catalog->GetTable(table_name));
  SequentialScan scan;
  scan.table_name_ = table_name;
  scan.num_rows_ = table->num_rows();
  for (const std::string& name : columns) {
    SITSTATS_ASSIGN_OR_RETURN(const Column* col, table->GetColumn(name));
    if (col->type() == ValueType::kString) {
      return Status::InvalidArgument("scan projection over string column " +
                                     table_name + "." + name);
    }
    scan.columns_.push_back(col);
  }
  scan.staging_.resize(scan.columns_.size());
  static telemetry::Counter& sequential_scans =
      telemetry::MetricsRegistry::Global().GetCounter(
          "storage.sequential_scans");
  sequential_scans.Increment();
  return scan;
}

bool SequentialScan::NextBatch(ScanBatch* out, size_t max_rows) {
  if (next_row_ >= num_rows_ || max_rows == 0) {
    out->num_rows = 0;
    return false;
  }
  const size_t n = std::min(max_rows, num_rows_ - next_row_);
  out->columns.resize(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& col = *columns_[i];
    if (col.type() == ValueType::kDouble) {
      out->columns[i] = col.double_data().subspan(next_row_, n);
      continue;
    }
    // Widen int64 cells into the slot's staging buffer. Plain indexed
    // loop over two restrict-able contiguous arrays: auto-vectorizes.
    std::span<const int64_t> src = col.int64_data();
    std::vector<double>& buf = staging_[i];
    buf.resize(n);
    const int64_t* in = src.data() + next_row_;
    double* dst = buf.data();
    for (size_t r = 0; r < n; ++r) dst[r] = static_cast<double>(in[r]);
    out->columns[i] = {buf.data(), n};
  }
  out->num_rows = n;
  next_row_ += n;
  static telemetry::Counter& rows_scanned =
      telemetry::MetricsRegistry::Global().GetCounter("storage.rows_scanned");
  rows_scanned.Increment(n);
  return true;
}

}  // namespace sitstats
