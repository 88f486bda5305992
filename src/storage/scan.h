#ifndef SITSTATS_STORAGE_SCAN_H_
#define SITSTATS_STORAGE_SCAN_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace sitstats {

/// Default number of rows per ScanBatch: large enough that per-batch
/// bookkeeping amortizes to nothing, small enough that the working set
/// (a few slots x 4096 doubles) stays in L2.
inline constexpr size_t kScanBatchRows = 4096;

/// One batch of scanned rows. Each projected slot exposes a contiguous
/// span of `num_rows` doubles — double columns point straight into column
/// storage (zero-copy, mmap-friendly), int64 columns are widened into a
/// staging buffer owned by the scan. Spans are invalidated by the next
/// NextBatch call.
struct ScanBatch {
  size_t num_rows = 0;
  std::vector<std::span<const double>> columns;

  std::span<const double> column(size_t i) const { return columns[i]; }
};

/// Cursor for one sequential scan over a table, restricted to a projection
/// of numeric columns. This is the physical operation Sweep performs once
/// per (non-root) table. Opening a scan books one storage.sequential_scans
/// and every batch books its rows into storage.rows_scanned (telemetry
/// registry), so the row loop touches no shared state.
///
///   SITSTATS_ASSIGN_OR_RETURN(SequentialScan scan,
///       SequentialScan::Open(&catalog, "S", {"y", "a"}));
///   ScanBatch batch;
///   while (scan.NextBatch(&batch)) {
///     std::span<const double> y = batch.column(0), a = batch.column(1);
///   }
class SequentialScan {
 public:
  /// Opens a scan over `columns` of `table_name`. All projected columns
  /// must be numeric.
  static Result<SequentialScan> Open(Catalog* catalog,
                                     const std::string& table_name,
                                     const std::vector<std::string>& columns);

  SequentialScan(SequentialScan&&) noexcept = default;
  SequentialScan& operator=(SequentialScan&&) noexcept = default;
  SequentialScan(const SequentialScan&) = delete;
  SequentialScan& operator=(const SequentialScan&) = delete;

  /// Fills `out` with the next run of up to `max_rows` rows; false (with
  /// `out->num_rows == 0`) once the input is exhausted. The spans in `out`
  /// stay valid until the next call on this scan.
  bool NextBatch(ScanBatch* out, size_t max_rows = kScanBatchRows);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }
  const std::string& table_name() const { return table_name_; }

 private:
  SequentialScan() = default;

  std::string table_name_;
  std::vector<const Column*> columns_;
  /// Per-slot widening buffers for int64 columns.
  std::vector<std::vector<double>> staging_;
  size_t num_rows_ = 0;
  size_t next_row_ = 0;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_SCAN_H_
