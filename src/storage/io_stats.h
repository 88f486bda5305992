#ifndef SITSTATS_STORAGE_IO_STATS_H_
#define SITSTATS_STORAGE_IO_STATS_H_

#include <cstdint>
#include <string>

namespace sitstats {

/// The physical work of one operation: the sequential scans a build or a
/// schedule step performed, the rows they read, and the m-Oracle lookups
/// they caused. SIT-creation experiments compare techniques by these
/// counts.
///
/// A plain per-operation tally: each sweep scan counts its own work and
/// hands every target its share (SweepOutput::io_stats); builds and
/// schedules add those shares up. The process-wide totals live in the
/// telemetry registry under "storage.*", booked once per scan.
struct IoStats {
  uint64_t sequential_scans = 0;
  uint64_t rows_scanned = 0;
  uint64_t index_lookups = 0;
  uint64_t histogram_lookups = 0;

  IoStats& operator+=(const IoStats& other);
  bool operator==(const IoStats& other) const = default;

  std::string ToString() const;
};

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_IO_STATS_H_
