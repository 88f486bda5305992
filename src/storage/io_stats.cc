#include "storage/io_stats.h"

#include <sstream>

namespace sitstats {

IoStats& IoStats::operator+=(const IoStats& other) {
  sequential_scans += other.sequential_scans;
  rows_scanned += other.rows_scanned;
  index_lookups += other.index_lookups;
  histogram_lookups += other.histogram_lookups;
  temp_rows_spilled += other.temp_rows_spilled;
  return *this;
}

std::string IoStats::ToString() const {
  std::ostringstream os;
  os << "seq_scans=" << sequential_scans << " rows_scanned=" << rows_scanned
     << " index_lookups=" << index_lookups
     << " histogram_lookups=" << histogram_lookups
     << " temp_rows_spilled=" << temp_rows_spilled;
  return os.str();
}

}  // namespace sitstats
