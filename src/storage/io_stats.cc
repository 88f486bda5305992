#include "storage/io_stats.h"

#include <sstream>

namespace sitstats {

IoStats& IoStats::operator+=(const IoStats& other) {
  sequential_scans += other.sequential_scans;
  rows_scanned += other.rows_scanned;
  index_lookups += other.index_lookups;
  histogram_lookups += other.histogram_lookups;
  return *this;
}

std::string IoStats::ToString() const {
  std::ostringstream os;
  os << "seq_scans=" << sequential_scans << " rows_scanned=" << rows_scanned
     << " index_lookups=" << index_lookups
     << " histogram_lookups=" << histogram_lookups;
  return os.str();
}

}  // namespace sitstats
