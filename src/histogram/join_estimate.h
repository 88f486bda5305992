#ifndef SITSTATS_HISTOGRAM_JOIN_ESTIMATE_H_
#define SITSTATS_HISTOGRAM_JOIN_ESTIMATE_H_

#include "histogram/histogram.h"

namespace sitstats {

/// Estimates |R ⋈ S| on an equality predicate from histograms over the two
/// join columns, under the *containment assumption* (Section 2): buckets
/// are aligned, and within each aligned fragment every distinct-value group
/// on the side with fewer groups joins with some group on the other side,
/// giving the per-fragment estimate f_R * f_S / max(dv_R, dv_S).
double EstimateJoinCardinality(const Histogram& r, const Histogram& s);

}  // namespace sitstats

#endif  // SITSTATS_HISTOGRAM_JOIN_ESTIMATE_H_
