#include "histogram/join_estimate.h"

#include <algorithm>

namespace sitstats {

namespace {

/// Frequency and distinct mass of `b` restricted to the closed interval
/// [lo, hi], assuming uniform spread inside the bucket. Point overlaps on a
/// non-singleton bucket contribute a single distinct-value group.
struct BucketFragment {
  double frequency = 0.0;
  double distinct = 0.0;
};

BucketFragment Restrict(const Bucket& b, double lo, double hi) {
  BucketFragment frag;
  double a = std::max(b.lo, lo);
  double z = std::min(b.hi, hi);
  if (z < a || b.frequency <= 0.0) return frag;
  if (b.Width() == 0.0) {
    frag.frequency = b.frequency;
    frag.distinct = std::max(b.distinct_values, 1.0);
    return frag;
  }
  if (z == a) {
    // Point overlap: one distinct-value group's worth of tuples.
    frag.frequency = b.TuplesPerDistinct();
    frag.distinct = 1.0;
    return frag;
  }
  double fraction = (z - a) / b.Width();
  frag.frequency = b.frequency * fraction;
  // Never model less than one group for a fragment that has tuples: a
  // sub-one distinct count would inflate f/dv beyond any real group.
  frag.distinct =
      std::max(b.distinct_values * fraction, std::min(1.0, b.distinct_values));
  return frag;
}

}  // namespace

double EstimateJoinCardinality(const Histogram& r, const Histogram& s) {
  if (r.empty() || s.empty()) return 0.0;
  double total = 0.0;
  size_t i = 0;
  size_t j = 0;
  // Buckets are closed ranges, so inputs whose adjacent buckets share an
  // endpoint v (CheckValid forbids that within one histogram, but this
  // function accepts unvalidated inputs, e.g. a singleton bucket starting
  // where its neighbor ends) produce two consecutive overlaps that both
  // contain v. The second, a point overlap [v, v], would count v's groups
  // a second time; remember the end of the last overlap that contributed
  // and skip a point overlap sitting exactly on it.
  bool have_counted = false;
  double last_counted_hi = 0.0;
  while (i < r.num_buckets() && j < s.num_buckets()) {
    const Bucket& br = r.bucket(i);
    const Bucket& bs = s.bucket(j);
    double lo = std::max(br.lo, bs.lo);
    double hi = std::min(br.hi, bs.hi);
    if (lo <= hi) {
      const bool duplicate_point =
          lo == hi && have_counted && last_counted_hi == hi;
      if (!duplicate_point) {
        BucketFragment fr = Restrict(br, lo, hi);
        BucketFragment fs = Restrict(bs, lo, hi);
        double max_dv = std::max(fr.distinct, fs.distinct);
        if (max_dv > 0.0) {
          double contribution = fr.frequency * fs.frequency / max_dv;
          total += contribution;
          if (contribution > 0.0) {
            have_counted = true;
            last_counted_hi = hi;
          }
        }
      }
    }
    // Advance the bucket that ends first.
    if (br.hi < bs.hi) {
      ++i;
    } else if (bs.hi < br.hi) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return total;
}

}  // namespace sitstats
