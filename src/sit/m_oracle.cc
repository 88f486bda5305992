#include "sit/m_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace sitstats {

namespace {

/// The containment formula of Section 3.1.1 for join value y. It reads y
/// only through the buckets FindBucket returns, which is what lets
/// HistogramMOracle tabulate it per piece.
double ContainmentMultiplicity(const Histogram& other_side,
                               const Histogram& scanned_side,
                               ContainmentMode mode, double y) {
  int r_idx = other_side.FindBucket(y);
  if (r_idx < 0) return 0.0;
  const Bucket& br = other_side.bucket(static_cast<size_t>(r_idx));
  double dv_r = std::max(br.distinct_values, 1.0);
  int s_idx = scanned_side.FindBucket(y);
  if (s_idx < 0) {
    // No competing information about the scanned side: y matches one of
    // the dv_R groups.
    return br.frequency / dv_r;
  }
  const Bucket& bs = scanned_side.bucket(static_cast<size_t>(s_idx));
  double dv_s = std::max(bs.distinct_values, 1.0);
  if (mode == ContainmentMode::kPaperRaw) {
    return br.frequency / std::max(dv_r, dv_s);
  }

  // The paper's formula f_R / max(dv_R, dv_S) compares the raw bucket
  // distinct counts, which is only meaningful when the two buckets cover
  // the same range. MaxDiff buckets are not aligned, so we first restrict
  // both distinct counts to the buckets' overlap O (grid density * |O|,
  // floored at one group):
  //   P(y matches) = min(1, n_R / n_S),  multiplicity = (f_R/dv_R) * P.
  // For aligned buckets n_R/n_S = dv_R/dv_S and this reduces exactly to
  // f_R / max(dv_R, dv_S).
  double overlap_lo = std::max(br.lo, bs.lo);
  double overlap_hi = std::min(br.hi, bs.hi);
  double overlap = std::max(overlap_hi - overlap_lo, 0.0);
  auto groups_in_overlap = [overlap](const Bucket& b, double dv) {
    if (b.Width() <= 0.0) return dv;
    return std::max(dv * overlap / b.Width(), 1.0);
  };
  double n_r = groups_in_overlap(br, dv_r);
  double n_s = groups_in_overlap(bs, dv_s);
  double match_probability = std::min(1.0, n_r / n_s);
  return (br.frequency / dv_r) * match_probability;
}

}  // namespace

double MultiplicityOracle::MultiplicityN(const double* values,
                                         size_t n) const {
  const size_t width = num_columns();
  if (n < width) return 0.0;
  std::vector<const double*> columns(width);
  for (size_t c = 0; c < width; ++c) columns[c] = values + c;
  double out = 0.0;
  MultiplicityBatch(columns.data(), width, 1, &out);
  return out;
}

HistogramMOracle::HistogramMOracle(const Histogram& other_side,
                                   const Histogram& scanned_side,
                                   ContainmentMode mode) {
  for (const Histogram* side : {&other_side, &scanned_side}) {
    for (const Bucket& b : side->buckets()) {
      for (double endpoint : {b.lo, b.hi}) {
        if (!std::isnan(endpoint)) breakpoints_.push_back(endpoint);
      }
    }
  }
  std::sort(breakpoints_.begin(), breakpoints_.end());
  // == dedup: -0.0 and +0.0 are one breakpoint, as FindBucket sees them.
  breakpoints_.erase(std::unique(breakpoints_.begin(), breakpoints_.end()),
                     breakpoints_.end());
  const size_t m = breakpoints_.size();

  // A piece's value is the formula at any y inside it. The gap above
  // breakpoint k starts at its successor double; one that reaches the next
  // breakpoint is empty, and its value is never read. The gap below the
  // first breakpoint also answers NaN, which FindBucket never places
  // either, so both give 0.0.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto value_at = [&](double y) {
    return ContainmentMultiplicity(other_side, scanned_side, mode, y);
  };
  values_.reserve(2 * m + 1);
  values_.push_back(m == 0 || breakpoints_[0] == -kInf
                        ? value_at(nan)
                        : value_at(std::nextafter(breakpoints_[0], -kInf)));
  for (size_t k = 0; k < m; ++k) {
    values_.push_back(value_at(breakpoints_[k]));
    values_.push_back(value_at(std::nextafter(breakpoints_[k], kInf)));
  }

  // Bin directory over the finite breakpoints. Bin() is monotone in y, so
  // every breakpoint of a lower bin is below any y of a bin, and every
  // breakpoint of a higher bin above it: a row compares only against its
  // own bin's breakpoints. The directory starts at two bins per breakpoint
  // and doubles (up to kMaxBins) while a bin holds more than kScanTarget,
  // so skewed bucket boundaries (a MaxDiff histogram's singletons) spread
  // out too. scan_ is the fullest bin's count, the fixed number of
  // comparisons per row.
  constexpr size_t kScanTarget = 2;
  constexpr size_t kMaxBins = size_t{1} << 14;
  double finite_lo = kInf;
  double finite_hi = -kInf;
  for (double p : breakpoints_) {
    if (std::isfinite(p)) {
      finite_lo = std::min(finite_lo, p);
      finite_hi = std::max(finite_hi, p);
    }
  }
  for (size_t bins = std::max<size_t>(1, 2 * m);; bins *= 2) {
    directory_.assign(bins, 0);
    directory_lo_ = 0.0;
    directory_scale_ = 0.0;
    if (finite_lo < finite_hi) {
      directory_lo_ = finite_lo;
      directory_scale_ = static_cast<double>(bins) / (finite_hi - finite_lo);
      if (!std::isfinite(directory_scale_)) directory_scale_ = 0.0;
    }
    size_t below = 0;
    scan_ = 0;
    for (size_t bin = 0; bin < bins; ++bin) {
      const size_t first = below;
      while (below < m && Bin(breakpoints_[below]) <= bin) ++below;
      directory_[bin] = static_cast<uint32_t>(first);
      scan_ = std::max(scan_, below - first);
    }
    if (scan_ <= kScanTarget || bins >= kMaxBins) break;
  }
  breakpoints_.resize(m + std::max<size_t>(scan_, 1), nan);
}

size_t HistogramMOracle::Bin(double y) const {
  // NaN (and an infinity times a zero scale) lands in bin 0.
  const double t = (y - directory_lo_) * directory_scale_;
  const size_t last = directory_.size() - 1;
  if (!(t > 0.0)) return 0;
  return t < static_cast<double>(last) ? static_cast<size_t>(t) : last;
}

void HistogramMOracle::MultiplicityBatch(const double* const* columns,
                                         size_t num_columns, size_t num_rows,
                                         double* out) const {
  (void)num_columns;
  const double* y = columns[0];
  const double* breakpoints = breakpoints_.data();
  for (size_t r = 0; r < num_rows; ++r) {
    const double v = y[r];
    // The breakpoints below v: those before the bin's first, plus those of
    // the bin that are (no bin has more than scan_; the NaN padding and
    // higher bins' breakpoints never count). A NaN row stays at piece 0.
    const size_t first = directory_[Bin(v)];
    size_t below = first;
    for (size_t j = 0; j < scan_; ++j) {
      below += breakpoints[first + j] < v ? 1 : 0;
    }
    out[r] = values_[2 * below + (breakpoints[below] == v ? 1 : 0)];
  }
}

GridMOracle::GridMOracle(const GridHistogram2D& other_side,
                         const GridHistogram2D& scanned_side)
    : bounds_(other_side.bounds()), values_(other_side.num_cells(), 0.0) {
  // Aligned cells: the scanned side's cell at (x, y) is the other side's.
  SITSTATS_CHECK(scanned_side.bounds() == bounds_)
      << "GridMOracle needs grids with identical bounds";
  for (size_t i = 0; i < values_.size(); ++i) {
    const GridHistogram2D::Cell& r = other_side.cell(i);
    if (r.distinct_pairs <= 0.0) continue;
    double dv_r = std::max(r.distinct_pairs, 1.0);
    double dv_s = std::max(scanned_side.cell(i).distinct_pairs, 1.0);
    // Cells are aligned by construction (same bounds), so the paper's raw
    // containment formula is unbiased here.
    values_[i] = r.frequency / std::max(dv_r, dv_s);
  }
}

void GridMOracle::MultiplicityBatch(const double* const* columns,
                                    size_t num_columns, size_t num_rows,
                                    double* out) const {
  (void)num_columns;
  const double* x = columns[0];
  const double* y = columns[1];
  for (size_t r = 0; r < num_rows; ++r) {
    const int cell = GridHistogram2D::CellIndex(bounds_, x[r], y[r]);
    out[r] = cell < 0 ? 0.0 : values_[static_cast<size_t>(cell)];
  }
}

}  // namespace sitstats
