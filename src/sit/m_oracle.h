#ifndef SITSTATS_SIT_M_ORACLE_H_
#define SITSTATS_SIT_M_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "histogram/grid_histogram.h"
#include "histogram/histogram.h"
#include "storage/weight_table.h"

namespace sitstats {

/// The m-Oracle of Sweep (Section 3.1): given the join value y of a tuple
/// scanned from table S, estimate the multiplicity of y in the other join
/// operand R — i.e. the number of matches for the tuple in R ⋈ S.
///
/// Every oracle compiles itself at construction into one flat table that
/// answers a row with one lookup, and MultiplicityBatch is its one
/// evaluation method (DESIGN.md note 15).
class MultiplicityOracle {
 public:
  virtual ~MultiplicityOracle() = default;

  /// Batched lookup over columnar input: `columns[c][r]` is row r's value
  /// for predicate column c (`num_columns` >= num_columns()), and `out[r]`
  /// receives that row's (expected) number of matching tuples, which may be
  /// fractional for approximating oracles. The sweep calls it once per
  /// ScanBatch and join.
  virtual void MultiplicityBatch(const double* const* columns,
                                 size_t num_columns, size_t num_rows,
                                 double* out) const = 0;

  /// One-row wrappers over MultiplicityBatch. MultiplicityN takes the row's
  /// values for every predicate column, in predicate order; fewer than
  /// num_columns() values match nothing.
  double Multiplicity(double y) const { return MultiplicityN(&y, 1); }
  double MultiplicityN(const double* values, size_t n) const;

  /// Number of join columns this oracle consumes (1 unless composite).
  virtual size_t num_columns() const { return 1; }

  /// True for oracles that return exact multiplicities (an index or an
  /// exact map), false for approximating ones (histograms). Sweep scans
  /// count an exact oracle's lookups as index_lookups and an approximating
  /// one's as histogram_lookups.
  virtual bool exact() const = 0;

  virtual std::string Describe() const = 0;
};

/// How HistogramMOracle compares the two buckets' distinct counts.
enum class ContainmentMode {
  /// The paper's literal formula f_R / max(dv_R, dv_S). Implicitly assumes
  /// the two buckets cover the same range — biased when they do not
  /// (MaxDiff buckets from different columns never align).
  kPaperRaw,
  /// Density-normalized: both distinct counts are first restricted to the
  /// buckets' overlap. Reduces exactly to kPaperRaw for aligned buckets;
  /// the default (see DESIGN.md note 1 and bench_ablation_moracle).
  kDensityNormalized,
};

/// Histogram-based approximating m-Oracle (Section 3.1.1). Uses histograms
/// over R.x (`other_side`) and S.y (`scanned_side`); under the containment
/// and uniform-spread assumptions the expected multiplicity of y is
///
///     f_{R,y} / max(dv_{R,y}, dv_{S,y})
///
/// where f/dv are the frequency/distinct count of the buckets containing y
/// (modulo the ContainmentMode bucket-alignment correction).
/// Values outside the other side's histogram have multiplicity 0.
/// `other_side` may be a base-table histogram or an intermediate SIT (the
/// chain/tree case of Section 3.2).
///
/// The formula reads y only through the two buckets containing it, so it
/// is piecewise constant: the constructor merges both histograms' bucket
/// endpoints into one sorted breakpoint array and stores the formula's
/// value for every endpoint and every open gap between two. A row finds
/// its piece through an equal-width bin directory over the breakpoints and
/// a fixed number of comparisons within its bin.
class HistogramMOracle : public MultiplicityOracle {
 public:
  HistogramMOracle(const Histogram& other_side, const Histogram& scanned_side,
                   ContainmentMode mode = ContainmentMode::kDensityNormalized);

  void MultiplicityBatch(const double* const* columns, size_t num_columns,
                         size_t num_rows, double* out) const override;
  bool exact() const override { return false; }
  std::string Describe() const override { return "HistogramMOracle"; }

 private:
  size_t Bin(double y) const;

  // Distinct non-NaN bucket endpoints of both sides in ascending order,
  // then NaN padding, so a row's scan never leaves the array.
  std::vector<double> breakpoints_;
  // values_[2k] is the gap below breakpoints_[k] (k = 0 also answers NaN),
  // values_[2k + 1] the point breakpoints_[k].
  std::vector<double> values_;
  // directory_[b]: the index of the first breakpoint whose Bin() is b or
  // above.
  std::vector<uint32_t> directory_;
  double directory_lo_ = 0.0;
  double directory_scale_ = 0.0;
  size_t scan_ = 0;  // most breakpoints in one bin
};

/// Exact m-Oracle over a base table (the SweepIndex idea): it answers from
/// the catalog's index over R.x, the exact row count of every key
/// (Catalog::EnsureIndex), which it borrows rather than copies.
class IndexMOracle : public MultiplicityOracle {
 public:
  /// `counts` is the index over `column` ("Table.column"); it must outlive
  /// the oracle.
  IndexMOracle(const WeightTable* counts, const std::string& column)
      : counts_(counts), description_("IndexMOracle(" + column + ")") {}

  void MultiplicityBatch(const double* const* columns, size_t num_columns,
                         size_t num_rows, double* out) const override {
    (void)num_columns;
    counts_->Lookup(columns, num_rows, out);
  }
  bool exact() const override { return true; }
  std::string Describe() const override { return description_; }

 private:
  const WeightTable* counts_;
  std::string description_;
};

/// Approximating m-Oracle for a *composite* (two-predicate) join between
/// the scanned table and a base table, backed by 2D grid histograms over
/// the two join-column pairs. Both grids must have identical bounds, so
/// cells align and the containment estimate is the per-cell
///   f_R / max(dv_R, dv_S)
/// — the natural 2D generalization of Section 3.1.1. Crucially the joint
/// grid captures correlation *between the two predicates*, which two
/// independent 1D histograms cannot. The constructor stores that value
/// per cell.
class GridMOracle : public MultiplicityOracle {
 public:
  GridMOracle(const GridHistogram2D& other_side,
              const GridHistogram2D& scanned_side);

  void MultiplicityBatch(const double* const* columns, size_t num_columns,
                         size_t num_rows, double* out) const override;
  size_t num_columns() const override { return 2; }
  bool exact() const override { return false; }
  std::string Describe() const override { return "GridMOracle"; }

 private:
  GridHistogram2D::Bounds bounds_;
  std::vector<double> values_;  // one per cell, in CellIndex order
};

/// Exact m-Oracle that owns its table from join value (a tuple of
/// width() values) to multiplicity. Two tables feed it:
///  - an *intermediate* join result that was never materialized: the total
///    (possibly fractional) multiplicity per value accumulated during the
///    previous Sweep scan (SweepOutput::exact_map). This generalizes
///    SweepIndex/SweepExact to multi-join generating queries, where the
///    other join operand is not a base table and hence has no index;
///  - a composite (multi-predicate) edge to a base table: CountKeys over
///    the child's join columns, the composite-key analogue of an index.
class ExactMapMOracle : public MultiplicityOracle {
 public:
  explicit ExactMapMOracle(WeightTable multiplicities)
      : multiplicities_(std::move(multiplicities)) {
    multiplicities_.Compact();
  }

  void MultiplicityBatch(const double* const* columns, size_t num_columns,
                         size_t num_rows, double* out) const override {
    (void)num_columns;
    multiplicities_.Lookup(columns, num_rows, out);
  }
  size_t num_columns() const override { return multiplicities_.width(); }
  bool exact() const override { return true; }
  std::string Describe() const override { return "ExactMapMOracle"; }

 private:
  WeightTable multiplicities_;
};

}  // namespace sitstats

#endif  // SITSTATS_SIT_M_ORACLE_H_
