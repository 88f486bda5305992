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

/// The exact m-Oracle: a row's multiplicity is its key's entry in one
/// WeightTable (a key is a tuple of width() join values). The table is
/// borrowed, when the other operand is a base table: the catalog's count
/// table over its join column(s), one per predicate of a composite edge
/// (Catalog::EnsureIndex). Or it is owned: the previous Sweep scan's exact
/// map of a never-materialized intermediate result (SweepOutput::exact_map),
/// which extends SweepIndex/SweepExact to multi-join generating queries.
/// Not copyable or movable: `table_` may point into `owned_`.
class ExactMOracle : public MultiplicityOracle {
 public:
  /// Borrows `counts`, the catalog's index over `key_set`
  /// ("Table.column[,column...]"); it must outlive the oracle.
  ExactMOracle(const WeightTable* counts, const std::string& key_set)
      : table_(counts), description_("IndexMOracle(" + key_set + ")") {}
  /// Owns `multiplicities`, a previous sweep step's exact map.
  explicit ExactMOracle(WeightTable multiplicities)
      : owned_(std::move(multiplicities)),
        table_(&owned_),
        description_("ExactMapMOracle") {
    owned_.Compact();
  }
  ExactMOracle(const ExactMOracle&) = delete;
  ExactMOracle& operator=(const ExactMOracle&) = delete;

  void MultiplicityBatch(const double* const* columns, size_t num_columns,
                         size_t num_rows, double* out) const override {
    (void)num_columns;
    table_->Lookup(columns, num_rows, out);
  }
  size_t num_columns() const override { return table_->width(); }
  bool exact() const override { return true; }
  std::string Describe() const override { return description_; }

 private:
  WeightTable owned_;  // empty when borrowing
  const WeightTable* table_;
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

}  // namespace sitstats

#endif  // SITSTATS_SIT_M_ORACLE_H_
