#ifndef SITSTATS_SIT_M_ORACLE_H_
#define SITSTATS_SIT_M_ORACLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "histogram/grid_histogram.h"
#include "histogram/histogram.h"
#include "storage/index.h"

namespace sitstats {

/// The m-Oracle of Sweep (Section 3.1): given the join value y of a tuple
/// scanned from table S, estimate the multiplicity of y in the other join
/// operand R — i.e. the number of matches for the tuple in R ⋈ S.
class MultiplicityOracle {
 public:
  virtual ~MultiplicityOracle() = default;

  /// (Expected) number of matching tuples for join value `y`. May be
  /// fractional for approximating oracles.
  virtual double Multiplicity(double y) const = 0;

  /// Multi-column variant for composite join predicates (the scanned
  /// tuple's values for every predicate column, in predicate order).
  /// Single-column oracles ignore everything past the first value.
  virtual double MultiplicityN(const double* values, size_t n) const {
    (void)n;
    return Multiplicity(values[0]);
  }

  /// Number of join columns this oracle consumes (1 unless composite).
  virtual size_t num_columns() const { return 1; }

  /// Batched lookup over columnar input: `columns[c][r]` is row r's value
  /// for predicate column c, and `out[r]` receives that row's multiplicity.
  /// The base implementation loops MultiplicityN; the batched sweep calls
  /// this once per ScanBatch so the per-row cost is one (devirtualizable)
  /// call on the concrete oracle instead of scan-level dispatch per tuple.
  virtual void MultiplicityBatch(const double* const* columns,
                                 size_t num_columns, size_t num_rows,
                                 double* out) const;

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
class HistogramMOracle : public MultiplicityOracle {
 public:
  HistogramMOracle(Histogram other_side, Histogram scanned_side,
                   ContainmentMode mode = ContainmentMode::kDensityNormalized)
      : other_side_(std::move(other_side)),
        scanned_side_(std::move(scanned_side)),
        mode_(mode) {}

  double Multiplicity(double y) const override;
  bool exact() const override { return false; }
  std::string Describe() const override { return "HistogramMOracle"; }

  const Histogram& other_side() const { return other_side_; }

 private:
  Histogram other_side_;
  Histogram scanned_side_;
  ContainmentMode mode_;
};

/// Exact m-Oracle over a base table: repeated lookups on a sorted index
/// over R.x (the SweepIndex idea). Multiplicities are exact.
class IndexMOracle : public MultiplicityOracle {
 public:
  /// `index` is borrowed and must outlive the oracle.
  explicit IndexMOracle(const SortedIndex* index) : index_(index) {}

  double Multiplicity(double y) const override;
  bool exact() const override { return true; }
  std::string Describe() const override {
    return "IndexMOracle(" + index_->table_name() + "." +
           index_->column_name() + ")";
  }

 private:
  const SortedIndex* index_;
};

/// Approximating m-Oracle for a *composite* (two-predicate) join between
/// the scanned table and a base table, backed by 2D grid histograms over
/// the two join-column pairs. Both grids are built with identical bounds,
/// so cells align and the containment estimate is the per-cell
///   f_R / max(dv_R, dv_S)
/// — the natural 2D generalization of Section 3.1.1. Crucially the joint
/// grid captures correlation *between the two predicates*, which two
/// independent 1D histograms cannot.
class GridMOracle : public MultiplicityOracle {
 public:
  GridMOracle(GridHistogram2D other_side, GridHistogram2D scanned_side)
      : other_side_(std::move(other_side)),
        scanned_side_(std::move(scanned_side)) {}

  double Multiplicity(double y) const override {
    return MultiplicityN(&y, 1);
  }
  double MultiplicityN(const double* values, size_t n) const override;
  size_t num_columns() const override { return 2; }
  bool exact() const override { return false; }
  std::string Describe() const override { return "GridMOracle"; }

 private:
  GridHistogram2D other_side_;
  GridHistogram2D scanned_side_;
};

/// Exact m-Oracle over a composite key: a hash map from the byte-encoded
/// tuple of join values to the exact multiplicity. Used by
/// SweepIndex/SweepExact for composite predicates (the composite-key
/// analogue of an index) and buildable directly from base-table columns.
class CompositeExactMOracle : public MultiplicityOracle {
 public:
  /// Encodes a tuple of doubles into the map key.
  static std::string EncodeKey(const double* values, size_t n);

  CompositeExactMOracle(std::unordered_map<std::string, double> counts,
                        size_t columns)
      : counts_(std::move(counts)), columns_(columns) {}

  /// Builds the exact composite-count map over `columns` of `table`.
  static Result<CompositeExactMOracle> BuildFromTable(
      const Table& table, const std::vector<std::string>& columns);

  double Multiplicity(double y) const override {
    return MultiplicityN(&y, 1);
  }
  double MultiplicityN(const double* values, size_t n) const override;
  size_t num_columns() const override { return columns_; }
  bool exact() const override { return true; }
  std::string Describe() const override { return "CompositeExactMOracle"; }

 private:
  std::unordered_map<std::string, double> counts_;
  size_t columns_;
};

/// Exact m-Oracle over an *intermediate* join result that was never
/// materialized: a hash map from join value to the total (possibly
/// fractional) multiplicity accumulated during the previous Sweep scan.
/// This generalizes SweepIndex/SweepExact to multi-join generating
/// queries, where the other join operand is not a base table and hence
/// has no index.
class ExactMapMOracle : public MultiplicityOracle {
 public:
  explicit ExactMapMOracle(std::unordered_map<double, double> multiplicities)
      : multiplicities_(std::move(multiplicities)) {}

  double Multiplicity(double y) const override;
  bool exact() const override { return true; }
  std::string Describe() const override { return "ExactMapMOracle"; }

 private:
  std::unordered_map<double, double> multiplicities_;
};

}  // namespace sitstats

#endif  // SITSTATS_SIT_M_ORACLE_H_
