#ifndef SITSTATS_HISTOGRAM_GRID_HISTOGRAM_H_
#define SITSTATS_HISTOGRAM_GRID_HISTOGRAM_H_

#include <utility>
#include <vector>

#include "common/result.h"

namespace sitstats {

/// A two-dimensional equi-width grid histogram over pairs of numeric
/// values. This is the "multidimensional histogram" Section 3.2 calls for
/// when a table pair is joined by two predicates
/// (R ⋈_{R.w=S.x ∧ R.y=S.z} S): the m-Oracle then needs the joint
/// distribution of the two join columns, since treating the predicates
/// independently multiplies their selectivities (the very assumption SITs
/// exist to avoid).
///
/// Cells carry a frequency and an exact distinct-pair count. Two grids
/// built with the same GridBounds are cell-aligned, so the paper's
/// containment formula applies per cell without alignment corrections.
class GridHistogram2D {
 public:
  struct Cell {
    double frequency = 0.0;
    double distinct_pairs = 0.0;
  };

  /// Covering ranges and resolution of a grid.
  struct Bounds {
    double x_lo = 0.0, x_hi = 0.0;
    double y_lo = 0.0, y_hi = 0.0;
    int nx = 10, ny = 10;

    bool operator==(const Bounds&) const = default;
  };

  /// Bounds that cover `points` with the given resolution; InvalidArgument
  /// when a point has a NaN or infinite coordinate.
  static Result<Bounds> FitBounds(
      const std::vector<std::pair<double, double>>& points, int nx, int ny);

  /// Builds a grid over `points` with explicit bounds, which must be finite
  /// and not inverted (points outside the bounds are clamped into the
  /// border cells; a point with a NaN coordinate is dropped).
  static Result<GridHistogram2D> Build(
      const std::vector<std::pair<double, double>>& points,
      const Bounds& bounds);

  const Bounds& bounds() const { return bounds_; }
  size_t num_cells() const { return cells_.size(); }
  /// Cell `index` in CellIndex order.
  const Cell& cell(size_t index) const { return cells_[index]; }

  /// Row-major index (iy * nx + ix) of the cell of `bounds` containing
  /// (x, y), or -1 when the point is outside the bounds or has a NaN.
  static int CellIndex(const Bounds& bounds, double x, double y);

  /// The cell containing (x, y), or nullptr when outside the bounds.
  const Cell* FindCell(double x, double y) const;

  double TotalFrequency() const;

  /// Estimated number of tuples with first == x and second == y (uniform
  /// spread over the cell's distinct pairs); 0 outside the bounds.
  double EstimateEquals(double x, double y) const;

 private:
  explicit GridHistogram2D(Bounds bounds) : bounds_(bounds) {}

  Bounds bounds_;
  std::vector<Cell> cells_;  // row-major: iy * nx + ix
};

}  // namespace sitstats

#endif  // SITSTATS_HISTOGRAM_GRID_HISTOGRAM_H_
