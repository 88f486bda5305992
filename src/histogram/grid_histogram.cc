#include "histogram/grid_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <unordered_set>

namespace sitstats {

Result<GridHistogram2D::Bounds> GridHistogram2D::FitBounds(
    const std::vector<std::pair<double, double>>& points, int nx, int ny) {
  if (nx < 1 || ny < 1) {
    return Status::InvalidArgument("grid resolution must be positive");
  }
  if (points.empty()) {
    return Status::InvalidArgument("cannot fit grid bounds to no points");
  }
  for (const auto& [x, y] : points) {
    // An equi-width grid cannot span an infinity, and a NaN has no cell.
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Status::InvalidArgument("cannot fit grid bounds to a NaN or "
                                     "infinite point");
    }
  }
  Bounds b;
  b.nx = nx;
  b.ny = ny;
  b.x_lo = b.x_hi = points[0].first;
  b.y_lo = b.y_hi = points[0].second;
  for (const auto& [x, y] : points) {
    b.x_lo = std::min(b.x_lo, x);
    b.x_hi = std::max(b.x_hi, x);
    b.y_lo = std::min(b.y_lo, y);
    b.y_hi = std::max(b.y_hi, y);
  }
  return b;
}

Result<GridHistogram2D> GridHistogram2D::Build(
    const std::vector<std::pair<double, double>>& points,
    const Bounds& bounds) {
  if (bounds.nx < 1 || bounds.ny < 1) {
    return Status::InvalidArgument("grid resolution must be positive");
  }
  // Written so a NaN bound fails too: it would make every cell index
  // undefined.
  if (!(bounds.x_lo <= bounds.x_hi && bounds.y_lo <= bounds.y_hi) ||
      !std::isfinite(bounds.x_hi - bounds.x_lo) ||
      !std::isfinite(bounds.y_hi - bounds.y_lo)) {
    return Status::InvalidArgument("grid bounds are inverted or not finite");
  }
  GridHistogram2D grid(bounds);
  grid.cells_.assign(
      static_cast<size_t>(bounds.nx) * static_cast<size_t>(bounds.ny),
      Cell{});
  // Exact distinct-pair counting per cell.
  std::vector<std::unordered_set<uint64_t>> seen(grid.cells_.size());
  auto pair_key = [](double x, double y) {
    // Mix the two bit patterns; exact equality of pairs is what matters.
    uint64_t a;
    uint64_t b;
    static_assert(sizeof(a) == sizeof(x));
    std::memcpy(&a, &x, sizeof(a));
    std::memcpy(&b, &y, sizeof(b));
    return a * 1099511628211ull ^ (b + 0x9e3779b97f4a7c15ull);
  };
  for (const auto& [x, y] : points) {
    // Clamp into the border cells so explicit-bounds grids never drop
    // probe mass.
    double cx = std::clamp(x, bounds.x_lo, bounds.x_hi);
    double cy = std::clamp(y, bounds.y_lo, bounds.y_hi);
    int idx = CellIndex(bounds, cx, cy);
    if (idx < 0) continue;  // empty-range bounds
    Cell& cell = grid.cells_[static_cast<size_t>(idx)];
    cell.frequency += 1.0;
    if (seen[static_cast<size_t>(idx)].insert(pair_key(x, y)).second) {
      cell.distinct_pairs += 1.0;
    }
  }
  return grid;
}

int GridHistogram2D::CellIndex(const Bounds& bounds, double x, double y) {
  if (!(x >= bounds.x_lo && x <= bounds.x_hi && y >= bounds.y_lo &&
        y <= bounds.y_hi)) {
    return -1;
  }
  double wx = bounds.x_hi - bounds.x_lo;
  double wy = bounds.y_hi - bounds.y_lo;
  int ix = wx > 0.0 ? static_cast<int>((x - bounds.x_lo) / wx * bounds.nx)
                    : 0;
  int iy = wy > 0.0 ? static_cast<int>((y - bounds.y_lo) / wy * bounds.ny)
                    : 0;
  if (ix >= bounds.nx) ix = bounds.nx - 1;  // x == x_hi
  if (iy >= bounds.ny) iy = bounds.ny - 1;
  return iy * bounds.nx + ix;
}

const GridHistogram2D::Cell* GridHistogram2D::FindCell(double x,
                                                       double y) const {
  int idx = CellIndex(bounds_, x, y);
  if (idx < 0) return nullptr;
  return &cells_[static_cast<size_t>(idx)];
}

double GridHistogram2D::TotalFrequency() const {
  double total = 0.0;
  for (const Cell& c : cells_) total += c.frequency;
  return total;
}

double GridHistogram2D::EstimateEquals(double x, double y) const {
  const Cell* cell = FindCell(x, y);
  if (cell == nullptr || cell->distinct_pairs <= 0.0) return 0.0;
  return cell->frequency / cell->distinct_pairs;
}

}  // namespace sitstats
