#include "sit/oracle_factory.h"

#include <cmath>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace sitstats {

namespace {

/// Reads the (x, y) pairs of two numeric columns of a table, skipping
/// rows with a NaN in either column: NaN joins nothing.
Result<std::vector<std::pair<double, double>>> ReadPairs(
    const Table& table, const std::string& x_column,
    const std::string& y_column) {
  SITSTATS_ASSIGN_OR_RETURN(const Column* xc, table.GetColumn(x_column));
  SITSTATS_ASSIGN_OR_RETURN(const Column* yc, table.GetColumn(y_column));
  if (xc->type() == ValueType::kString ||
      yc->type() == ValueType::kString) {
    return Status::InvalidArgument("grid over string column");
  }
  std::vector<std::pair<double, double>> points;
  points.reserve(table.num_rows());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    const double x = xc->GetNumeric(row);
    const double y = yc->GetNumeric(row);
    if (std::isnan(x) || std::isnan(y)) continue;
    points.emplace_back(x, y);
  }
  return points;
}

/// Builds the approximating oracle for a *composite* edge (two or more
/// predicates) whose child is a base table.
Result<std::unique_ptr<MultiplicityOracle>> MakeCompositeLeafOracle(
    Catalog* catalog, BaseStatsCache* base_stats,
    const JoinTree::Node& node, const JoinTree::Node& child) {
  SITSTATS_ASSIGN_OR_RETURN(const Table* child_table,
                            catalog->GetTable(child.table));
  if (child.columns_to_parent.size() != 2) {
    return Status::NotImplemented(
        "histogram-based oracles support at most two parallel join "
        "predicates (2D grids); use SweepIndex/SweepExact for wider "
        "composites");
  }
  // Grid resolution derived from the 1D bucket budget: nb buckets total
  // split across a square grid.
  int nb = base_stats->spec().num_buckets;
  int resolution = std::max(4, static_cast<int>(std::sqrt(
                                   static_cast<double>(std::max(nb, 16)))));
  using PointVector = std::vector<std::pair<double, double>>;
  PointVector other_points;
  SITSTATS_ASSIGN_OR_RETURN(
      other_points, ReadPairs(*child_table, child.columns_to_parent[0],
                              child.columns_to_parent[1]));
  SITSTATS_ASSIGN_OR_RETURN(const Table* node_table,
                            catalog->GetTable(node.table));
  PointVector scanned_points;
  SITSTATS_ASSIGN_OR_RETURN(
      scanned_points, ReadPairs(*node_table, child.parent_columns[0],
                                child.parent_columns[1]));
  // Shared bounds: cover both point sets so the two grids' cells align.
  PointVector all_points = other_points;
  all_points.insert(all_points.end(), scanned_points.begin(),
                    scanned_points.end());
  SITSTATS_ASSIGN_OR_RETURN(
      GridHistogram2D::Bounds bounds,
      GridHistogram2D::FitBounds(all_points, resolution, resolution));
  SITSTATS_ASSIGN_OR_RETURN(GridHistogram2D other_grid,
                            GridHistogram2D::Build(other_points, bounds));
  SITSTATS_ASSIGN_OR_RETURN(
      GridHistogram2D scanned_grid,
      GridHistogram2D::Build(scanned_points, bounds));
  return std::unique_ptr<MultiplicityOracle>(
      std::make_unique<GridMOracle>(other_grid, scanned_grid));
}

}  // namespace

Result<std::unique_ptr<MultiplicityOracle>> MakeChildOracle(
    Catalog* catalog, BaseStatsCache* base_stats, const JoinTree& tree,
    int node_index, int child_index, SweepOutput* child_output, bool exact,
    Rng* /*rng*/, ContainmentMode mode) {
  SITSTATS_FAULT_SITE("sit.oracle.create");
  const JoinTree::Node& node = tree.node(node_index);
  const JoinTree::Node& child = tree.node(child_index);
  const bool child_is_leaf = tree.IsLeaf(child_index);

  if (exact) {
    if (child_is_leaf) {
      // SweepIndex proper: repeated index lookups on the base table, over
      // one join column or one per predicate of a composite edge.
      // Concurrent schedule steps wanting the same index race safely in
      // EnsureIndex: one count wins, and every oracle borrows the winner.
      SITSTATS_ASSIGN_OR_RETURN(
          const WeightTable* index,
          catalog->EnsureIndex(child.table, child.columns_to_parent));
      return std::unique_ptr<MultiplicityOracle>(std::make_unique<ExactMOracle>(
          index, child.table + "." + Join(child.columns_to_parent, ",")));
    }
    if (child_output == nullptr) {
      return Status::Internal("exact oracle for internal child " +
                              child.table + " without its sweep output");
    }
    return std::unique_ptr<MultiplicityOracle>(
        std::make_unique<ExactMOracle>(std::move(child_output->exact_map)));
  }

  if (child.HasCompositeParentEdge()) {
    return MakeCompositeLeafOracle(catalog, base_stats, node, child);
  }

  const Histogram* other_side = nullptr;
  if (child_is_leaf) {
    SITSTATS_ASSIGN_OR_RETURN(
        other_side, base_stats->GetOrBuild(*catalog, child.table,
                                           child.column_to_parent(), nullptr));
  } else {
    if (child_output == nullptr) {
      return Status::Internal("histogram oracle for internal child " +
                              child.table + " without its sweep output");
    }
    other_side = &child_output->histogram;
  }
  SITSTATS_ASSIGN_OR_RETURN(
      const Histogram* scanned_side,
      base_stats->GetOrBuild(*catalog, node.table, child.parent_column(),
                             nullptr));
  return std::unique_ptr<MultiplicityOracle>(
      std::make_unique<HistogramMOracle>(*other_side, *scanned_side, mode));
}

}  // namespace sitstats
