#ifndef SITSTATS_SIT_ORACLE_FACTORY_H_
#define SITSTATS_SIT_ORACLE_FACTORY_H_

#include <memory>

#include "common/result.h"
#include "common/rng.h"
#include "query/join_tree.h"
#include "sit/base_stats.h"
#include "sit/m_oracle.h"
#include "sit/sweep_scan.h"
#include "storage/catalog.h"

namespace sitstats {

/// Builds the m-Oracle used when the scan of join-tree node `node_index`
/// evaluates the join towards its child `child_index`.
///
///  - exact = false: a HistogramMOracle whose other side is the child's
///    base histogram (leaf child) or the child's intermediate SIT
///    (`child_output->histogram`), and whose scanned side is the node's
///    base histogram over the join column.
///  - exact = true: an ExactMOracle. For a leaf child it borrows the
///    catalog's count table over the child's join column(s),
///    Catalog::EnsureIndex(child, columns_to_parent), counted on first use
///    whatever the edge's width; for an internal child it owns
///    `child_output->exact_map`.
///
/// A composite (multi-predicate) edge that is not exact gets a GridMOracle
/// over two aligned 2D grids.
///
/// `child_output` may be null for leaf children; for internal children it
/// must be the child's SweepOutput and, when exact, its exact_map is moved
/// out (the output cannot be reused). A composite (multi-predicate) edge
/// must lead to a leaf child; SweepBuild::Start rejects other shapes.
/// `rng` is unused: no oracle draws (it stays for existing callers).
Result<std::unique_ptr<MultiplicityOracle>> MakeChildOracle(
    Catalog* catalog, BaseStatsCache* base_stats, const JoinTree& tree,
    int node_index, int child_index, SweepOutput* child_output, bool exact,
    Rng* rng,
    ContainmentMode mode = ContainmentMode::kDensityNormalized);

}  // namespace sitstats

#endif  // SITSTATS_SIT_ORACLE_FACTORY_H_
