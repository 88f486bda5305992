#ifndef SITSTATS_EXEC_QUERY_EXECUTOR_H_
#define SITSTATS_EXEC_QUERY_EXECUTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "query/generating_query.h"
#include "query/join_tree.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace sitstats {

/// A value of the projected attribute together with its multiplicity in
/// the join result.
struct WeightedValue {
  double value = 0.0;
  uint64_t weight = 0;
};

/// Exact evaluation of π_attr(Q) for an acyclic generating query Q,
/// returned as (value, multiplicity) pairs — one pair per row of
/// attr's table that survives the join.
///
/// Works bottom-up over the join tree rooted at attr.table: each node
/// reduces to a hash map join-key -> total multiplicity of its subtree, so
/// the computation is linear in total input size and never materializes
/// the (possibly enormous) join result. This is the exact counterpart of
/// the quantity Sweep approximates, and provides the paper's ground truth
/// ("we materialized the generating query to obtain the actual result").
Result<std::vector<WeightedValue>> ExecuteProjection(
    const Catalog& catalog, const GeneratingQuery& query,
    const ColumnRef& attribute);

/// Exact |Q| for an acyclic generating query.
Result<double> ExactJoinCardinality(const Catalog& catalog,
                                    const GeneratingQuery& query);

/// Exact cardinality of σ_{lo <= attr <= hi}(Q).
Result<double> ExactRangeCardinality(const Catalog& catalog,
                                     const GeneratingQuery& query,
                                     const ColumnRef& attribute, double lo,
                                     double hi);

/// Materializes the full join result as a table with qualified column
/// names, joining along a BFS order of the join tree. Exponential in the
/// worst case; intended for tests and small inputs.
Result<Table> MaterializeJoin(const Catalog& catalog,
                              const GeneratingQuery& query);

}  // namespace sitstats

#endif  // SITSTATS_EXEC_QUERY_EXECUTOR_H_
