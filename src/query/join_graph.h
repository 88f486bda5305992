#ifndef SITSTATS_QUERY_JOIN_GRAPH_H_
#define SITSTATS_QUERY_JOIN_GRAPH_H_

#include <map>
#include <string>
#include <vector>

#include "query/column_ref.h"

namespace sitstats {

/// The join graph of a query: one node per table, one edge per join
/// predicate (Section 3.2). Used to validate that generating queries are
/// connected acyclic joins — the class of queries Sweep handles.
class JoinGraph {
 public:
  JoinGraph(const std::vector<std::string>& tables,
            const std::vector<JoinPredicate>& joins);

  size_t num_tables() const { return tables_.size(); }
  size_t num_edges() const { return joins_.size(); }

  /// True if every table is reachable from every other through join edges.
  /// An empty graph and a single table are connected.
  bool IsConnected() const;

  /// True if the graph contains no cycle. Parallel predicates between the
  /// same table pair form ONE logical edge (a composite equality join,
  /// Section 3.2's multidimensional case), not a cycle; duplicate
  /// *identical* predicates do count as a cycle.
  bool IsAcyclic() const;

  /// Tables adjacent to `table` (one entry per incident edge).
  std::vector<std::string> Neighbors(const std::string& table) const;

  /// Join predicates incident to `table`.
  std::vector<JoinPredicate> IncidentJoins(const std::string& table) const;

 private:
  std::vector<std::string> tables_;
  std::vector<JoinPredicate> joins_;
  std::map<std::string, std::vector<size_t>> incident_;  // table -> join idx
};

}  // namespace sitstats

#endif  // SITSTATS_QUERY_JOIN_GRAPH_H_
