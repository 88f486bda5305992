#ifndef SITSTATS_QUERY_JOIN_TREE_H_
#define SITSTATS_QUERY_JOIN_TREE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "query/generating_query.h"

namespace sitstats {

/// The join-tree of an acyclic generating query, rooted at the table that
/// hosts the SIT's attribute (Section 3.2, Figure 4). Sweep processes this
/// tree in post-order: leaves contribute base-table histograms, each
/// internal node is one sequential scan producing an intermediate SIT, and
/// the root scan produces the requested SIT.
class JoinTree {
 public:
  struct Node {
    std::string table;
    /// Parent node index, -1 for the root.
    int parent = -1;
    /// For non-root nodes: this table's columns in the join predicates
    /// with the parent, and the parent's columns, aligned by predicate.
    /// A single-predicate edge has one entry; composite equality joins
    /// (R ⋈_{w=x ∧ y=z} S) have several.
    std::vector<std::string> columns_to_parent;
    std::vector<std::string> parent_columns;
    std::vector<int> children;

    /// True when the edge to the parent has more than one predicate.
    bool HasCompositeParentEdge() const {
      return columns_to_parent.size() > 1;
    }
    /// The single join column towards the parent (checked by callers that
    /// require a simple edge).
    const std::string& column_to_parent() const {
      return columns_to_parent.front();
    }
    const std::string& parent_column() const {
      return parent_columns.front();
    }
  };

  /// Roots the query's join graph at `root_table` (must be referenced by
  /// the query).
  static Result<JoinTree> Build(const GeneratingQuery& query,
                                const std::string& root_table);

  int root() const { return 0; }
  size_t size() const { return nodes_.size(); }
  const Node& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
  bool IsLeaf(int i) const {
    return nodes_[static_cast<size_t>(i)].children.empty();
  }

  /// Node indices in post-order (children before parents, root last).
  std::vector<int> PostOrder() const;

  /// The internal nodes in post-order: the scan plan of a Sweep build
  /// (Section 3.2). Each is one sequential scan, every child's scan comes
  /// before its parent's, and the root scan is last. Leaves contribute
  /// base statistics and are never scanned, so a base-table tree has no
  /// scans. SweepBuild runs exactly these scans, the scheduler models a
  /// SIT as the sequence of their tables, and the advisor prices a SIT by
  /// them.
  std::vector<int> ScanNodes() const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace sitstats

#endif  // SITSTATS_QUERY_JOIN_TREE_H_
