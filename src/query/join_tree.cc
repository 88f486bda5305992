#include "query/join_tree.h"

#include <map>
#include <set>

namespace sitstats {

Result<JoinTree> JoinTree::Build(const GeneratingQuery& query,
                                 const std::string& root_table) {
  if (!query.ReferencesTable(root_table)) {
    return Status::InvalidArgument("root table " + root_table +
                                   " is not referenced by " +
                                   query.ToString());
  }
  JoinGraph graph = query.MakeJoinGraph();
  JoinTree tree;
  Node root;
  root.table = root_table;
  tree.nodes_.push_back(root);

  std::set<std::string> visited = {root_table};
  // BFS so sibling order matches predicate order deterministically.
  std::vector<int> frontier = {0};
  while (!frontier.empty()) {
    std::vector<int> next_frontier;
    for (int idx : frontier) {
      const std::string table = tree.nodes_[static_cast<size_t>(idx)].table;
      // Group the incident predicates by neighbour table so parallel
      // predicates land on one composite edge.
      std::map<std::string, std::vector<JoinPredicate>> by_neighbor;
      std::vector<std::string> neighbor_order;
      for (const JoinPredicate& join : graph.IncidentJoins(table)) {
        const std::string& other = join.OtherSideOf(table).table;
        if (visited.contains(other)) continue;
        if (!by_neighbor.contains(other)) {
          neighbor_order.push_back(other);
        }
        by_neighbor[other].push_back(join);
      }
      for (const std::string& other : neighbor_order) {
        visited.insert(other);
        Node child;
        child.table = other;
        child.parent = idx;
        for (const JoinPredicate& join : by_neighbor[other]) {
          child.columns_to_parent.push_back(join.SideOf(other).column);
          child.parent_columns.push_back(join.SideOf(table).column);
        }
        int child_idx = static_cast<int>(tree.nodes_.size());
        tree.nodes_.push_back(child);
        tree.nodes_[static_cast<size_t>(idx)].children.push_back(child_idx);
        next_frontier.push_back(child_idx);
      }
    }
    frontier = std::move(next_frontier);
  }
  if (visited.size() != query.num_tables()) {
    return Status::Internal("join tree did not reach every table of " +
                            query.ToString());
  }
  return tree;
}

namespace {
void PostOrderVisit(const JoinTree& tree, int node, std::vector<int>* out) {
  for (int child : tree.node(node).children) {
    PostOrderVisit(tree, child, out);
  }
  out->push_back(node);
}
}  // namespace

std::vector<int> JoinTree::PostOrder() const {
  std::vector<int> order;
  order.reserve(nodes_.size());
  PostOrderVisit(*this, root(), &order);
  return order;
}

std::vector<int> JoinTree::ScanNodes() const {
  std::vector<int> scans;
  for (int node_index : PostOrder()) {
    if (!IsLeaf(node_index)) scans.push_back(node_index);
  }
  return scans;
}

}  // namespace sitstats
