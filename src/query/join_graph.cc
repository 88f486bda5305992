#include "query/join_graph.h"

#include <set>

namespace sitstats {

JoinGraph::JoinGraph(const std::vector<std::string>& tables,
                     const std::vector<JoinPredicate>& joins)
    : tables_(tables), joins_(joins) {
  for (const std::string& t : tables_) incident_[t];  // ensure node exists
  for (size_t i = 0; i < joins_.size(); ++i) {
    incident_[joins_[i].left.table].push_back(i);
    incident_[joins_[i].right.table].push_back(i);
  }
}

bool JoinGraph::IsConnected() const {
  if (tables_.size() <= 1) return true;
  std::set<std::string> visited;
  std::vector<std::string> stack = {tables_[0]};
  visited.insert(tables_[0]);
  while (!stack.empty()) {
    std::string current = stack.back();
    stack.pop_back();
    for (const std::string& next : Neighbors(current)) {
      if (visited.insert(next).second) stack.push_back(next);
    }
  }
  return visited.size() == tables_.size();
}

bool JoinGraph::IsAcyclic() const {
  // A graph is a forest iff every connected component has
  // logical-edges = nodes-1. Parallel predicates between the same table
  // pair are ONE logical edge (composite equality join); duplicated
  // identical predicates are rejected.
  std::set<std::pair<std::string, std::string>> pairs;
  size_t logical_edges = 0;
  for (size_t i = 0; i < joins_.size(); ++i) {
    const JoinPredicate& j = joins_[i];
    std::string a = j.left.table;
    std::string b = j.right.table;
    if (a == b) return false;  // self-loop
    for (size_t k = 0; k < i; ++k) {
      if (joins_[k] == j) return false;  // duplicate predicate
    }
    if (a > b) std::swap(a, b);
    if (pairs.insert({a, b}).second) ++logical_edges;
  }
  // Count components via DFS.
  std::set<std::string> visited;
  size_t components = 0;
  for (const std::string& start : tables_) {
    if (visited.contains(start)) continue;
    ++components;
    std::vector<std::string> stack = {start};
    visited.insert(start);
    while (!stack.empty()) {
      std::string current = stack.back();
      stack.pop_back();
      for (const std::string& next : Neighbors(current)) {
        if (visited.insert(next).second) stack.push_back(next);
      }
    }
  }
  return logical_edges == tables_.size() - components;
}

std::vector<std::string> JoinGraph::Neighbors(const std::string& table) const {
  std::vector<std::string> out;
  auto it = incident_.find(table);
  if (it == incident_.end()) return out;
  for (size_t idx : it->second) {
    out.push_back(joins_[idx].OtherSideOf(table).table);
  }
  return out;
}

std::vector<JoinPredicate> JoinGraph::IncidentJoins(
    const std::string& table) const {
  std::vector<JoinPredicate> out;
  auto it = incident_.find(table);
  if (it == incident_.end()) return out;
  for (size_t idx : it->second) out.push_back(joins_[idx]);
  return out;
}

}  // namespace sitstats
