#include "query/generating_query.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace sitstats {

Result<GeneratingQuery> GeneratingQuery::Create(
    std::vector<std::string> tables, std::vector<JoinPredicate> joins) {
  if (tables.empty()) {
    return Status::InvalidArgument("generating query with no tables");
  }
  std::set<std::string> table_set(tables.begin(), tables.end());
  if (table_set.size() != tables.size()) {
    return Status::InvalidArgument(
        "duplicate table in generating query (self-joins are not supported)");
  }
  for (const JoinPredicate& j : joins) {
    if (!table_set.contains(j.left.table)) {
      return Status::InvalidArgument("join references unlisted table " +
                                     j.left.table);
    }
    if (!table_set.contains(j.right.table)) {
      return Status::InvalidArgument("join references unlisted table " +
                                     j.right.table);
    }
    if (j.left.table == j.right.table) {
      return Status::InvalidArgument("join predicate within single table " +
                                     j.left.table);
    }
  }
  JoinGraph graph(tables, joins);
  if (!graph.IsAcyclic()) {
    return Status::InvalidArgument(
        "generating query join graph is cyclic or repeats an identical "
        "predicate");
  }
  if (!graph.IsConnected()) {
    return Status::InvalidArgument(
        "generating query join graph is not connected (cross products are "
        "not supported)");
  }
  return GeneratingQuery(std::move(tables), std::move(joins));
}

GeneratingQuery GeneratingQuery::BaseTable(const std::string& table) {
  return GeneratingQuery({table}, {});
}

bool GeneratingQuery::ReferencesTable(const std::string& table) const {
  return std::find(tables_.begin(), tables_.end(), table) != tables_.end();
}

std::string GeneratingQuery::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (i > 0) os << " JOIN ";
    os << tables_[i];
  }
  if (!joins_.empty()) {
    os << " ON ";
    for (size_t i = 0; i < joins_.size(); ++i) {
      if (i > 0) os << " AND ";
      os << joins_[i].ToString();
    }
  }
  return os.str();
}

bool GeneratingQuery::EquivalentTo(const GeneratingQuery& other) const {
  std::set<std::string> mine(tables_.begin(), tables_.end());
  std::set<std::string> theirs(other.tables_.begin(), other.tables_.end());
  if (mine != theirs) return false;
  if (joins_.size() != other.joins_.size()) return false;
  auto normalize = [](const JoinPredicate& j) {
    ColumnRef a = j.left;
    ColumnRef b = j.right;
    if (b < a) std::swap(a, b);
    return std::make_pair(a, b);
  };
  std::set<std::pair<ColumnRef, ColumnRef>> mine_joins;
  std::set<std::pair<ColumnRef, ColumnRef>> their_joins;
  for (const JoinPredicate& j : joins_) mine_joins.insert(normalize(j));
  for (const JoinPredicate& j : other.joins_) their_joins.insert(normalize(j));
  return mine_joins == their_joins;
}

}  // namespace sitstats
