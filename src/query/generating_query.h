#ifndef SITSTATS_QUERY_GENERATING_QUERY_H_
#define SITSTATS_QUERY_GENERATING_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "query/column_ref.h"
#include "query/join_graph.h"

namespace sitstats {

/// A join generating query R_1 ⋈ ... ⋈ R_n (Definition 1). The paper — and
/// this library — handles the family of *connected acyclic* equality-join
/// queries. A table pair may be joined by multiple parallel predicates
/// (a composite equality join, the multidimensional-histogram case of
/// Section 3.2); Create() validates connectivity and acyclicity at the
/// level of logical (table-pair) edges.
class GeneratingQuery {
 public:
  /// Validates and builds a generating query. Errors on: empty/duplicate
  /// table lists, predicates referencing unlisted or identical tables,
  /// more than one predicate per table pair, disconnected or cyclic join
  /// graphs.
  static Result<GeneratingQuery> Create(std::vector<std::string> tables,
                                        std::vector<JoinPredicate> joins);

  /// Convenience for a single base table (no joins).
  static GeneratingQuery BaseTable(const std::string& table);

  const std::vector<std::string>& tables() const { return tables_; }
  const std::vector<JoinPredicate>& joins() const { return joins_; }
  size_t num_tables() const { return tables_.size(); }
  size_t num_joins() const { return joins_.size(); }

  bool ReferencesTable(const std::string& table) const;

  /// True for a single base table with no joins.
  bool IsBaseTable() const { return joins_.empty() && tables_.size() == 1; }

  JoinGraph MakeJoinGraph() const { return JoinGraph(tables_, joins_); }

  /// "R JOIN S ON R.x = S.y JOIN ..." rendering for diagnostics.
  std::string ToString() const;

  /// Structural equality: same table set and same predicate set,
  /// independent of listing order and predicate side order.
  bool EquivalentTo(const GeneratingQuery& other) const;

 private:
  GeneratingQuery(std::vector<std::string> tables,
                  std::vector<JoinPredicate> joins)
      : tables_(std::move(tables)), joins_(std::move(joins)) {}

  std::vector<std::string> tables_;
  std::vector<JoinPredicate> joins_;
};

}  // namespace sitstats

#endif  // SITSTATS_QUERY_GENERATING_QUERY_H_
