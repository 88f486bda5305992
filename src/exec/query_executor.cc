#include "exec/query_executor.h"

#include <cmath>
#include <cstring>

#include <unordered_map>

#include "exec/hash_join.h"

namespace sitstats {

namespace {

/// Multiplicity table of a subtree: byte-encoded join-key tuple (the
/// node's columns_to_parent values) -> number of subtree join
/// combinations per key. Byte encoding supports composite (multi-
/// predicate) edges uniformly.
using MultiplicityMap = std::unordered_map<std::string, uint64_t>;

/// Byte-encodes a join-key tuple into `key` with the equality of `==`,
/// the one every exact path uses: -0.0 is folded into +0.0 (`v + 0.0`),
/// and a tuple holding a NaN has no key (returns false), since NaN joins
/// nothing.
bool EncodeKey(const double* values, size_t n, std::string* key) {
  key->resize(n * sizeof(double));
  for (size_t c = 0; c < n; ++c) {
    if (std::isnan(values[c])) return false;
    const double folded = values[c] + 0.0;
    std::memcpy(key->data() + c * sizeof(double), &folded, sizeof(double));
  }
  return true;
}

/// Computes the multiplicity map of `node`'s subtree. For each row of the
/// node's table, the subtree multiplicity is the product over children of
/// the child's multiplicity at the row's join value (0 when absent);
/// results are accumulated per column_to_parent key.
Result<MultiplicityMap> SubtreeMultiplicities(const Catalog& catalog,
                                              const JoinTree& tree,
                                              int node_index);

/// Per-row multiplicity of `node`'s subtree combinations for each row of
/// its table (not yet grouped by any key). Shared by the root computation
/// and SubtreeMultiplicities.
Result<std::vector<uint64_t>> RowMultiplicities(const Catalog& catalog,
                                                const JoinTree& tree,
                                                int node_index) {
  const JoinTree::Node& node = tree.node(node_index);
  SITSTATS_ASSIGN_OR_RETURN(const Table* table,
                            catalog.GetTable(node.table));
  std::vector<uint64_t> mult(table->num_rows(), 1);
  for (int child_index : node.children) {
    SITSTATS_ASSIGN_OR_RETURN(
        MultiplicityMap child_map,
        SubtreeMultiplicities(catalog, tree, child_index));
    const JoinTree::Node& child = tree.node(child_index);
    std::vector<const Column*> key_cols;
    for (const std::string& column : child.parent_columns) {
      SITSTATS_ASSIGN_OR_RETURN(const Column* key_col,
                                table->GetColumn(column));
      key_cols.push_back(key_col);
    }
    std::vector<double> values(key_cols.size());
    std::string key;
    for (size_t row = 0; row < mult.size(); ++row) {
      if (mult[row] == 0) continue;
      for (size_t c = 0; c < key_cols.size(); ++c) {
        values[c] = key_cols[c]->GetNumeric(row);
      }
      if (!EncodeKey(values.data(), values.size(), &key)) {
        mult[row] = 0;
        continue;
      }
      auto it = child_map.find(key);
      mult[row] = (it == child_map.end()) ? 0 : mult[row] * it->second;
    }
  }
  return mult;
}

Result<MultiplicityMap> SubtreeMultiplicities(const Catalog& catalog,
                                              const JoinTree& tree,
                                              int node_index) {
  const JoinTree::Node& node = tree.node(node_index);
  SITSTATS_ASSIGN_OR_RETURN(const Table* table,
                            catalog.GetTable(node.table));
  SITSTATS_ASSIGN_OR_RETURN(std::vector<uint64_t> mult,
                            RowMultiplicities(catalog, tree, node_index));
  std::vector<const Column*> key_cols;
  for (const std::string& column : node.columns_to_parent) {
    SITSTATS_ASSIGN_OR_RETURN(const Column* key_col,
                              table->GetColumn(column));
    key_cols.push_back(key_col);
  }
  MultiplicityMap map;
  std::vector<double> values(key_cols.size());
  std::string key;
  for (size_t row = 0; row < mult.size(); ++row) {
    if (mult[row] == 0) continue;
    for (size_t c = 0; c < key_cols.size(); ++c) {
      values[c] = key_cols[c]->GetNumeric(row);
    }
    if (EncodeKey(values.data(), values.size(), &key)) map[key] += mult[row];
  }
  return map;
}

}  // namespace

Result<std::vector<WeightedValue>> ExecuteProjection(
    const Catalog& catalog, const GeneratingQuery& query,
    const ColumnRef& attribute) {
  SITSTATS_ASSIGN_OR_RETURN(JoinTree tree,
                            JoinTree::Build(query, attribute.table));
  SITSTATS_ASSIGN_OR_RETURN(const Table* root_table,
                            catalog.GetTable(attribute.table));
  SITSTATS_ASSIGN_OR_RETURN(const Column* attr_col,
                            root_table->GetColumn(attribute.column));
  SITSTATS_ASSIGN_OR_RETURN(
      std::vector<uint64_t> mult,
      RowMultiplicities(catalog, tree, tree.root()));
  std::vector<WeightedValue> out;
  out.reserve(mult.size());
  for (size_t row = 0; row < mult.size(); ++row) {
    if (mult[row] == 0) continue;
    out.push_back(WeightedValue{attr_col->GetNumeric(row), mult[row]});
  }
  return out;
}

Result<double> ExactJoinCardinality(const Catalog& catalog,
                                    const GeneratingQuery& query) {
  // Any table can serve as the root; project on its first column.
  const std::string& root = query.tables().front();
  SITSTATS_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(root));
  if (table->num_columns() == 0) return 0.0;
  // Find a numeric column to project (the weight math ignores the values).
  for (size_t c = 0; c < table->num_columns(); ++c) {
    if (table->column(c).type() == ValueType::kString) continue;
    ColumnRef attr{root, table->column(c).name()};
    SITSTATS_ASSIGN_OR_RETURN(std::vector<WeightedValue> values,
                              ExecuteProjection(catalog, query, attr));
    double total = 0.0;
    for (const WeightedValue& wv : values) {
      total += static_cast<double>(wv.weight);
    }
    return total;
  }
  return Status::InvalidArgument("table " + root + " has no numeric column");
}

Result<double> ExactRangeCardinality(const Catalog& catalog,
                                     const GeneratingQuery& query,
                                     const ColumnRef& attribute, double lo,
                                     double hi) {
  SITSTATS_ASSIGN_OR_RETURN(std::vector<WeightedValue> values,
                            ExecuteProjection(catalog, query, attribute));
  double total = 0.0;
  for (const WeightedValue& wv : values) {
    if (wv.value >= lo && wv.value <= hi) {
      total += static_cast<double>(wv.weight);
    }
  }
  return total;
}

Result<Table> MaterializeJoin(const Catalog& catalog,
                              const GeneratingQuery& query) {
  SITSTATS_ASSIGN_OR_RETURN(
      JoinTree tree, JoinTree::Build(query, query.tables().front()));
  SITSTATS_ASSIGN_OR_RETURN(const Table* root,
                            catalog.GetTable(tree.node(0).table));
  // Start with a qualified copy of the root table so that column lookups
  // are uniform across the pipeline.
  Schema qualified;
  for (const ColumnDef& def : root->schema().columns()) {
    qualified.AddColumn(root->name() + "." + def.name, def.type);
  }
  Table current("join", qualified);
  current.Reserve(root->num_rows());
  for (size_t c = 0; c < root->num_columns(); ++c) {
    for (size_t row = 0; row < root->num_rows(); ++row) {
      current.column(c).Append(root->column(c).Get(row));
    }
  }
  // Join in BFS order: node i's parent columns are guaranteed present.
  for (size_t i = 1; i < tree.size(); ++i) {
    const JoinTree::Node& node = tree.node(static_cast<int>(i));
    SITSTATS_ASSIGN_OR_RETURN(const Table* next,
                              catalog.GetTable(node.table));
    const JoinTree::Node& parent =
        tree.node(node.parent);
    std::string left_key = parent.table + "." + node.parent_columns[0];
    SITSTATS_ASSIGN_OR_RETURN(
        Table joined,
        HashJoinTables(current, *next, left_key,
                       node.columns_to_parent[0]));
    // Composite edges: apply the remaining equality predicates as a
    // post-filter.
    if (node.HasCompositeParentEdge()) {
      std::vector<std::pair<const Column*, const Column*>> filters;
      for (size_t j = 1; j < node.columns_to_parent.size(); ++j) {
        SITSTATS_ASSIGN_OR_RETURN(
            const Column* l,
            joined.GetColumn(parent.table + "." + node.parent_columns[j]));
        SITSTATS_ASSIGN_OR_RETURN(
            const Column* r,
            joined.GetColumn(node.table + "." + node.columns_to_parent[j]));
        filters.emplace_back(l, r);
      }
      Table filtered(joined.name(), joined.schema());
      for (size_t row = 0; row < joined.num_rows(); ++row) {
        bool keep = true;
        for (const auto& [l, r] : filters) {
          if (l->GetNumeric(row) != r->GetNumeric(row)) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        for (size_t c = 0; c < joined.num_columns(); ++c) {
          filtered.column(c).Append(joined.column(c).Get(row));
        }
      }
      joined = std::move(filtered);
    }
    current = std::move(joined);
  }
  return current;
}

}  // namespace sitstats
