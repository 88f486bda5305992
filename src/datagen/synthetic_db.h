#ifndef SITSTATS_DATAGEN_SYNTHETIC_DB_H_
#define SITSTATS_DATAGEN_SYNTHETIC_DB_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "query/column_ref.h"
#include "query/generating_query.h"
#include "storage/catalog.h"

namespace sitstats {

/// How non-key attributes relate to the join keys of their table.
enum class AttributeCorrelation {
  /// Payload attributes are independent of the join keys — the regime in
  /// which the independence assumption holds (Section 5.1's control
  /// experiment).
  kIndependent,
  /// Payload attributes (and the next-hop join key of intermediate
  /// tables) are functions of the previous join key plus bounded noise —
  /// the regime that breaks the independence assumption.
  kCorrelated,
};

/// Specification of the paper's synthetic chain-join database
/// (Section 5.1): num_tables tables R1..Rn with 10,000-100,000 tuples,
/// three to five attributes each, join attributes uniform or zipfian
/// (z in 0.1..1).
struct ChainDbSpec {
  int num_tables = 2;
  /// Row counts per table; if empty, drawn uniformly from
  /// [min_rows, max_rows].
  std::vector<size_t> table_rows;
  size_t min_rows = 10'000;
  size_t max_rows = 100'000;
  /// Join-key domain {1..join_domain}.
  uint64_t join_domain = 1'000;
  /// Zipf skew of the join attributes (0 = uniform; the paper's "skewed"
  /// runs use z = 1).
  double zipf_z = 1.0;
  AttributeCorrelation correlation = AttributeCorrelation::kCorrelated;
  /// Noise amplitude for correlated attributes, as a fraction of the
  /// domain.
  double noise_fraction = 0.05;
  /// Extra independent payload columns per table (the paper's tables have
  /// 3-5 attributes).
  int extra_attributes = 2;
  uint64_t seed = 42;
};

/// A generated chain database together with the chain generating query
/// R1 ⋈ R2 ⋈ ... ⋈ Rn and the conventional SIT attribute (last table's
/// "a" column, so the join tree is rooted at Rn).
struct ChainDatabase {
  std::unique_ptr<Catalog> catalog;
  GeneratingQuery query;
  ColumnRef sit_attribute;
};

/// Table Ri columns: "jp" (join key to R_{i-1}, absent in R1), "jn" (join
/// key to R_{i+1}, absent in Rn), "a" (payload the SITs are built over),
/// plus extra_attributes independent payload columns "b0", "b1", ...
/// Joins: Ri.jn = R_{i+1}.jp.
Result<ChainDatabase> MakeChainJoinDatabase(const ChainDbSpec& spec);

}  // namespace sitstats

#endif  // SITSTATS_DATAGEN_SYNTHETIC_DB_H_
