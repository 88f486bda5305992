#include "datagen/synthetic_db.h"

#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/distributions.h"

namespace sitstats {

namespace {

std::string TableName(int i) { return NumberedName("R", i + 1); }

/// Correlates `key` with bounded triangular noise, clamped to the domain
/// {1..domain}. Triangular noise (sum of two uniforms) gives the derived
/// attribute a smooth unimodal conditional distribution, as one would see
/// for naturally correlated columns (e.g. price vs. tax).
int64_t CorrelateKey(int64_t key, uint64_t domain, double noise_fraction,
                     Rng* rng) {
  int64_t amplitude = static_cast<int64_t>(
      noise_fraction * static_cast<double>(domain));
  int64_t noise = 0;
  if (amplitude > 0) {
    noise = (rng->UniformInt(-amplitude, amplitude) +
             rng->UniformInt(-amplitude, amplitude)) /
            2;
  }
  int64_t shifted = key + noise;
  if (shifted < 1) shifted = 1;
  int64_t d = static_cast<int64_t>(domain);
  if (shifted > d) shifted = d;
  return shifted;
}

Result<std::vector<JoinPredicate>> ChainJoins(int k) {
  std::vector<JoinPredicate> joins;
  for (int i = 0; i + 1 < k; ++i) {
    JoinPredicate join;
    join.left = ColumnRef{TableName(i), "jn"};
    join.right = ColumnRef{TableName(i + 1), "jp"};
    joins.push_back(join);
  }
  return joins;
}

}  // namespace

Result<ChainDatabase> MakeChainJoinDatabase(const ChainDbSpec& spec) {
  if (spec.num_tables < 1) {
    return Status::InvalidArgument("chain database needs at least 1 table");
  }
  if (!spec.table_rows.empty() &&
      spec.table_rows.size() != static_cast<size_t>(spec.num_tables)) {
    return Status::InvalidArgument(
        "table_rows must be empty or have num_tables entries");
  }
  if (spec.join_domain == 0) {
    return Status::InvalidArgument("join_domain must be positive");
  }
  Rng rng(spec.seed);
  ZipfDistribution key_dist(spec.join_domain, spec.zipf_z);
  auto catalog = std::make_unique<Catalog>();

  for (int i = 0; i < spec.num_tables; ++i) {
    const bool has_prev = i > 0;
    const bool has_next = i + 1 < spec.num_tables;
    Schema schema;
    if (has_prev) schema.AddColumn("jp", ValueType::kInt64);
    if (has_next) schema.AddColumn("jn", ValueType::kInt64);
    schema.AddColumn("a", ValueType::kInt64);
    for (int e = 0; e < spec.extra_attributes; ++e) {
      schema.AddColumn(NumberedName("b", e), ValueType::kInt64);
    }
    SITSTATS_ASSIGN_OR_RETURN(Table * table,
                              catalog->CreateTable(TableName(i), schema));
    size_t rows = spec.table_rows.empty()
                      ? static_cast<size_t>(rng.UniformInt(
                            static_cast<int64_t>(spec.min_rows),
                            static_cast<int64_t>(spec.max_rows)))
                      : spec.table_rows[static_cast<size_t>(i)];
    table->Reserve(rows);
    const bool correlated =
        spec.correlation == AttributeCorrelation::kCorrelated;
    for (size_t r = 0; r < rows; ++r) {
      // The "anchor" key every correlated attribute derives from: the
      // previous-hop join key when present, else the next-hop key.
      int64_t anchor = key_dist.Sample(&rng);
      std::vector<Value> row;
      if (has_prev) row.emplace_back(anchor);
      if (has_next) {
        int64_t jn;
        if (!has_prev) {
          jn = anchor;  // R1: the anchor is its next-hop key
        } else if (correlated) {
          jn = CorrelateKey(anchor, spec.join_domain, spec.noise_fraction,
                            &rng);
        } else {
          jn = key_dist.Sample(&rng);
        }
        row.emplace_back(jn);
      }
      int64_t a = correlated ? CorrelateKey(anchor, spec.join_domain,
                                            spec.noise_fraction, &rng)
                             : rng.UniformInt(
                                   1, static_cast<int64_t>(spec.join_domain));
      row.emplace_back(a);
      for (int e = 0; e < spec.extra_attributes; ++e) {
        row.emplace_back(
            rng.UniformInt(1, static_cast<int64_t>(spec.join_domain)));
      }
      SITSTATS_RETURN_IF_ERROR(table->AppendRow(row));
    }
  }

  std::vector<std::string> tables;
  for (int i = 0; i < spec.num_tables; ++i) tables.push_back(TableName(i));
  SITSTATS_ASSIGN_OR_RETURN(std::vector<JoinPredicate> joins,
                            ChainJoins(spec.num_tables));
  SITSTATS_ASSIGN_OR_RETURN(
      GeneratingQuery query,
      GeneratingQuery::Create(std::move(tables), std::move(joins)));
  ColumnRef attribute{TableName(spec.num_tables - 1), "a"};
  SITSTATS_DCHECK_OK(catalog->ValidateConsistency());
  return ChainDatabase{std::move(catalog), std::move(query), attribute};
}

}  // namespace sitstats
