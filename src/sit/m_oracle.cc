#include "sit/m_oracle.h"

#include <cstring>

#include <algorithm>

#include "storage/table.h"

namespace sitstats {

void MultiplicityOracle::MultiplicityBatch(const double* const* columns,
                                           size_t num_columns,
                                           size_t num_rows,
                                           double* out) const {
  if (num_columns == 1) {
    const double* y = columns[0];
    for (size_t r = 0; r < num_rows; ++r) out[r] = Multiplicity(y[r]);
    return;
  }
  std::vector<double> row(num_columns);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t c = 0; c < num_columns; ++c) row[c] = columns[c][r];
    out[r] = MultiplicityN(row.data(), num_columns);
  }
}

double HistogramMOracle::Multiplicity(double y) const {
  int r_idx = other_side_.FindBucket(y);
  if (r_idx < 0) return 0.0;
  const Bucket& br = other_side_.bucket(static_cast<size_t>(r_idx));
  double dv_r = std::max(br.distinct_values, 1.0);
  int s_idx = scanned_side_.FindBucket(y);
  if (s_idx < 0) {
    // No competing information about the scanned side: y matches one of
    // the dv_R groups.
    return br.frequency / dv_r;
  }
  const Bucket& bs = scanned_side_.bucket(static_cast<size_t>(s_idx));
  double dv_s = std::max(bs.distinct_values, 1.0);
  if (mode_ == ContainmentMode::kPaperRaw) {
    return br.frequency / std::max(dv_r, dv_s);
  }

  // The paper's formula f_R / max(dv_R, dv_S) compares the raw bucket
  // distinct counts, which is only meaningful when the two buckets cover
  // the same range. MaxDiff buckets are not aligned, so we first restrict
  // both distinct counts to the buckets' overlap O (grid density * |O|,
  // floored at one group):
  //   P(y matches) = min(1, n_R / n_S),  multiplicity = (f_R/dv_R) * P.
  // For aligned buckets n_R/n_S = dv_R/dv_S and this reduces exactly to
  // f_R / max(dv_R, dv_S).
  double overlap_lo = std::max(br.lo, bs.lo);
  double overlap_hi = std::min(br.hi, bs.hi);
  double overlap = std::max(overlap_hi - overlap_lo, 0.0);
  auto groups_in_overlap = [overlap](const Bucket& b, double dv) {
    if (b.Width() <= 0.0) return dv;
    return std::max(dv * overlap / b.Width(), 1.0);
  };
  double n_r = groups_in_overlap(br, dv_r);
  double n_s = groups_in_overlap(bs, dv_s);
  double match_probability = std::min(1.0, n_r / n_s);
  return (br.frequency / dv_r) * match_probability;
}

double GridMOracle::MultiplicityN(const double* values, size_t n) const {
  if (n < 2) return 0.0;
  const GridHistogram2D::Cell* r = other_side_.FindCell(values[0],
                                                        values[1]);
  if (r == nullptr || r->distinct_pairs <= 0.0) return 0.0;
  double dv_r = std::max(r->distinct_pairs, 1.0);
  double dv_s = 1.0;
  const GridHistogram2D::Cell* s =
      scanned_side_.FindCell(values[0], values[1]);
  if (s != nullptr) dv_s = std::max(s->distinct_pairs, 1.0);
  // Cells are aligned by construction (same bounds), so the paper's raw
  // containment formula is unbiased here.
  return r->frequency / std::max(dv_r, dv_s);
}

std::string CompositeExactMOracle::EncodeKey(const double* values,
                                             size_t n) {
  std::string key(n * sizeof(double), '\0');
  std::memcpy(key.data(), values, n * sizeof(double));
  return key;
}

Result<CompositeExactMOracle> CompositeExactMOracle::BuildFromTable(
    const Table& table, const std::vector<std::string>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("composite oracle needs columns");
  }
  std::vector<const Column*> cols;
  for (const std::string& name : columns) {
    SITSTATS_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(name));
    if (col->type() == ValueType::kString) {
      return Status::InvalidArgument("composite oracle over string column " +
                                     name);
    }
    cols.push_back(col);
  }
  std::unordered_map<std::string, double> counts;
  counts.reserve(table.num_rows());
  std::vector<double> values(cols.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t c = 0; c < cols.size(); ++c) {
      values[c] = cols[c]->GetNumeric(row);
    }
    counts[EncodeKey(values.data(), values.size())] += 1.0;
  }
  return CompositeExactMOracle(std::move(counts), cols.size());
}

double CompositeExactMOracle::MultiplicityN(const double* values,
                                            size_t n) const {
  auto it = counts_.find(EncodeKey(values, n));
  return it == counts_.end() ? 0.0 : it->second;
}

double IndexMOracle::Multiplicity(double y) const {
  return static_cast<double>(index_->Multiplicity(y));
}

double ExactMapMOracle::Multiplicity(double y) const {
  auto it = multiplicities_.find(y);
  return it == multiplicities_.end() ? 0.0 : it->second;
}

}  // namespace sitstats
