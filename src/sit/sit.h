#ifndef SITSTATS_SIT_SIT_H_
#define SITSTATS_SIT_SIT_H_

#include <string>

#include "histogram/histogram.h"
#include "query/column_ref.h"
#include "query/generating_query.h"
#include "storage/io_stats.h"

namespace sitstats {

/// Names one SIT (Definition 1): the statistic over `attribute` on the
/// result of `query`. attribute.table must be referenced by the query.
class SitDescriptor {
 public:
  SitDescriptor(ColumnRef attribute, GeneratingQuery query)
      : attribute_(std::move(attribute)), query_(std::move(query)) {}

  const ColumnRef& attribute() const { return attribute_; }
  const GeneratingQuery& query() const { return query_; }

  /// "SIT(S.a | R JOIN S ON ...)".
  std::string ToString() const {
    return "SIT(" + attribute_.ToString() + " | " + query_.ToString() + ")";
  }

  /// Same attribute and an equivalent generating query.
  bool EquivalentTo(const SitDescriptor& other) const {
    return attribute_ == other.attribute_ &&
           query_.EquivalentTo(other.query_);
  }

 private:
  ColumnRef attribute_;
  GeneratingQuery query_;
};

/// How a SIT was built — the paper's accuracy/efficiency spectrum
/// (Section 3.1.2) plus the traditional propagation baseline (Hist-SIT).
enum class SweepVariant {
  /// Histogram m-Oracle + reservoir sampling: relies on the containment
  /// and sampling assumptions only.
  kSweep,
  /// Exact m-Oracle (index / exact multiplicity map) + sampling: drops the
  /// containment assumption.
  kSweepIndex,
  /// Histogram m-Oracle, no sampling (one weight per distinct attribute
  /// value): drops the sampling assumption.
  kSweepFull,
  /// Exact m-Oracle, no sampling: identical to executing the generating
  /// query and building the histogram over the result.
  kSweepExact,
  /// No scan at all: propagate base-table histograms through the join
  /// (independence + containment + sampling assumptions). The baseline
  /// current optimizers implement.
  kHistSit,
};

const char* SweepVariantToString(SweepVariant variant);

/// A built SIT: descriptor, the statistic itself, and build metadata.
struct Sit {
  SitDescriptor descriptor;
  Histogram histogram;
  SweepVariant variant = SweepVariant::kSweep;
  /// The builder's estimate of |query| (total weight of the approximated
  /// stream; for kSweepExact this is exact).
  double estimated_cardinality = 0.0;
  /// Physical work of this SIT's own build: one sequential scan and its
  /// rows per scan it took part in, and the lookups of its own m-Oracle
  /// joins (the sum of its SweepOutput::io_stats shares). The same whether
  /// built alone, in a shared-scan schedule, or beside concurrent builds;
  /// empty for Hist-SIT and base-table SITs, which scan nothing.
  IoStats build_stats;
};

}  // namespace sitstats

#endif  // SITSTATS_SIT_SIT_H_
