#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "estimator/sit_estimator.h"
#include "query/join_tree.h"

namespace sitstats {

namespace {

/// Enumerates the connected subtrees of `tree` that contain the root,
/// as sets of node indices. A set is valid iff every included node's
/// parent is included (parent closure); trees here are tiny (query join
/// trees), so 2^n enumeration is fine.
std::vector<std::vector<int>> RootedSubtrees(const JoinTree& tree) {
  const size_t n = tree.size();
  std::vector<std::vector<int>> subtrees;
  for (uint64_t mask = 1; mask < (1ull << n); ++mask) {
    if ((mask & 1ull) == 0) continue;  // must contain the root (index 0)
    bool closed = true;
    for (size_t i = 1; i < n; ++i) {
      if ((mask & (1ull << i)) != 0) {
        int parent = tree.node(static_cast<int>(i)).parent;
        if ((mask & (1ull << static_cast<size_t>(parent))) == 0) {
          closed = false;
          break;
        }
      }
    }
    if (!closed) continue;
    std::vector<int> nodes;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) nodes.push_back(static_cast<int>(i));
    }
    if (nodes.size() >= 2) subtrees.push_back(std::move(nodes));
  }
  return subtrees;
}

/// The generating query induced by a rooted node set.
Result<GeneratingQuery> InducedQuery(const JoinTree& tree,
                                     const std::vector<int>& nodes) {
  std::set<int> node_set(nodes.begin(), nodes.end());
  std::vector<std::string> tables;
  std::vector<JoinPredicate> joins;
  for (int idx : nodes) {
    const JoinTree::Node& node = tree.node(idx);
    tables.push_back(node.table);
    if (node.parent >= 0 && node_set.contains(node.parent)) {
      const JoinTree::Node& parent = tree.node(node.parent);
      for (size_t j = 0; j < node.columns_to_parent.size(); ++j) {
        joins.push_back(
            JoinPredicate{ColumnRef{node.table, node.columns_to_parent[j]},
                          ColumnRef{parent.table, node.parent_columns[j]}});
      }
    }
  }
  return GeneratingQuery::Create(std::move(tables), std::move(joins));
}

}  // namespace

Result<std::vector<SitDescriptor>> SitAdvisor::EnumerateCandidates(
    const Workload& workload) const {
  std::vector<SitDescriptor> candidates;
  for (const WorkloadQuery& wq : workload) {
    if (wq.query.IsBaseTable()) continue;  // base statistics suffice
    if (wq.query.num_tables() > 16) {
      return Status::InvalidArgument(
          "candidate enumeration supports at most 16 tables per query");
    }
    SITSTATS_ASSIGN_OR_RETURN(
        JoinTree tree, JoinTree::Build(wq.query, wq.attribute.table));
    for (const std::vector<int>& nodes : RootedSubtrees(tree)) {
      SITSTATS_ASSIGN_OR_RETURN(GeneratingQuery sub,
                                InducedQuery(tree, nodes));
      SitDescriptor descriptor(wq.attribute, std::move(sub));
      bool duplicate = false;
      for (const SitDescriptor& existing : candidates) {
        if (existing.EquivalentTo(descriptor)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) candidates.push_back(std::move(descriptor));
    }
  }
  return candidates;
}

Result<SitAdvisor::Recommendation> SitAdvisor::Recommend(
    const Workload& workload) {
  SITSTATS_ASSIGN_OR_RETURN(std::vector<SitDescriptor> descriptors,
                            EnumerateCandidates(workload));
  std::vector<Candidate> scored;
  for (SitDescriptor& descriptor : descriptors) {
    // Pilot build: cheap Sweep.
    SitBuildOptions pilot_options;
    pilot_options.variant = SweepVariant::kSweep;
    pilot_options.sampling_rate = options_.pilot_sampling_rate;
    pilot_options.histogram_spec.num_buckets = options_.pilot_buckets;
    pilot_options.seed = options_.seed;
    Result<Sit> pilot =
        CreateSit(catalog_, base_stats_, descriptor, pilot_options);
    if (!pilot.ok()) continue;  // e.g. unsupported composite shapes

    // One-at-a-time creation cost.
    SITSTATS_ASSIGN_OR_RETURN(
        JoinTree tree,
        JoinTree::Build(descriptor.query(), descriptor.attribute().table));
    double cost = 0.0;
    for (int node_index : tree.ScanNodes()) {
      const std::string& table = tree.node(node_index).table;
      SITSTATS_ASSIGN_OR_RETURN(const Table* t, catalog_->GetTable(table));
      cost += options_.cost_model.SequentialScanCost(t->num_rows());
    }

    // Benefit proxy: workload-weighted disagreement between the pilot-
    // backed estimator and pure propagation.
    SitCatalog pilot_catalog;
    pilot_catalog.Add(std::move(pilot).ValueOrDie());
    CardinalityEstimator with(catalog_, base_stats_, &pilot_catalog);
    CardinalityEstimator without(catalog_, base_stats_, nullptr);
    Candidate candidate{descriptor, 0.0, cost, 0};
    for (const WorkloadQuery& wq : workload) {
      if (wq.attribute != descriptor.attribute()) continue;
      SITSTATS_ASSIGN_OR_RETURN(
          CardinalityEstimator::Estimate est_with,
          with.EstimateRangeQuery(wq.query, wq.attribute, wq.lo, wq.hi));
      if (!est_with.used_sit) continue;  // candidate does not apply
      SITSTATS_ASSIGN_OR_RETURN(
          CardinalityEstimator::Estimate est_without,
          without.EstimateRangeQuery(wq.query, wq.attribute, wq.lo, wq.hi));
      // Symmetric, bounded disagreement in [0, 1): 0 when the two
      // estimators agree, -> 1 when they differ by orders of magnitude.
      double disagreement =
          std::fabs(est_with.cardinality - est_without.cardinality) /
          std::max({est_with.cardinality, est_without.cardinality, 1.0});
      candidate.benefit += wq.weight * disagreement;
      candidate.applicable_queries += 1;
    }
    scored.push_back(std::move(candidate));
  }

  // Greedy benefit/cost selection under the budget.
  std::sort(scored.begin(), scored.end(),
            [](const Candidate& a, const Candidate& b) {
              double ra = a.benefit / std::max(a.cost, 1e-9);
              double rb = b.benefit / std::max(b.cost, 1e-9);
              if (ra != rb) return ra > rb;
              return a.benefit > b.benefit;
            });
  Recommendation recommendation;
  for (Candidate& candidate : scored) {
    bool affordable =
        recommendation.total_cost + candidate.cost <= options_.budget;
    if (candidate.benefit >= options_.min_benefit &&
        candidate.applicable_queries > 0 && affordable) {
      recommendation.total_cost += candidate.cost;
      recommendation.selected.push_back(std::move(candidate));
    } else {
      recommendation.rejected.push_back(std::move(candidate));
    }
  }
  return recommendation;
}

Status SitAdvisor::CreateSelected(const Recommendation& recommendation,
                                  SweepVariant variant, SitCatalog* sits) {
  for (const Candidate& candidate : recommendation.selected) {
    SitBuildOptions options;
    options.variant = variant;
    options.seed = options_.seed;
    SITSTATS_ASSIGN_OR_RETURN(
        Sit sit,
        CreateSit(catalog_, base_stats_, candidate.descriptor, options));
    sits->Add(std::move(sit));
  }
  return Status::OK();
}

}  // namespace sitstats
