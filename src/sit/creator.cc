#include "sit/creator.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "histogram/join_estimate.h"
#include "query/join_tree.h"
#include "sit/oracle_factory.h"
#include "sit/sweep_scan.h"
#include "telemetry/telemetry.h"

namespace sitstats {

namespace {

bool UsesSampling(SweepVariant variant) {
  return variant == SweepVariant::kSweep ||
         variant == SweepVariant::kSweepIndex;
}

bool UsesExactOracle(SweepVariant variant) {
  return variant == SweepVariant::kSweepIndex ||
         variant == SweepVariant::kSweepExact;
}

/// Rejects composite join predicates between intermediate results
/// (NotImplemented): a 1D intermediate SIT cannot carry their joint
/// distribution. Composite edges towards leaves are fine.
Status CheckNoCompositeIntermediate(const JoinTree& tree) {
  for (int node_index : tree.ScanNodes()) {
    const JoinTree::Node& node = tree.node(node_index);
    if (node_index != tree.root() && node.HasCompositeParentEdge()) {
      return Status::NotImplemented(
          "composite join predicates between intermediate results are not "
          "supported (node " + node.table + ")");
    }
  }
  return Status::OK();
}

/// The Hist-SIT baseline: propagate base histograms through the join tree
/// without touching the data.
Result<Sit> CreateHistSit(Catalog* catalog, BaseStatsCache* base_stats,
                          const SitDescriptor& descriptor) {
  const ColumnRef& attribute = descriptor.attribute();
  SITSTATS_ASSIGN_OR_RETURN(
      JoinTree tree, JoinTree::Build(descriptor.query(), attribute.table));
  SITSTATS_RETURN_IF_ERROR(CheckNoCompositeIntermediate(tree));

  // Estimated cardinality of each node's subtree join, bottom-up. For a
  // node with children c1..ck the optimizer folds the children in one at a
  // time: card = |T|, then for each child,
  //   card = EstimateJoin(scale(H_base(node.key_ci), card), H_key(ci)).
  std::map<int, double> subtree_card;
  std::map<int, Histogram> subtree_key_hist;
  for (int node_index : tree.PostOrder()) {
    const JoinTree::Node& node = tree.node(node_index);
    SITSTATS_ASSIGN_OR_RETURN(const Table* table,
                              catalog->GetTable(node.table));
    double card = static_cast<double>(table->num_rows());
    for (int child_index : node.children) {
      const JoinTree::Node& child = tree.node(child_index);
      double child_card = subtree_card[child_index];
      // Fold the child's predicates in with the classic independence-
      // between-predicates rule: sel(p1 ∧ p2 ∧ ...) = Π sel(p_i).
      double selectivity = 1.0;
      for (size_t j = 0; j < child.columns_to_parent.size(); ++j) {
        SITSTATS_ASSIGN_OR_RETURN(
            const Histogram* own_key,
            base_stats->GetOrBuild(*catalog, node.table,
                                   child.parent_columns[j], nullptr));
        Histogram scaled = own_key->ScaledToTotal(card);
        Histogram child_key;
        if (j == 0 && !tree.IsLeaf(child_index)) {
          child_key = subtree_key_hist[child_index];
        } else {
          SITSTATS_ASSIGN_OR_RETURN(
              const Histogram* child_base,
              base_stats->GetOrBuild(*catalog, child.table,
                                     child.columns_to_parent[j], nullptr));
          child_key = child_base->ScaledToTotal(child_card);
        }
        double join_est = EstimateJoinCardinality(scaled, child_key);
        selectivity *= join_est / std::max(card * child_card, 1.0);
      }
      card = card * child_card * selectivity;
    }
    subtree_card[node_index] = card;
    const bool is_root = node_index == tree.root();
    const std::string& key_column =
        is_root ? attribute.column : node.column_to_parent();
    SITSTATS_ASSIGN_OR_RETURN(
        const Histogram* key_hist,
        base_stats->GetOrBuild(*catalog, node.table, key_column, nullptr));
    subtree_key_hist[node_index] = key_hist->ScaledToTotal(card);
  }

  Sit sit{descriptor, std::move(subtree_key_hist[tree.root()]),
          SweepVariant::kHistSit, subtree_card[tree.root()], IoStats{}};
  return sit;
}

}  // namespace

uint64_t SitStreamSeed(uint64_t seed, const SitDescriptor& descriptor) {
  return DeriveStreamSeed(seed, descriptor.ToString());
}

SweepBuild::SweepBuild(Catalog* catalog, BaseStatsCache* base_stats,
                       const SitDescriptor& descriptor,
                       const SitBuildOptions& options, JoinTree tree)
    : catalog_(catalog),
      base_stats_(base_stats),
      descriptor_(descriptor),
      options_(options),
      tree_(std::move(tree)),
      scan_nodes_(tree_.ScanNodes()),
      rng_(SitStreamSeed(options.seed, descriptor)) {}

Result<SweepBuild> SweepBuild::Start(Catalog* catalog,
                                     BaseStatsCache* base_stats,
                                     const SitDescriptor& descriptor,
                                     const SitBuildOptions& options) {
  if (options.variant == SweepVariant::kHistSit) {
    return Status::InvalidArgument("Hist-SIT is not a sweep build");
  }
  // `!(x > 0)` instead of `x <= 0`: NaN fails both orderings of the
  // naive spelling and would sail through to the capacity math (where
  // casting rows * NaN is undefined behavior).
  if (!(options.sampling_rate > 0.0) || options.sampling_rate > 1.0) {
    return Status::InvalidArgument("sampling_rate must be in (0, 1]");
  }
  SITSTATS_ASSIGN_OR_RETURN(
      JoinTree tree,
      JoinTree::Build(descriptor.query(), descriptor.attribute().table));
  SITSTATS_RETURN_IF_ERROR(CheckNoCompositeIntermediate(tree));
  return SweepBuild(catalog, base_stats, descriptor, options, std::move(tree));
}

Result<IoStats> AdvanceSweepBuilds(std::span<SweepBuild* const> builds) {
  if (builds.empty()) {
    return Status::InvalidArgument("no sweep builds to advance");
  }
  const SitBuildOptions& options = builds.front()->options_;
  const bool exact_oracle = UsesExactOracle(options.variant);
  SweepScanSpec spec;
  spec.sampling_rate = options.sampling_rate;
  spec.use_sampling = UsesSampling(options.variant);
  spec.histogram_spec = options.histogram_spec;
  spec.cancel = options.cancel;

  // Oracles must outlive the scan; owned here per scan.
  std::vector<std::unique_ptr<MultiplicityOracle>> oracles;
  for (SweepBuild* build : builds) {
    if (build->done()) {
      return Status::InvalidArgument(build->descriptor_.ToString() +
                                     " has no scan left");
    }
    const JoinTree& tree = build->tree_;
    const int node_index = build->next_node();
    const JoinTree::Node& node = tree.node(node_index);
    if (spec.targets.empty()) spec.table = node.table;
    if (node.table != spec.table) {
      return Status::InvalidArgument("a shared scan reads one table, not " +
                                     spec.table + " and " + node.table);
    }
    SweepTarget target;
    for (int child_index : node.children) {
      // Consumed here: the oracle copies the histogram or takes the map.
      auto child_output = build->node_outputs_.extract(child_index);
      SITSTATS_ASSIGN_OR_RETURN(
          std::unique_ptr<MultiplicityOracle> oracle,
          MakeChildOracle(build->catalog_, build->base_stats_, tree,
                          node_index, child_index,
                          child_output ? &child_output.mapped() : nullptr,
                          exact_oracle, /*rng=*/nullptr,
                          options.containment_mode));
      target.join_indices.push_back(spec.joins.size());
      spec.joins.push_back(
          SweepJoin{tree.node(child_index).parent_columns, oracle.get()});
      oracles.push_back(std::move(oracle));
    }
    const bool is_root = node_index == tree.root();
    target.attribute = is_root ? build->descriptor_.attribute().column
                               : node.column_to_parent();
    target.build_exact_map = exact_oracle && !is_root;
    target.rng = &build->rng_;
    spec.targets.push_back(std::move(target));
  }

  SITSTATS_ASSIGN_OR_RETURN(
      std::vector<SweepOutput> outputs,
      SweepScanTable(builds.front()->catalog_, spec, nullptr));
  // Every build brought joins of its own, so the scan's lookups are the
  // sum of the targets' shares; the scan and its rows are shared.
  IoStats scan_stats;
  for (const SweepOutput& output : outputs) scan_stats += output.io_stats;
  scan_stats.sequential_scans = 1;
  scan_stats.rows_scanned = outputs.front().io_stats.rows_scanned;
  for (size_t i = 0; i < builds.size(); ++i) {
    // A NaN attribute joins nothing at an intermediate step, and the scan
    // skipped it; at the root it is the SIT's own value, which no
    // histogram can hold.
    if (outputs[i].nan_rows > 0 &&
        builds[i]->next_node() == builds[i]->tree_.root()) {
      return Status::InvalidArgument(
          "histogram input has a value that is not finite: nan");
    }
  }
  for (size_t i = 0; i < builds.size(); ++i) {
    builds[i]->io_stats_ += outputs[i].io_stats;
    builds[i]->node_outputs_[builds[i]->next_node()] = std::move(outputs[i]);
    ++builds[i]->next_scan_;
  }
  return scan_stats;
}

Result<Sit> SweepBuild::Finish() && {
  if (!done()) {
    return Status::InvalidArgument(descriptor_.ToString() +
                                   " is missing scans");
  }
  const ColumnRef& attribute = descriptor_.attribute();
  // Base-table query: the "SIT" is just a base histogram.
  if (descriptor_.query().IsBaseTable()) {
    SITSTATS_ASSIGN_OR_RETURN(
        const Histogram* hist,
        base_stats_->GetOrBuild(*catalog_, attribute.table, attribute.column,
                                nullptr));
    SITSTATS_ASSIGN_OR_RETURN(const Table* table,
                              catalog_->GetTable(attribute.table));
    return Sit{std::move(descriptor_), *hist, options_.variant,
               static_cast<double>(table->num_rows()), IoStats{}};
  }
  SweepOutput& root_output = node_outputs_[tree_.root()];
  return Sit{std::move(descriptor_), std::move(root_output.histogram),
             options_.variant, root_output.estimated_cardinality, io_stats_};
}

Result<Sit> CreateSit(Catalog* catalog, BaseStatsCache* base_stats,
                      const SitDescriptor& descriptor,
                      const SitBuildOptions& options) {
  static telemetry::Counter& sits_created =
      telemetry::MetricsRegistry::Global().GetCounter("sit.creates");
  telemetry::TraceSpan span("sit.create");
  span.AddAttribute("sit", descriptor.ToString());
  span.AddAttribute("variant", SweepVariantToString(options.variant));
  sits_created.Increment();
  SITSTATS_FAULT_SITE("sit.create");
  if (!descriptor.query().ReferencesTable(descriptor.attribute().table)) {
    return Status::InvalidArgument(
        "SIT attribute table is not part of the generating query: " +
        descriptor.ToString());
  }
  if (options.variant == SweepVariant::kHistSit) {
    return CreateHistSit(catalog, base_stats, descriptor);
  }
  SITSTATS_ASSIGN_OR_RETURN(
      SweepBuild build,
      SweepBuild::Start(catalog, base_stats, descriptor, options));
  SweepBuild* const solo[] = {&build};
  while (!build.done()) {
    SITSTATS_RETURN_IF_ERROR(AdvanceSweepBuilds(solo).status());
  }
  return std::move(build).Finish();
}

}  // namespace sitstats
