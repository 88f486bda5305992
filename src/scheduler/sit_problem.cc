#include "scheduler/sit_problem.h"

#include "query/join_tree.h"

namespace sitstats {

Result<SitSchedulingProblem> BuildSitSchedulingProblem(
    const Catalog& catalog, const std::vector<SitDescriptor>& sits,
    const SitProblemOptions& options) {
  SitSchedulingProblem out;
  out.problem.set_memory_limit(options.memory_limit);
  for (size_t s = 0; s < sits.size(); ++s) {
    const SitDescriptor& sit = sits[s];
    SITSTATS_ASSIGN_OR_RETURN(
        JoinTree tree,
        JoinTree::Build(sit.query(), sit.attribute().table));
    std::vector<std::string> sequence;
    for (int node_index : tree.ScanNodes()) {
      const std::string& table = tree.node(node_index).table;
      if (out.problem.FindTable(table) < 0) {
        SITSTATS_ASSIGN_OR_RETURN(const Table* t, catalog.GetTable(table));
        out.problem.AddTable(
            table, options.cost_model.SequentialScanCost(t->num_rows()),
            static_cast<double>(options.cost_model.SampleSize(
                t->num_rows(), options.sampling_rate)));
      }
      sequence.push_back(table);
    }
    if (sequence.empty()) continue;  // base table: no scan to schedule
    SITSTATS_RETURN_IF_ERROR(out.problem.AddSequence(sequence).status());
    out.sequence_sit.push_back(s);
  }
  return out;
}

}  // namespace sitstats
