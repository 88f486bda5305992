#ifndef SITSTATS_SCHEDULER_SIT_PROBLEM_H_
#define SITSTATS_SCHEDULER_SIT_PROBLEM_H_

#include <vector>

#include "common/result.h"
#include "scheduler/problem.h"
#include "sit/sit.h"
#include "storage/catalog.h"
#include "storage/cost_model.h"

namespace sitstats {

/// Options for turning a set of SITs to create into a scheduling problem.
struct SitProblemOptions {
  CostModel cost_model;
  /// Sampling rate s: SampleSize(T) = s * |T| values.
  double sampling_rate = 0.1;
  /// Available memory M in values; infinity = unbounded.
  double memory_limit = std::numeric_limits<double>::infinity();
};

/// A scheduling problem derived from concrete SITs, with the bookkeeping
/// needed to execute the resulting schedule: sequence i of the problem
/// came from SIT `sequence_sit[i]`. A SIT has at most one sequence.
struct SitSchedulingProblem {
  SchedulingProblem problem;
  std::vector<size_t> sequence_sit;
};

/// Builds the weighted SCS instance for creating `sits` against `catalog`:
/// one input sequence per SIT, the tables of its join tree's ScanNodes()
/// (rooted at its attribute's table) in post-order, which are exactly the
/// scans its SweepBuild runs. Cost(T) comes from the cost model and
/// SampleSize(T) = rate * |T|. Base-table SITs contribute no sequence
/// (they need no Sweep scan).
///
/// The paper (Section 4) gives a tree-shaped SIT one dependency sequence
/// per root-to-leaf path. A Sweep scan of a node with several children
/// needs all of their outputs at once, so the paths' shared nodes must
/// advance together; one post-order sequence guarantees that, at the
/// price of fixing the order of sibling subtrees (DESIGN note 14). For a
/// chain rooted at an end table both models give the same sequence.
Result<SitSchedulingProblem> BuildSitSchedulingProblem(
    const Catalog& catalog, const std::vector<SitDescriptor>& sits,
    const SitProblemOptions& options);

}  // namespace sitstats

#endif  // SITSTATS_SCHEDULER_SIT_PROBLEM_H_
