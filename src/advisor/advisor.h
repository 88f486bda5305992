#ifndef SITSTATS_ADVISOR_ADVISOR_H_
#define SITSTATS_ADVISOR_ADVISOR_H_

#include <vector>

#include "advisor/workload.h"
#include "common/result.h"
#include "sit/base_stats.h"
#include "sit/creator.h"
#include "sit/sit_catalog.h"
#include "storage/catalog.h"
#include "storage/cost_model.h"

namespace sitstats {

/// Workload-driven SIT selection, in the spirit of the companion paper
/// ([2], Section 2.2 here): given a workload of SPJ queries, decide
/// *which* SITs are worth creating before spending any scan on them.
///
/// Pipeline:
///  1. candidate enumeration — every subexpression of every workload
///    query that contains the predicate attribute's table yields a
///    candidate SIT(attr | subexpression);
///  2. benefit scoring — each candidate is probed with a *cheap* pilot
///    build (Sweep at a small sampling rate and few buckets); its score is
///    the workload-weighted estimation-error reduction of the pilot
///    versus pure propagation, measured against the pilot itself as the
///    reference (no ground-truth executions, matching the paper's "no
///    a-priori builds" requirement — the pilot costs a scan, but at the
///    pilot sampling rate);
///  3. selection — greedy benefit/cost knapsack under a scan-cost budget
///    (Cost(T) units of the scheduler's cost model);
///  4. creation — the selected set is handed to the Section 4 scheduler.
class SitAdvisor {
 public:
  struct Options {
    /// Pilot build: cheap and rough.
    double pilot_sampling_rate = 0.01;
    int pilot_buckets = 25;
    /// Creation budget in scheduler cost units (sum of the selected SITs'
    /// one-at-a-time costs, without sharing). Infinity = select everything
    /// with positive benefit.
    double budget = std::numeric_limits<double>::infinity();
    /// Candidates whose relative benefit score is below this are dropped
    /// even with budget to spare.
    double min_benefit = 0.05;
    CostModel cost_model;
    uint64_t seed = 42;
  };

  /// One scored candidate.
  struct Candidate {
    SitDescriptor descriptor;
    /// Workload-weighted symmetric disagreement between propagation and
    /// the pilot SIT over the queries the candidate applies to, each term
    /// in [0, 1); the benefit proxy (0 = propagation already agrees,
    /// large = propagation is far off and the SIT will correct it).
    double benefit = 0.0;
    /// One-at-a-time creation cost (scheduler units): Cost(T) summed over
    /// the scans its SweepBuild runs (JoinTree::ScanNodes), so a node that
    /// several root-to-leaf paths share is paid once.
    double cost = 0.0;
    /// Number of workload queries the candidate applies to.
    int applicable_queries = 0;
  };

  struct Recommendation {
    std::vector<Candidate> selected;
    std::vector<Candidate> rejected;
    double total_cost = 0.0;
  };

  SitAdvisor(Catalog* catalog, BaseStatsCache* base_stats, Options options)
      : catalog_(catalog),
        base_stats_(base_stats),
        options_(std::move(options)) {}

  /// Enumerates candidate SITs for `workload`: all connected
  /// subexpressions (with >= 1 join) of each query's join tree that
  /// contain the attribute's table, deduplicated across queries.
  Result<std::vector<SitDescriptor>> EnumerateCandidates(
      const Workload& workload) const;

  /// Scores and selects candidates for `workload` under the budget.
  Result<Recommendation> Recommend(const Workload& workload);

  /// Builds the selected SITs (with `variant`) and registers them in
  /// `sits`. Creation builds one SIT at a time; callers wanting shared
  /// scans can feed recommendation.selected, chains, stars and trees
  /// alike, into BuildSitSchedulingProblem / ExecuteSitSchedule instead.
  Status CreateSelected(const Recommendation& recommendation,
                        SweepVariant variant, SitCatalog* sits);

 private:
  Catalog* catalog_;
  BaseStatsCache* base_stats_;
  Options options_;
};

}  // namespace sitstats

#endif  // SITSTATS_ADVISOR_ADVISOR_H_
