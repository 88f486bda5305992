#ifndef SITSTATS_SIT_CREATOR_H_
#define SITSTATS_SIT_CREATOR_H_

#include <map>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/rng.h"
#include "query/join_tree.h"
#include "sit/base_stats.h"
#include "sit/m_oracle.h"
#include "sit/sit.h"
#include "sit/sweep_scan.h"
#include "storage/catalog.h"

namespace sitstats {

/// Options controlling how a SIT is created.
struct SitBuildOptions {
  SweepVariant variant = SweepVariant::kSweep;
  /// Reservoir sampling rate relative to the scanned table's size (the
  /// paper uses 10%); must be in (0, 1] for every Sweep variant. Only the
  /// sampling variants read it.
  double sampling_rate = 0.1;
  /// Bucketing of the produced SIT and of intermediate SITs.
  HistogramSpec histogram_spec;
  /// Bucket-alignment handling of the histogram m-Oracle (ablation knob;
  /// keep the default for accurate results).
  ContainmentMode containment_mode = ContainmentMode::kDensityNormalized;
  /// Base seed for sampling and randomized rounding. Each SIT draws from
  /// its own stream seeded with DeriveStreamSeed(seed, descriptor name) —
  /// see SitStreamSeed — so the same descriptor yields the same statistic
  /// whether built alone, in any batch, or on any number of threads.
  uint64_t seed = 42;
  /// Cooperative cancellation, polled inside every sweep scan's row loop:
  /// a cancelled token aborts the build promptly with Status::Cancelled,
  /// an expired deadline with Status::DeadlineExceeded. Server request
  /// timeouts ride in on this as the token's deadline. Default: never
  /// cancelled.
  CancellationToken cancel;
};

/// Seed of `descriptor`'s private random stream under base seed `seed`:
/// DeriveStreamSeed(seed, descriptor.ToString()). Every SweepBuild seeds
/// from this, which is what makes solo and batched builds of the same SIT
/// byte-identical.
uint64_t SitStreamSeed(uint64_t seed, const SitDescriptor& descriptor);

/// One SIT's Sweep-family build in progress (Section 3.2): its join tree,
/// one scan per node of the tree's ScanNodes(), the outputs of finished scans
/// keyed by join-tree node (a node with several children finds all of
/// theirs), and the SIT's private random stream.
///
/// This is the only Sweep build path. CreateSit advances one build scan by
/// scan; ExecuteSitSchedule advances several per shared scan. A SIT's scans
/// draw the same numbers from the same stream either way, so its bytes do
/// not depend on the caller, the batch, or the thread count.
class SweepBuild {
 public:
  /// Plans the scans; none runs yet. Rejects kHistSit and a sampling_rate
  /// outside (0, 1] (InvalidArgument), and composite join predicates
  /// between intermediate results (NotImplemented: a 1D intermediate SIT
  /// cannot carry their joint distribution; composite edges towards leaves
  /// are fine). `catalog` and `base_stats` must outlive the build.
  static Result<SweepBuild> Start(Catalog* catalog, BaseStatsCache* base_stats,
                                  const SitDescriptor& descriptor,
                                  const SitBuildOptions& options);

  const JoinTree& tree() const { return tree_; }
  /// tree().ScanNodes(): the internal nodes in scan order; empty for a
  /// base-table SIT.
  const std::vector<int>& scan_nodes() const { return scan_nodes_; }
  bool done() const { return next_scan_ == scan_nodes_.size(); }

  /// The SIT from the root scan (or the base histogram of a base-table
  /// SIT). Its build_stats add up this build's share of every scan it
  /// took part in (SweepOutput::io_stats), so they are the same whether
  /// the scans were shared, and on however many threads; a base-table SIT
  /// reads cached statistics only and reports none. InvalidArgument
  /// unless done().
  Result<Sit> Finish() &&;

 private:
  SweepBuild(Catalog* catalog, BaseStatsCache* base_stats,
             const SitDescriptor& descriptor, const SitBuildOptions& options,
             JoinTree tree);
  friend Result<IoStats> AdvanceSweepBuilds(
      std::span<SweepBuild* const> builds);
  int next_node() const { return scan_nodes_[next_scan_]; }

  Catalog* catalog_;
  BaseStatsCache* base_stats_;
  SitDescriptor descriptor_;
  SitBuildOptions options_;
  JoinTree tree_;
  std::vector<int> scan_nodes_;
  size_t next_scan_ = 0;
  std::map<int, SweepOutput> node_outputs_;
  IoStats io_stats_;
  Rng rng_;
};

/// Runs the next scan of every build in `builds` as one SweepScanTable
/// call (Example 3: one scan of S serves several SITs). Each build adds an
/// m-Oracle join per child of its next node and one target drawing from
/// its own stream. The builds must share the catalog, base statistics and
/// options they were started with, and their next scans must read the same
/// table (InvalidArgument otherwise). Builds must not move meanwhile; calls
/// on disjoint builds may run concurrently. Returns the scan's physical
/// work: one scan, its rows and every join's lookups.
Result<IoStats> AdvanceSweepBuilds(std::span<SweepBuild* const> builds);

/// Creates one SIT over an acyclic-join generating query, dispatching on
/// options.variant:
///
///  - kSweep / kSweepIndex / kSweepFull / kSweepExact run a SweepBuild
///    scan by scan: leaves contribute base-table statistics (histograms
///    for the approximating oracles, indexes for the exact ones), every
///    internal node is one sequential scan that produces the intermediate
///    SIT over its parent-join column (for the exact oracles, only its
///    exact multiplicity map), and the root scan produces the requested
///    SIT.
///  - kHistSit performs no scans at all: it propagates base-table
///    histograms through the join using the containment assumption for
///    join cardinalities and the independence assumption for scaling —
///    the traditional optimizer estimate that SITs are designed to
///    replace.
///
/// `base_stats` supplies (and caches) base-table histograms; `catalog` is
/// mutable because the exact variants may build indexes on demand.
Result<Sit> CreateSit(Catalog* catalog, BaseStatsCache* base_stats,
                      const SitDescriptor& descriptor,
                      const SitBuildOptions& options);

}  // namespace sitstats

#endif  // SITSTATS_SIT_CREATOR_H_
