#ifndef SITSTATS_SCHEDULER_EXECUTOR_H_
#define SITSTATS_SCHEDULER_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "scheduler/problem.h"
#include "scheduler/sit_problem.h"
#include "sit/base_stats.h"
#include "sit/creator.h"
#include "sit/sit.h"
#include "storage/catalog.h"

namespace sitstats {

/// The most worker threads any thread-count setting may ask for: the
/// schedule executor's workers and each sitstats-server worker class.
inline constexpr size_t kMaxThreads = 256;

/// Resolves a thread-count request: `requested` > 0 wins; otherwise the
/// SITSTATS_THREADS environment variable (if set to a positive integer);
/// otherwise 1 (serial). Results are byte-identical at any thread count,
/// so this only ever changes wall-clock time. Clamped to [1, kMaxThreads].
size_t ResolveThreadCount(int requested);

/// Options for executing a schedule: how to build each SIT (a
/// Sweep-family variant, not kHistSit), plus the worker count. Every SIT
/// draws from its own stream seeded with SitStreamSeed(seed, descriptor),
/// so each built SIT is byte-identical to the same SIT built alone by
/// CreateSit with the same SitBuildOptions, regardless of batch
/// composition, step order, or thread count.
///
/// `cancel` covers the whole execution. The executor links an internal
/// source to this token and hands the linked token to every sweep scan, so
/// cancelling here, or this token's deadline passing (a server request
/// timeout, typically), aborts in-flight scans promptly with Cancelled or
/// DeadlineExceeded — and a step failure cancels the same internal source,
/// so first-error-wins *stops* running steps instead of merely not
/// scheduling new ones.
struct ScheduleExecutionOptions : SitBuildOptions {
  /// Worker threads for independent schedule steps: > 0 uses that many,
  /// 0 defers to the SITSTATS_THREADS environment variable (default 1 =
  /// serial). See ResolveThreadCount. Results do not depend on this —
  /// only wall-clock time does. Note the schedule's memory feasibility is
  /// proved per step; concurrent steps can transiently hold up to
  /// num_threads steps' sample sets at once.
  int num_threads = 0;
};

struct ScheduleExecutionResult {
  /// One built SIT per input descriptor, in input order.
  std::vector<Sit> sits;
  /// Physical work of the whole execution: the sum of every step's shared
  /// scan, each counted once. Each SIT's build_stats holds its own share
  /// of the scans it took part in, equal to its solo CreateSit build; the
  /// SITs' build_stats add up to more than this wherever scans are shared.
  IoStats total_stats;
  /// Resolved worker-thread count the schedule actually ran with.
  size_t threads_used = 1;
};

/// Executes `schedule` (computed by SolveSchedule over
/// `mapping.problem`), actually creating every SIT and *sharing* each
/// scheduled scan among the SITs it advances (Example 3 / Example 6 of the
/// paper). The executor only schedules: it starts one SweepBuild per SIT,
/// runs each schedule step as one AdvanceSweepBuilds call over the SITs
/// the step advances, and finishes every build — the same build path
/// CreateSit drives for a single SIT.
///
/// A SIT's sequence is its join tree's ScanNodes(), so advancing it by one
/// table is exactly its build's next scan, for chain, star and tree
/// generating queries alike. A step whose table is not the next scan of
/// every SIT it advances is InvalidArgument.
///
/// Steps run from one ready list, lowest index first, on min(threads,
/// steps) workers: the calling thread plus helper threads. One worker runs
/// the schedule in order; more run steps whose SIT sets are disjoint
/// concurrently.
Result<ScheduleExecutionResult> ExecuteSitSchedule(
    Catalog* catalog, BaseStatsCache* base_stats,
    const std::vector<SitDescriptor>& sits,
    const SitSchedulingProblem& mapping, const Schedule& schedule,
    const ScheduleExecutionOptions& options);

}  // namespace sitstats

#endif  // SITSTATS_SCHEDULER_EXECUTOR_H_
