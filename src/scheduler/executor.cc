#include "scheduler/executor.h"

#include <algorithm>
#include <atomic>
#include <functional>

#include "common/cancellation.h"
#include "common/sync.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "query/join_tree.h"
#include "telemetry/telemetry.h"

namespace sitstats {

namespace {

/// One schedule step, fully resolved and validated up front so execution
/// needs no further schedule bookkeeping: which table to scan, which SIT
/// builds it advances, and the DAG edges. Step j depends on step i < j iff
/// they advance a common SIT; steps with disjoint SIT sets only share
/// read-only catalog state and may run concurrently.
struct PlannedStep {
  std::string table;
  std::vector<size_t> sits;
  std::vector<size_t> dependents;  // steps waiting on this one
  size_t num_deps = 0;
};

}  // namespace

Result<ScheduleExecutionResult> ExecuteSitSchedule(
    Catalog* catalog, BaseStatsCache* base_stats,
    const std::vector<SitDescriptor>& sits,
    const SitSchedulingProblem& mapping, const Schedule& schedule,
    const ScheduleExecutionOptions& options) {
  if (options.variant == SweepVariant::kHistSit) {
    return Status::InvalidArgument(
        "schedules execute Sweep-family variants, not Hist-SIT");
  }
  // Solve/execute boundary: schedules arrive from callers, so re-prove
  // them gracefully before sharing scans according to them — a corrupt
  // advancing set would build SITs from the wrong intermediate
  // populations.
  SITSTATS_RETURN_IF_ERROR(schedule.Validate(mapping.problem));
  SITSTATS_FAULT_SITE("scheduler.plan");
  const size_t threads = ResolveThreadCount(options.num_threads);
  telemetry::TraceSpan exec_span("scheduler.execute_schedule");
  exec_span.AddAttribute("sits", static_cast<double>(sits.size()));
  exec_span.AddAttribute("steps",
                         static_cast<double>(schedule.steps.size()));
  exec_span.AddAttribute("threads", static_cast<double>(threads));

  // Sequence index -> SIT index; a SIT's one sequence is its scan plan.
  std::vector<int> sit_of_sequence(mapping.problem.num_sequences(), -1);
  std::vector<bool> has_sequence(sits.size(), false);
  for (size_t seq = 0; seq < mapping.sequence_sit.size(); ++seq) {
    size_t s = mapping.sequence_sit[seq];
    if (s >= sits.size() || has_sequence[s]) {
      return Status::InvalidArgument(
          "mapping needs one sequence per SIT, by SIT index");
    }
    has_sequence[s] = true;
    sit_of_sequence[seq] = static_cast<int>(s);
  }

  // One source for the whole execution, linked to the caller's token:
  // cancelling either (request timeout upstream, or the first failing
  // step below) flips the same signal, and every in-flight sweep scan
  // polls it in its row loop — so an abort is prompt, not
  // "whenever the running scans happen to finish".
  CancellationSource abort(options.cancel);
  const CancellationToken abort_token = abort.token();
  SitBuildOptions build_options = options;
  build_options.cancel = abort_token;
  // Never resized after this loop: AdvanceSweepBuilds needs stable builds.
  std::vector<SweepBuild> builds;
  builds.reserve(sits.size());
  for (size_t s = 0; s < sits.size(); ++s) {
    SITSTATS_ASSIGN_OR_RETURN(
        SweepBuild build,
        SweepBuild::Start(catalog, base_stats, sits[s], build_options));
    if (!has_sequence[s] && !build.scan_nodes().empty()) {
      return Status::InvalidArgument("SIT " + sits[s].ToString() +
                                     " is missing from the mapping");
    }
    builds.push_back(std::move(build));
  }

  // Plan phase: resolve every step against the SIT trees and wire the
  // dependency DAG. All schedule-shape errors surface here, serially and
  // deterministically, before any scan runs.
  std::vector<PlannedStep> plan(schedule.steps.size());
  std::vector<int> last_step_of_sit(sits.size(), -1);
  std::vector<size_t> planned_scans(sits.size(), 0);
  for (size_t step_idx = 0; step_idx < schedule.steps.size(); ++step_idx) {
    const ScheduleStep& step = schedule.steps[step_idx];
    PlannedStep& planned = plan[step_idx];
    planned.table = mapping.problem.table_name(step.table);
    std::vector<size_t> deps;
    for (size_t seq : step.advanced) {
      int s = sit_of_sequence[static_cast<size_t>(seq)];
      if (s < 0) {
        return Status::InvalidArgument("schedule advances unmapped sequence");
      }
      const SweepBuild& build = builds[static_cast<size_t>(s)];
      size_t scan = planned_scans[static_cast<size_t>(s)];
      if (scan >= build.scan_nodes().size()) {
        return Status::InvalidArgument(
            "schedule advances SIT past its last scan: " +
            sits[static_cast<size_t>(s)].ToString());
      }
      const JoinTree::Node& node = build.tree().node(build.scan_nodes()[scan]);
      if (node.table != planned.table) {
        return Status::InvalidArgument(
            "schedule step scans " + planned.table + " but SIT " +
            sits[static_cast<size_t>(s)].ToString() + " expects " +
            node.table);
      }
      planned_scans[static_cast<size_t>(s)] += 1;
      planned.sits.push_back(static_cast<size_t>(s));
      if (last_step_of_sit[s] >= 0) {
        deps.push_back(static_cast<size_t>(last_step_of_sit[s]));
      }
      last_step_of_sit[s] = static_cast<int>(step_idx);
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
    planned.num_deps = deps.size();
    for (size_t dep : deps) plan[dep].dependents.push_back(step_idx);
  }

  // Runs one planned step: one shared scan advancing every SIT build the
  // step names, recording the scan's work in its own step_stats slot.
  // Thread-safe against other steps: catalog/base-stats reads are
  // internally locked, and the DAG guarantees exclusive access to each
  // touched build.
  std::vector<IoStats> step_stats(plan.size());
  auto execute_step = [&](size_t step_idx) -> Status {
    SITSTATS_RETURN_IF_ERROR(abort_token.CheckCancelled("schedule step"));
    SITSTATS_FAULT_SITE("scheduler.step");
    const PlannedStep& planned = plan[step_idx];
    telemetry::TraceSpan step_span("scheduler.execute_step");
    step_span.AddAttribute("step", static_cast<double>(step_idx));
    step_span.AddAttribute("table", planned.table);
    step_span.AddAttribute("advanced",
                           static_cast<double>(planned.sits.size()));
    std::vector<SweepBuild*> advancing;
    advancing.reserve(planned.sits.size());
    for (size_t s : planned.sits) advancing.push_back(&builds[s]);
    SITSTATS_ASSIGN_OR_RETURN(step_stats[step_idx],
                              AdvanceSweepBuilds(advancing));
    return Status::OK();
  };

  if (threads <= 1 || plan.size() <= 1) {
    for (size_t step_idx = 0; step_idx < plan.size(); ++step_idx) {
      SITSTATS_RETURN_IF_ERROR(execute_step(step_idx));
    }
  } else {
    // Pool workers are fresh threads with no request context; hand them
    // the submitting request's trace id so their sweep-scan spans land in
    // the same trace as the rest of the request.
    const uint64_t request_trace_id = telemetry::CurrentTraceId();
    ThreadPool pool(threads);
    std::vector<std::atomic<size_t>> remaining(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      remaining[i].store(plan[i].num_deps, std::memory_order_relaxed);
    }
    std::atomic<bool> failed{false};
    // Guards first_error (GUARDED_BY does not apply to locals; the CAS on
    // `failed` already serializes writers, the lock orders the read below).
    Mutex error_mu;
    Status first_error = Status::OK();
    WaitGroup wg;
    wg.Add(plan.size());
    // On failure the remaining steps still "complete" (skipping their
    // work) so every dependent gets released and Wait() terminates — and
    // the first failure cancels the shared abort token, so steps that are
    // already *running* stop at their next row-loop poll instead of
    // finishing a doomed scan. Their Status::Cancelled returns lose the
    // CAS below, so the original error is the one reported.
    std::function<void(size_t)> run_step = [&](size_t step_idx) {
      telemetry::TraceIdScope trace_scope(request_trace_id);
      if (!failed.load(std::memory_order_acquire)) {
        Status status = execute_step(step_idx);
        if (!status.ok()) {
          bool expected = false;
          if (failed.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
            {
              MutexLock lock(error_mu);
              first_error = std::move(status);
            }
            abort.Cancel();
          }
        }
      }
      for (size_t dep : plan[step_idx].dependents) {
        // acq_rel: the final decrement must observe the writes of every
        // predecessor step before the dependent is submitted.
        if (remaining[dep].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          pool.Submit([&run_step, dep] { run_step(dep); });
        }
      }
      wg.Done();
    };
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].num_deps == 0) {
        pool.Submit([&run_step, i] { run_step(i); });
      }
    }
    wg.Wait();
    if (failed.load(std::memory_order_acquire)) return first_error;
  }

  // Finish every build; base-table SITs need no scan and finish here.
  ScheduleExecutionResult result;
  result.sits.reserve(sits.size());
  result.threads_used = threads;
  for (const IoStats& stats : step_stats) result.total_stats += stats;
  for (size_t s = 0; s < sits.size(); ++s) {
    SITSTATS_FAULT_SITE("scheduler.finalize");
    // An incomplete schedule leaves a build unfinished: InvalidArgument.
    SITSTATS_ASSIGN_OR_RETURN(Sit sit, std::move(builds[s]).Finish());
    result.sits.push_back(std::move(sit));
  }
  return result;
}

}  // namespace sitstats
