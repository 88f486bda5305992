#include "scheduler/executor.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <functional>
#include <queue>
#include <thread>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/sync.h"
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

/// The execution state every worker shares, under one lock.
struct ReadyList {
  Mutex mu;
  CondVar cv;
  std::vector<size_t> remaining_deps GUARDED_BY(mu);  // per step
  std::priority_queue<size_t, std::vector<size_t>, std::greater<>> ready
      GUARDED_BY(mu);
  size_t finished GUARDED_BY(mu) = 0;
  Status first_error GUARDED_BY(mu);
};

}  // namespace

size_t ResolveThreadCount(int requested) {
  long value = requested;
  if (value <= 0) {
    const char* env = std::getenv("SITSTATS_THREADS");
    if (env != nullptr && *env != '\0') {
      // A typo'd SITSTATS_THREADS must not silently serialize ("8x" -> 8
      // would be worse, but "eight" -> 0 is still surprising): warn once
      // per lookup and fall back to the serial default.
      errno = 0;
      char* end = nullptr;
      value = std::strtol(env, &end, 10);
      if (end == env || *end != '\0' || errno == ERANGE) {
        SITSTATS_LOG(kWarning) << "ignoring malformed SITSTATS_THREADS='"
                               << env << "'; using 1 thread";
        value = 0;
      }
    } else {
      value = 0;
    }
  }
  if (value <= 0) return 1;
  if (value > static_cast<long>(kMaxThreads)) return kMaxThreads;
  return static_cast<size_t>(value);
}

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

  // One ready list drains the DAG: each worker takes the lowest-index
  // ready step, runs it unlocked, then releases its dependents. One worker
  // therefore runs the schedule in order; more run the same DAG. The
  // first failure is recorded and cancels `abort`, so running steps stop
  // at their next row-loop poll and no worker takes another step.
  ReadyList list;
  {
    MutexLock lock(list.mu);
    for (size_t i = 0; i < plan.size(); ++i) {
      list.remaining_deps.push_back(plan[i].num_deps);
      if (plan[i].num_deps == 0) list.ready.push(i);
    }
  }
  // Helper threads have no request context; hand every worker the
  // caller's trace id so its spans land in the request's trace.
  const uint64_t request_trace_id = telemetry::CurrentTraceId();
  auto worker = [&] {
    telemetry::TraceIdScope trace_scope(request_trace_id);
    MutexLock lock(list.mu);
    for (;;) {
      while (list.ready.empty() && list.first_error.ok() &&
             list.finished < plan.size()) {
        list.cv.Wait(list.mu);
      }
      if (!list.first_error.ok() || list.ready.empty()) return;
      const size_t step_idx = list.ready.top();
      list.ready.pop();
      lock.Unlock();
      Status status = execute_step(step_idx);
      lock.Lock();
      ++list.finished;
      if (!status.ok()) {
        if (list.first_error.ok()) list.first_error = std::move(status);
        list.cv.NotifyAll();
        lock.Unlock();
        abort.Cancel();
        return;
      }
      for (size_t dep : plan[step_idx].dependents) {
        if (--list.remaining_deps[dep] == 0) list.ready.push(dep);
      }
      list.cv.NotifyAll();
    }
  };
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < std::min(threads, plan.size()); ++i) {
    helpers.emplace_back(worker);
  }
  worker();
  for (std::thread& helper : helpers) helper.join();
  {
    MutexLock lock(list.mu);
    SITSTATS_RETURN_IF_ERROR(list.first_error);
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
