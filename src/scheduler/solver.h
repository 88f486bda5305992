#ifndef SITSTATS_SCHEDULER_SOLVER_H_
#define SITSTATS_SCHEDULER_SOLVER_H_

#include <cstdint>

#include "common/result.h"
#include "scheduler/problem.h"

namespace sitstats {

/// The scheduling strategies compared in Section 5.2.
enum class SolverKind {
  /// One SIT at a time, no scan sharing.
  kNaive,
  /// Memory-constrained weighted A* over the SCS graph (Section 4.3.1);
  /// guaranteed optimal.
  kOptimal,
  /// A* with OPEN cleared every iteration — picks the locally best
  /// successor (Section 4.3.2).
  kGreedy,
  /// Starts as A*, switches to Greedy after a time budget
  /// (Section 4.3.2; the paper switches after one second).
  kHybrid,
  /// Reductions + A*: optimality-preserving instance shrinking
  /// (scheduler/reduction.h), then kOptimal's A* on the reduced core, then
  /// expansion back to the original instance. Guaranteed optimal,
  /// deterministic, and scales far past kOptimal on instances the
  /// reductions can shrink.
  kExact,
};

const char* SolverKindToString(SolverKind kind);

struct SolverOptions {
  SolverKind kind = SolverKind::kOptimal;
  /// Hybrid's switch condition: seconds of A* before going greedy (the
  /// paper's choice, Section 4.3.2).
  double hybrid_switch_seconds = 1.0;
  /// Deterministic switch condition: go greedy after this many node
  /// expansions. Unlike the wall-clock budget this yields the same
  /// schedule on every run, whatever the machine load — CI and the fault
  /// sweep want that. 0 disables it; whichever enabled condition fires
  /// first wins.
  uint64_t hybrid_switch_expansions = 0;
  /// Safety valve for kOptimal and kExact: abort with ResourceExhausted
  /// after this many A* node expansions (0 = unlimited). For kExact the
  /// budget applies to the search on the reduced core.
  uint64_t max_expansions = 0;
};

struct SolverResult {
  Schedule schedule;
  /// Wall-clock optimization time.
  double optimization_seconds = 0.0;
  uint64_t nodes_expanded = 0;
  /// True when the result is provably optimal (kOptimal, kExact, or
  /// kHybrid that finished before switching).
  bool proved_optimal = false;
};

/// Computes a schedule for `problem` with the chosen strategy. The
/// returned schedule always passes ValidateSchedule.
Result<SolverResult> SolveSchedule(const SchedulingProblem& problem,
                                   const SolverOptions& options);

}  // namespace sitstats

#endif  // SITSTATS_SCHEDULER_SOLVER_H_
