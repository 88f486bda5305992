#include "scheduler/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/timer.h"
#include "scheduler/reduction.h"
#include "scheduler/scs_internal.h"
#include "telemetry/telemetry.h"

namespace sitstats {

const char* SolverKindToString(SolverKind kind) {
  switch (kind) {
    case SolverKind::kNaive:
      return "Naive";
    case SolverKind::kOptimal:
      return "Opt";
    case SolverKind::kGreedy:
      return "Greedy";
    case SolverKind::kHybrid:
      return "Hybrid";
    case SolverKind::kExact:
      return "Exact";
  }
  return "?";
}

namespace {

using State = scs::ScsState;

/// The Naive strategy: create each SIT separately, scanning its
/// dependency sequence front to back.
Result<SolverResult> SolveNaive(const SchedulingProblem& problem) {
  Timer timer;
  SolverResult result;
  for (size_t i = 0; i < problem.num_sequences(); ++i) {
    for (int table : problem.sequence(i)) {
      ScheduleStep step;
      step.table = table;
      step.advanced = {i};
      result.schedule.steps.push_back(std::move(step));
      result.schedule.cost += problem.scan_cost(table);
    }
  }
  result.optimization_seconds = timer.ElapsedSeconds();
  result.nodes_expanded = 0;
  result.proved_optimal = false;
  return result;
}

class AStarSolver {
 public:
  AStarSolver(const SchedulingProblem& problem, const SolverOptions& options)
      : problem_(problem),
        options_(options),
        occ_(scs::SuffixOccurrences(problem)),
        caps_(scs::PerScanCaps(problem)) {
    // Remaining scan cost of each sequence suffix; ranks candidates when
    // greedy mode picks one advancing set instead of enumerating them.
    suffix_cost_.resize(problem_.num_sequences());
    for (size_t i = 0; i < problem_.num_sequences(); ++i) {
      const std::vector<int>& seq = problem_.sequence(i);
      suffix_cost_[i].assign(seq.size() + 1, 0.0);
      for (size_t p = seq.size(); p-- > 0;) {
        suffix_cost_[i][p] =
            suffix_cost_[i][p + 1] + problem_.scan_cost(seq[p]);
      }
    }
  }

  Result<SolverResult> Run() {
    Timer timer;
    const size_t n = problem_.num_sequences();
    State start(n, 0);
    State goal(n);
    for (size_t i = 0; i < n; ++i) {
      goal[i] = static_cast<uint16_t>(problem_.sequence(i).size());
    }

    greedy_mode_ = options_.kind == SolverKind::kGreedy;

    int start_id = Intern(start);
    int goal_id = -1;  // resolved lazily when first generated
    g_[static_cast<size_t>(start_id)] = 0.0;
    open_.push(Entry{h_[static_cast<size_t>(start_id)], 0.0, start_id});

    while (!open_.empty()) {
      Entry best = open_.top();
      open_.pop();
      size_t best_idx = static_cast<size_t>(best.state_id);
      if (best.g > g_[best_idx] + 1e-12) {
        continue;  // stale queue entry
      }
      if (states_[best_idx] == goal) {
        goal_id = best.state_id;
        SolverResult result;
        result.schedule = Reconstruct(goal_id, start_id);
        result.optimization_seconds = timer.ElapsedSeconds();
        result.nodes_expanded = expanded_;
        result.proved_optimal = !greedy_mode_;
        return result;
      }
      SITSTATS_FAULT_SITE("scheduler.search.node");
      ++expanded_;
      if (options_.max_expansions > 0 &&
          expanded_ > options_.max_expansions) {
        return Status::ResourceExhausted(
            "A* exceeded max_expansions = " +
            std::to_string(options_.max_expansions));
      }
      if (options_.kind == SolverKind::kHybrid && !greedy_mode_) {
        // The node budget is checked first: it is the only condition that
        // fires at the same point on every run, so when several fire at
        // once the recorded reason stays deterministic too.
        bool nodes_up = options_.hybrid_switch_expansions > 0 &&
                        expanded_ >= options_.hybrid_switch_expansions;
        bool time_up =
            timer.ElapsedSeconds() > options_.hybrid_switch_seconds;
        if (nodes_up || time_up) {
          SwitchToGreedy(nodes_up ? "expansions" : "time");
        }
      }
      if (greedy_mode_) {
        // Greedy keeps only the successors of the node just expanded.
        open_ = {};
      }
      SITSTATS_RETURN_IF_ERROR(ExpandNode(best.state_id, g_[best_idx]));
    }
    return Status::Internal("A* exhausted the search space without a goal");
  }

 private:
  struct Entry {
    double f;
    double g;
    int state_id;
    bool operator>(const Entry& other) const {
      if (f != other.f) return f > other.f;
      return g < other.g;  // prefer deeper nodes on ties
    }
  };

  /// Returns the dense id of `state`, creating it if new (g = +inf).
  /// The heuristic depends only on the state, so it is computed once here.
  int Intern(const State& state) {
    auto [it, inserted] =
        ids_.emplace(state, static_cast<int>(states_.size()));
    if (inserted) {
      states_.push_back(state);
      g_.push_back(std::numeric_limits<double>::infinity());
      h_.push_back(scs::Heuristic(problem_, occ_, caps_, state));
      came_from_.push_back({-1, ScheduleStep{}});
    }
    return it->second;
  }

  void SwitchToGreedy(const char* reason) {
    greedy_mode_ = true;
    static telemetry::Counter& hybrid_switches =
        telemetry::MetricsRegistry::Global().GetCounter(
            "scheduler.hybrid_switches");
    hybrid_switches.Increment();
    telemetry::Tracer::Global().RecordInstant(
        "scheduler.hybrid_switch",
        {{"expanded", std::to_string(expanded_)},
         {"states", std::to_string(states_.size())},
         {"reason", reason}});
  }

  /// generateSuccessors (Section 4.3.1): for each scannable table, try
  /// every feasible advancing set. Advancing a superset dominates a
  /// subset at equal cost, so only maximum-cardinality subsets under the
  /// memory limit are generated. At C(n, k) beyond the enumeration budget
  /// the exact search cannot continue (ResourceExhausted for kOptimal, a
  /// forced greedy switch for kHybrid), while greedy mode — which keeps
  /// only the best successor anyway — falls back to one deterministic
  /// advancing set per table.
  Status ExpandNode(int state_id, double g) {
    const State state = states_[static_cast<size_t>(state_id)];
    std::map<int, std::vector<size_t>> candidates;
    for (size_t i = 0; i < state.size(); ++i) {
      const std::vector<int>& seq = problem_.sequence(i);
      if (state[i] < seq.size()) {
        candidates[seq[state[i]]].push_back(i);
      }
    }
    for (const auto& [table, cand] : candidates) {
      size_t k = cand.size();
      double cap = caps_[static_cast<size_t>(table)];
      if (std::isfinite(cap)) k = std::min(k, static_cast<size_t>(cap));
      if (k == 0) continue;  // cannot scan this table at all
      double g_new = g + problem_.scan_cost(table);
      bool fan_out_exceeded =
          scs::CombinationCount(cand.size(), k,
                                scs::kMaxSuccessorsPerTable) >=
          scs::kMaxSuccessorsPerTable;
      if (fan_out_exceeded && !greedy_mode_) {
        if (options_.kind == SolverKind::kHybrid) {
          // A successor blow-up is the memory condition in disguise;
          // finish this node greedily (OPEN drains stale A* entries over
          // the next pops).
          SwitchToGreedy("successors");
        } else {
          return Status::ResourceExhausted(
              "A* advancing-set fan-out C(" + std::to_string(cand.size()) +
              ", " + std::to_string(k) + ") exceeds the successor limit");
        }
      }
      if (fan_out_exceeded && greedy_mode_) {
        // One deterministic advancing set: the k sequences with the most
        // expensive remaining suffixes (ties to the lower index) — the
        // candidates the heuristic would rank first.
        std::vector<size_t> order = cand;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          double ca = suffix_cost_[a][state[a]];
          double cb = suffix_cost_[b][state[b]];
          if (ca != cb) return ca > cb;
          return a < b;
        });
        order.resize(k);
        std::sort(order.begin(), order.end());
        State next = state;
        ScheduleStep step;
        step.table = table;
        for (size_t i : order) {
          next[i] += 1;
          step.advanced.push_back(i);
        }
        Relax(state_id, next, g_new, std::move(step));
        continue;
      }
      // Enumerate all size-k subsets of cand.
      std::vector<size_t> pick(k);
      for (size_t i = 0; i < k; ++i) pick[i] = i;
      while (true) {
        State next = state;
        ScheduleStep step;
        step.table = table;
        for (size_t idx : pick) {
          next[cand[idx]] += 1;
          step.advanced.push_back(cand[idx]);
        }
        Relax(state_id, next, g_new, std::move(step));
        // Next combination.
        size_t j = k;
        while (j > 0) {
          --j;
          if (pick[j] != j + cand.size() - k) break;
          if (j == 0) {
            j = SIZE_MAX;
            break;
          }
        }
        if (j == SIZE_MAX) break;
        ++pick[j];
        for (size_t l = j + 1; l < k; ++l) pick[l] = pick[l - 1] + 1;
      }
    }
    return Status::OK();
  }

  void Relax(int from_id, const State& next, double g_new,
             ScheduleStep step) {
    int next_id = Intern(next);
    size_t idx = static_cast<size_t>(next_id);
    if (g_[idx] <= g_new + 1e-12) {
      // Not an improvement. In greedy mode OPEN was just cleared, so the
      // state must still be re-offered (with its best-known g and the
      // already-recorded path) or the search would dead-end.
      if (greedy_mode_) {
        open_.push(Entry{g_[idx] + h_[idx], g_[idx], next_id});
      }
      return;
    }
    g_[idx] = g_new;
    came_from_[idx] = {from_id, std::move(step)};
    open_.push(Entry{g_new + h_[idx], g_new, next_id});
  }

  Schedule Reconstruct(int goal_id, int start_id) const {
    Schedule schedule;
    int current = goal_id;
    std::vector<ScheduleStep> reversed;
    while (current != start_id) {
      const auto& [prev, step] = came_from_[static_cast<size_t>(current)];
      reversed.push_back(step);
      schedule.cost += problem_.scan_cost(step.table);
      current = prev;
    }
    schedule.steps.assign(reversed.rbegin(), reversed.rend());
    return schedule;
  }

  const SchedulingProblem& problem_;
  const SolverOptions& options_;
  bool greedy_mode_ = false;
  uint64_t expanded_ = 0;
  std::vector<std::vector<std::vector<uint16_t>>> occ_;
  std::vector<double> caps_;
  std::vector<std::vector<double>> suffix_cost_;
  std::unordered_map<State, int, scs::ScsStateHash> ids_;
  std::vector<State> states_;
  std::vector<double> g_;
  std::vector<double> h_;
  std::vector<std::pair<int, ScheduleStep>> came_from_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> open_;
};

/// kExact: the optimality-preserving reductions, A* on the reduced core,
/// then expansion back to `problem`.
Result<SolverResult> SolveExact(const SchedulingProblem& problem,
                                const SolverOptions& options) {
  Timer timer;
  SITSTATS_ASSIGN_OR_RETURN(ReducedInstance reduced,
                            ReduceInstance(problem));
  const ReductionStats& rstats = reduced.stats();
  telemetry::MetricsRegistry::Global()
      .GetCounter("scheduler.exact.rules_fired")
      .Increment(rstats.rules_fired());
  telemetry::MetricsRegistry::Global()
      .GetGauge("scheduler.exact.reduction_ratio")
      .Set(rstats.ReductionRatio());

  SITSTATS_ASSIGN_OR_RETURN(SolverResult result,
                            AStarSolver(reduced.problem(), options).Run());
  SITSTATS_ASSIGN_OR_RETURN(result.schedule, reduced.Expand(result.schedule));
  result.optimization_seconds = timer.ElapsedSeconds();
  telemetry::MetricsRegistry::Global()
      .GetCounter("scheduler.exact.nodes")
      .Increment(result.nodes_expanded);
  return result;
}

}  // namespace

Result<SolverResult> SolveSchedule(const SchedulingProblem& problem,
                                   const SolverOptions& options) {
  SITSTATS_RETURN_IF_ERROR(problem.Validate());
  if (problem.num_sequences() == 0) {
    SolverResult empty;
    empty.proved_optimal = true;
    return empty;
  }
  // Size/degeneracy checks the validator cannot make (they are solver
  // representation limits, not problem invariants): kOutOfRange for
  // sequences past the uint16 state limit, kInvalidArgument for a memory
  // budget whose advancing capacity would degenerate the search.
  SITSTATS_RETURN_IF_ERROR(scs::CheckInstanceForSearch(problem));
  const char* kind_name = SolverKindToString(options.kind);
  telemetry::TraceSpan span("scheduler.solve");
  span.AddAttribute("solver", kind_name);
  span.AddAttribute("sequences",
                    static_cast<double>(problem.num_sequences()));
  Result<SolverResult> result =
      options.kind == SolverKind::kNaive
          ? SolveNaive(problem)
          : options.kind == SolverKind::kExact
                ? SolveExact(problem, options)
                : AStarSolver(problem, options).Run();
  if (!result.ok()) return result.status();
  SITSTATS_RETURN_IF_ERROR(ValidateSchedule(problem, result->schedule));
  // Debug builds additionally prove the cost is not below the single-scan
  // lower bound (an inadmissible-heuristic symptom ValidateSchedule's
  // step-sum check cannot see).
  SITSTATS_DCHECK_OK(result->schedule.Validate(problem));

  // Per-solver telemetry; names carry the solver kind so runs can compare
  // Opt/Greedy/Hybrid side by side from one metrics dump.
  std::string prefix = std::string("scheduler.") + kind_name;
  telemetry::MetricsRegistry::Global()
      .GetHistogram(prefix + ".elapsed_ms")
      .Record(result->optimization_seconds * 1e3);
  telemetry::MetricsRegistry::Global()
      .GetGauge(prefix + ".schedule_cost")
      .Set(result->schedule.cost);
  telemetry::MetricsRegistry::Global().GetCounter("scheduler.solves")
      .Increment();
  span.AddAttribute("cost", result->schedule.cost);
  span.AddAttribute("nodes_expanded", result->nodes_expanded);
  span.AddAttribute("proved_optimal",
                    result->proved_optimal ? "true" : "false");
  return result;
}

}  // namespace sitstats
