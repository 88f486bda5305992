// Solver scaling on template workloads, 50-500 SITs (not a paper figure:
// the paper stops at numSITs=20, where Opt already needs 36 s/instance).
// Real SIT batches repeat a few query shapes, so the instances here draw
// their dependency sequences from small template pools — the regime the
// reduction rules of scheduler/reduction.h target.
//
// Three sweeps:
//  1. "template": MakeTemplateInstance under generous memory. The
//     duplicated sequences dedup away, so the reduced core that Exact's
//     A* searches does not grow with numSITs while plain A*'s state
//     vectors keep growing.
//  2. "fact_table": every template passes through one unshareable big
//     table (cap 1) and one crossed SIT pair keeps the heuristic below
//     the optimum, so Opt must enumerate the duplicate permutations and
//     exhausts its node budget at every size shown — Exact hoists the
//     big table, dedups, and proves optimality in a few hundred nodes.
//  3. "random": fully random instances (paper spec, M=50,000) as an
//     Exact-vs-Opt cost-equality spot check where both can finish.
//
// The process exits nonzero if Exact ever costs more than Greedy, fails
// to prove optimality where it returned a schedule, or disagrees with
// Opt on an instance both solved — so CI can run it as a smoke test
// (--quick trims the sweep for that).
//
// Expected shape: in sweeps 1 and 2 Exact's nodes stay flat (the reduced
// core does not grow with numSITs; reduction ratio near 1) while Opt's
// nodes/time grow until it exhausts; Exact's cost always matches Opt
// where Opt finishes and never exceeds Greedy's.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "scheduler/instance_generator.h"
#include "scheduler/reduction.h"
#include "scheduler/solver.h"

namespace sitstats {
namespace {

bool g_check_failed = false;

struct SolverCell {
  double total_cost = 0.0;
  double total_seconds = 0.0;
  double total_nodes = 0.0;
  int solved = 0;

  void Add(const SolverResult& r) {
    total_cost += r.schedule.cost;
    total_seconds += r.optimization_seconds;
    total_nodes += static_cast<double>(r.nodes_expanded);
    solved += 1;
  }
  double AvgCost() const { return solved > 0 ? total_cost / solved : 0.0; }
  double AvgMillis() const {
    return solved > 0 ? 1e3 * total_seconds / solved : 0.0;
  }
  double AvgNodes() const {
    return solved > 0 ? total_nodes / solved : 0.0;
  }
};

struct SweepRow {
  SolverCell exact, opt, greedy, hybrid;
  double total_reduction_ratio = 0.0;
  int instances = 0;       // instances where Exact solved
  int exact_proved = 0;    // of those, how many proved optimal
  int opt_exhausted = 0;
};

Result<SolverResult> RunKind(const SchedulingProblem& problem,
                             SolverKind kind, uint64_t max_expansions,
                             uint64_t hybrid_switch) {
  SolverOptions options;
  options.kind = kind;
  options.max_expansions = max_expansions;
  if (kind == SolverKind::kHybrid) {
    // Deterministic switch so archived results are machine-independent.
    options.hybrid_switch_seconds = 1e9;
    options.hybrid_switch_expansions = hybrid_switch;
  }
  return SolveSchedule(problem, options);
}

/// Runs all four strategies on one instance and folds the results into
/// `row`, enforcing the cross-strategy invariants. `node_budget` caps
/// Exact and Opt alike (the same-budget comparison is the point);
/// `hybrid_switch` is Hybrid's deterministic A*-to-Greedy switch, kept
/// small on the instances whose A* phase would intern millions of
/// states.
void RunInstance(const SchedulingProblem& problem, uint64_t node_budget,
                 uint64_t hybrid_switch, SweepRow* row) {
  Result<SolverResult> exact =
      RunKind(problem, SolverKind::kExact, node_budget, 0);
  Result<SolverResult> opt =
      RunKind(problem, SolverKind::kOptimal, node_budget, 0);
  SolverResult greedy =
      RunKind(problem, SolverKind::kGreedy, 0, 0).ValueOrDie();
  SolverResult hybrid =
      RunKind(problem, SolverKind::kHybrid, 0, hybrid_switch).ValueOrDie();
  row->greedy.Add(greedy);
  row->hybrid.Add(hybrid);
  if (opt.ok()) {
    row->opt.Add(*opt);
  } else {
    row->opt_exhausted += 1;
  }
  if (!exact.ok()) return;
  row->instances += 1;
  row->exact.Add(*exact);
  if (exact->proved_optimal) row->exact_proved += 1;
  row->total_reduction_ratio =
      row->total_reduction_ratio +
      ReduceInstance(problem).ValueOrDie().stats().ReductionRatio();

  if (exact->schedule.cost > greedy.schedule.cost + 1e-6) {
    std::fprintf(stderr,
                 "CHECK FAILED: Exact cost %.3f > Greedy cost %.3f\n",
                 exact->schedule.cost, greedy.schedule.cost);
    g_check_failed = true;
  }
  if (!exact->proved_optimal) {
    std::fprintf(stderr, "CHECK FAILED: Exact finished without proof\n");
    g_check_failed = true;
  }
  if (opt.ok() &&
      std::fabs(exact->schedule.cost - opt->schedule.cost) > 1e-6) {
    std::fprintf(stderr,
                 "CHECK FAILED: Exact cost %.3f != Opt cost %.3f\n",
                 exact->schedule.cost, opt->schedule.cost);
    g_check_failed = true;
  }
}

void EmitRow(BenchJsonWriter* json, const char* sweep, int num_sits,
             int attempted, const SweepRow& row) {
  double ratio =
      row.instances > 0 ? row.total_reduction_ratio / row.instances : 0.0;
  std::printf(
      "%-10s numSITs=%-4d | cost: Exact=%9.0f Opt=%9.0f Greedy=%9.0f | "
      "ms: Exact=%7.1f Opt=%8.1f | nodes: Exact=%7.0f Opt=%8.0f | "
      "reduction=%.2f | solved: Exact=%d/%d Opt=%d/%d\n",
      sweep, num_sits, row.exact.AvgCost(), row.opt.AvgCost(),
      row.greedy.AvgCost(), row.exact.AvgMillis(), row.opt.AvgMillis(),
      row.exact.AvgNodes(), row.opt.AvgNodes(), ratio, row.instances,
      attempted, row.opt.solved, attempted);
  json->BeginRow();
  json->Add("sweep", std::string(sweep));
  json->Add("num_sits", static_cast<double>(num_sits));
  json->Add("attempted", static_cast<double>(attempted));
  json->Add("instances", static_cast<double>(row.instances));
  json->Add("exact_cost", row.exact.AvgCost());
  json->Add("opt_cost", row.opt.AvgCost());
  json->Add("greedy_cost", row.greedy.AvgCost());
  json->Add("hybrid_cost", row.hybrid.AvgCost());
  json->Add("exact_ms", row.exact.AvgMillis());
  json->Add("opt_ms", row.opt.AvgMillis());
  json->Add("greedy_ms", row.greedy.AvgMillis());
  json->Add("hybrid_ms", row.hybrid.AvgMillis());
  json->Add("exact_nodes", row.exact.AvgNodes());
  json->Add("opt_nodes", row.opt.AvgNodes());
  json->Add("reduction_ratio", ratio);
  json->Add("exact_proved",
            static_cast<double>(row.instances > 0 &&
                                row.exact_proved == row.instances));
  json->Add("opt_solved", static_cast<double>(row.opt.solved));
  json->Add("opt_exhausted", static_cast<double>(row.opt_exhausted));
}

/// Sweep 2's instance: one fact table B whose sample fills the memory
/// budget (cap 1), five two-dimension templates through it, and one
/// crossed SIT pair to hold the heuristic below the optimum (same shape
/// as the ScalesPastOptCeiling regression test, scaled up).
SchedulingProblem FactTableInstance(int num_sits, Rng* rng) {
  SchedulingProblem p;
  int big = p.AddTable("B", 50.0, 30'000.0);
  int small[10];
  for (int j = 0; j < 10; ++j) {
    small[j] = p.AddTable(NumberedName("s", j + 1),
                          1.0 + rng->UniformInt(0, 9), 10.0);
  }
  int cross_p = p.AddTable("p", 5.0, 10.0);
  int cross_q = p.AddTable("q", 6.0, 10.0);
  p.set_memory_limit(50'000.0);
  SITSTATS_CHECK_OK(p.AddSequenceIds({cross_p, cross_q}).status());
  SITSTATS_CHECK_OK(p.AddSequenceIds({cross_q, cross_p}).status());
  for (int i = 0; i < num_sits; ++i) {
    int j = i % 5;
    SITSTATS_CHECK_OK(
        p.AddSequenceIds({small[2 * j], big, small[2 * j + 1]}).status());
  }
  return p;
}

}  // namespace
}  // namespace sitstats

int main(int argc, char** argv) {
  using namespace sitstats;  // NOLINT
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  BenchJsonWriter json("solver_scale");

  const std::vector<int> sizes =
      quick ? std::vector<int>{50, 100}
            : std::vector<int>{50, 100, 200, 350, 500};

  std::printf(
      "=== Template workload (pool=8, nt=10, lenSITs<=4, M=1e9): "
      "duplicates dedup away ===\n");
  for (int num_sits : sizes) {
    const int instances = quick ? 3 : 5;
    SweepRow row;
    Rng rng(9000 + static_cast<uint64_t>(num_sits));
    for (int i = 0; i < instances; ++i) {
      InstanceSpec spec;
      spec.num_tables = 10;
      spec.num_sits = num_sits;
      spec.max_seq_len = 4;
      spec.memory_limit = 1e9;
      SchedulingProblem problem =
          MakeTemplateInstance(spec, /*num_templates=*/8, &rng)
              .ValueOrDie();
      RunInstance(problem, /*node_budget=*/3'000'000,
                  /*hybrid_switch=*/200'000, &row);
    }
    EmitRow(&json, "template", num_sits, instances, row);
  }

  std::printf(
      "\n=== Fact-table workload (cap-1 big table + crossed pair, "
      "node budget 2k): Opt exhausts, Exact proves ===\n");
  for (int num_sits : sizes) {
    SweepRow row;
    Rng rng(17000 + static_cast<uint64_t>(num_sits));
    SchedulingProblem problem = FactTableInstance(num_sits, &rng);
    RunInstance(problem, /*node_budget=*/2'000, /*hybrid_switch=*/2'000,
                &row);
    EmitRow(&json, "fact_table", num_sits, 1, row);
    if (row.instances == 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: Exact exhausted the fact-table sweep "
                   "at numSITs=%d\n",
                   num_sits);
      g_check_failed = true;
    }
  }

  std::printf(
      "\n=== Random instances (paper spec, M=50000, node budget 300k): "
      "Exact == Opt where both finish ===\n");
  for (int num_sits : quick ? std::vector<int>{10} :
                              std::vector<int>{10, 15}) {
    const int instances = 3;
    SweepRow row;
    Rng rng(31000 + static_cast<uint64_t>(num_sits));
    for (int i = 0; i < instances; ++i) {
      InstanceSpec spec;
      spec.num_sits = num_sits;
      SchedulingProblem problem =
          MakeRandomInstance(spec, &rng).ValueOrDie();
      RunInstance(problem, /*node_budget=*/300'000,
                  /*hybrid_switch=*/200'000, &row);
    }
    EmitRow(&json, "random", num_sits, instances, row);
  }

  if (g_check_failed) {
    std::fprintf(stderr, "\nsolver-scale invariants VIOLATED\n");
    return 1;
  }
  std::printf(
      "\nAll invariants held: Exact <= Greedy everywhere, Exact == Opt "
      "where Opt\nfinished, every Exact result proved optimal.\n");
  return 0;
}
