// Tests for the kExact scheduler (reduction rules, then kOptimal's A* on
// the reduced core): agreement with plain A* on random instances, scaling
// past kOptimal's expansion ceiling on template workloads, budget
// handling, and one booked solve per call.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/instance_generator.h"
#include "scheduler/solver.h"
#include "telemetry/telemetry.h"

namespace sitstats {
namespace {

SolverOptions Kind(SolverKind kind) {
  SolverOptions options;
  options.kind = kind;
  return options;
}

TEST(ExactSolverTest, PaperExample6) {
  SchedulingProblem p;
  p.AddTable("R", 10, 10'000);
  p.AddTable("S", 10, 10'000);
  p.AddTable("T", 20, 10'000);
  p.AddTable("U", 20, 10'000);
  p.AddTable("V", 20, 10'000);
  SITSTATS_CHECK_OK(p.AddSequence({"T", "S", "R"}).status());
  SITSTATS_CHECK_OK(p.AddSequence({"S", "R"}).status());
  SITSTATS_CHECK_OK(p.AddSequence({"U", "R"}).status());

  SolverResult result =
      SolveSchedule(p, Kind(SolverKind::kExact)).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.schedule.cost, 60.0);
  EXPECT_TRUE(result.proved_optimal);
  SITSTATS_CHECK_OK(result.schedule.Validate(p));
}

TEST(ExactSolverTest, EmptyProblemYieldsEmptySchedule) {
  SchedulingProblem p;
  SolverResult result =
      SolveSchedule(p, Kind(SolverKind::kExact)).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.schedule.cost, 0.0);
  EXPECT_TRUE(result.schedule.steps.empty());
  EXPECT_TRUE(result.proved_optimal);
}

// The core property: on 100 random instances, Exact's cost equals the
// A*-optimal cost exactly and never exceeds the heuristics'.
TEST(ExactSolverTest, MatchesOptimalAndBeatsHeuristicsOnRandomInstances) {
  for (int seed = 1; seed <= 100; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 6151);
    InstanceSpec spec;
    spec.num_tables = 6;
    spec.num_sits = 6;
    spec.max_seq_len = 4;
    SchedulingProblem problem =
        MakeRandomInstance(spec, &rng).ValueOrDie();

    SolverResult exact =
        SolveSchedule(problem, Kind(SolverKind::kExact)).ValueOrDie();
    SolverResult optimal =
        SolveSchedule(problem, Kind(SolverKind::kOptimal)).ValueOrDie();
    SolverResult greedy =
        SolveSchedule(problem, Kind(SolverKind::kGreedy)).ValueOrDie();
    SolverResult hybrid =
        SolveSchedule(problem, Kind(SolverKind::kHybrid)).ValueOrDie();

    EXPECT_NEAR(exact.schedule.cost, optimal.schedule.cost, 1e-9)
        << "seed " << seed;
    EXPECT_TRUE(exact.proved_optimal) << "seed " << seed;
    EXPECT_TRUE(optimal.proved_optimal) << "seed " << seed;
    EXPECT_LE(exact.schedule.cost, greedy.schedule.cost + 1e-9)
        << "seed " << seed;
    EXPECT_LE(exact.schedule.cost, hybrid.schedule.cost + 1e-9)
        << "seed " << seed;
    SITSTATS_CHECK_OK(exact.schedule.Validate(problem));
  }
}

// Template workload with one unshareable fact table: every template
// passes through B, whose sample fills the memory budget (cap 1), plus
// freely shareable dimension tables — and one crossed SIT pair whose
// interleaving costs one scan more than the per-table lower bound sees.
// That heuristic gap keeps f below the optimum across every ordering of
// the one-at-a-time B scans, so A* must expand the full permutation
// space of the duplicated templates before it can terminate. The
// reductions hoist B outright and dedup the duplicates, so the core that
// A* searches stays tiny no matter how many SITs ride on it.
SchedulingProblem BigTableTemplateInstance(int num_sits) {
  SchedulingProblem p;
  int big = p.AddTable("B", 50.0, 30'000.0);
  int small[10];
  for (int j = 0; j < 10; ++j) {
    small[j] = p.AddTable(NumberedName("s", j + 1),
                          /*scan_cost=*/1.0 + j, /*sample_size=*/10.0);
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

// The headline claim: Opt exhausts its node budget at some instance size,
// Exact with the same budget proves optimality at >= 5x that size.
TEST(ExactSolverTest, ScalesPastOptCeiling) {
  SolverOptions opt = Kind(SolverKind::kOptimal);
  opt.max_expansions = 20'000;
  SolverOptions exact = Kind(SolverKind::kExact);
  exact.max_expansions = 20'000;

  // Find Opt's ceiling: grow the instance until Opt exhausts its budget
  // (by node count or by advancing-set fan-out — both are the budget).
  int opt_ceiling = 0;
  for (int num_sits : {5, 10, 20, 40}) {
    SchedulingProblem problem = BigTableTemplateInstance(num_sits);
    Result<SolverResult> result = SolveSchedule(problem, opt);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    opt_ceiling = num_sits;
  }
  ASSERT_LT(opt_ceiling, 40) << "Opt never exhausted its budget; the "
                                "scaling claim is untestable here";

  // Exact with the same node budget must handle >= 5x that many SITs.
  int target = std::max(5 * opt_ceiling, 300);
  SchedulingProblem problem = BigTableTemplateInstance(target);
  SolverResult big_run = SolveSchedule(problem, exact).ValueOrDie();
  EXPECT_TRUE(big_run.proved_optimal);
  EXPECT_LE(big_run.nodes_expanded, 20'000u);
  SITSTATS_CHECK_OK(big_run.schedule.Validate(problem));

  SolverResult greedy =
      SolveSchedule(problem, Kind(SolverKind::kGreedy)).ValueOrDie();
  EXPECT_LE(big_run.schedule.cost, greedy.schedule.cost + 1e-9);
}

// MakeTemplateInstance under generous memory: the duplicated sequences
// dedup away and Exact agrees with Opt while expanding far fewer nodes.
TEST(ExactSolverTest, TemplateWorkloadAgreesWithOptimal) {
  Rng rng(7);
  InstanceSpec spec;
  spec.num_tables = 10;
  spec.num_sits = 40;
  spec.max_seq_len = 5;
  spec.memory_limit = 1e9;
  SchedulingProblem problem =
      MakeTemplateInstance(spec, /*num_templates=*/6, &rng).ValueOrDie();

  SolverResult exact =
      SolveSchedule(problem, Kind(SolverKind::kExact)).ValueOrDie();
  SolverResult optimal =
      SolveSchedule(problem, Kind(SolverKind::kOptimal)).ValueOrDie();
  EXPECT_NEAR(exact.schedule.cost, optimal.schedule.cost, 1e-9);
  EXPECT_TRUE(exact.proved_optimal);
  SITSTATS_CHECK_OK(exact.schedule.Validate(problem));
}

// Crossed pair plus a cap-2 table wanted by three SITs: the per-table
// lower bound misses the crossing's extra scan, so the search has
// strictly-improving frontier states to expand and cannot finish on a
// one-node budget — yet no reduction rule may touch the instance
// (identical [c] sequences outnumber c's cap, so dedup must not fire).
SchedulingProblem CrossingTrapInstance() {
  SchedulingProblem p;
  int a = p.AddTable("a", 2.0, 10.0);
  int b = p.AddTable("b", 3.0, 10.0);
  int c = p.AddTable("c", 5.0, 25.0);
  SITSTATS_CHECK_OK(p.AddSequenceIds({a, b}).status());
  SITSTATS_CHECK_OK(p.AddSequenceIds({b, a}).status());
  SITSTATS_CHECK_OK(p.AddSequenceIds({c}).status());
  SITSTATS_CHECK_OK(p.AddSequenceIds({c}).status());
  SITSTATS_CHECK_OK(p.AddSequenceIds({c}).status());
  p.set_memory_limit(50.0);
  return p;
}

TEST(ExactSolverTest, RespectsMaxExpansions) {
  SchedulingProblem p = CrossingTrapInstance();

  SolverOptions tiny = Kind(SolverKind::kExact);
  tiny.max_expansions = 1;
  Result<SolverResult> starved = SolveSchedule(p, tiny);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  SolverResult full =
      SolveSchedule(p, Kind(SolverKind::kExact)).ValueOrDie();
  // Crossing pair costs 2+3+2; c is scanned twice (cap 2, three SITs).
  EXPECT_DOUBLE_EQ(full.schedule.cost, 17.0);
  EXPECT_TRUE(full.proved_optimal);
}

TEST(ExactSolverTest, ReportsNodesExpanded) {
  SchedulingProblem p = CrossingTrapInstance();
  SolverResult result =
      SolveSchedule(p, Kind(SolverKind::kExact)).ValueOrDie();
  EXPECT_GT(result.nodes_expanded, 1u);
}

// Samples in a solver kind's scheduler.<Kind>.elapsed_ms histogram.
uint64_t ElapsedSamples(SolverKind kind) {
  return telemetry::MetricsRegistry::Global()
      .GetHistogram(std::string("scheduler.") + SolverKindToString(kind) +
                    ".elapsed_ms")
      .count();
}

// One kExact call is one solve: the core search runs inside it, so it
// books no second scheduler.solves count, no Greedy or Opt sample, and no
// nested scheduler.solve span.
TEST(ExactSolverTest, BooksExactlyOneSolve) {
  SchedulingProblem p = CrossingTrapInstance();
  telemetry::Counter& solves =
      telemetry::MetricsRegistry::Global().GetCounter("scheduler.solves");
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  const uint64_t solves_before = solves.value();
  const uint64_t exact_before = ElapsedSamples(SolverKind::kExact);
  const uint64_t greedy_before = ElapsedSamples(SolverKind::kGreedy);
  const uint64_t opt_before = ElapsedSamples(SolverKind::kOptimal);
  tracer.Clear();
  tracer.SetEnabled(true);

  SITSTATS_CHECK_OK(SolveSchedule(p, Kind(SolverKind::kExact)).status());

  tracer.SetEnabled(false);
  size_t solve_spans = 0;
  for (const telemetry::TraceEvent& event : tracer.Snapshot()) {
    if (event.name == "scheduler.solve") ++solve_spans;
  }
  tracer.Clear();
  EXPECT_EQ(solves.value() - solves_before, 1u);
  EXPECT_EQ(ElapsedSamples(SolverKind::kExact) - exact_before, 1u);
  EXPECT_EQ(ElapsedSamples(SolverKind::kGreedy), greedy_before);
  EXPECT_EQ(ElapsedSamples(SolverKind::kOptimal), opt_before);
  EXPECT_EQ(solve_spans, 1u);
}

// The first random numSITs=15 instance of bench_solver_scale (paper spec,
// M = 50,000): the reductions barely shrink it, so the core search does
// the work, and it must prove optimality inside the bench's 300k-node
// budget at the cost plain A* finds.
TEST(ExactSolverTest, ProvesRandomFifteenSitInstanceWithinBudget) {
  Rng rng(31015);
  InstanceSpec spec;
  spec.num_sits = 15;
  SchedulingProblem problem = MakeRandomInstance(spec, &rng).ValueOrDie();

  SolverOptions exact = Kind(SolverKind::kExact);
  exact.max_expansions = 300'000;
  Result<SolverResult> result = SolveSchedule(problem, exact);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->proved_optimal);
  EXPECT_LE(result->nodes_expanded, 300'000u);
  SITSTATS_CHECK_OK(result->schedule.Validate(problem));

  SolverResult optimal =
      SolveSchedule(problem, Kind(SolverKind::kOptimal)).ValueOrDie();
  EXPECT_NEAR(result->schedule.cost, optimal.schedule.cost,
              1e-9 * optimal.schedule.cost);
}

}  // namespace
}  // namespace sitstats
