#include <gtest/gtest.h>

#include "scheduler/instance_generator.h"
#include "scheduler/solver.h"

namespace sitstats {
namespace {

SchedulingProblem HardInstance(uint64_t seed) {
  Rng rng(seed);
  InstanceSpec spec;
  spec.num_sits = 12;
  spec.num_tables = 10;
  return MakeRandomInstance(spec, &rng).ValueOrDie();
}

TEST(HybridSwitchTest, ExpansionBudgetSwitchProducesValidSchedule) {
  SchedulingProblem problem = HardInstance(3);
  SolverOptions options;
  options.kind = SolverKind::kHybrid;
  options.hybrid_switch_seconds = 1e9;    // never by time
  options.hybrid_switch_expansions = 50;  // switch almost immediately
  SolverResult result = SolveSchedule(problem, options).ValueOrDie();
  EXPECT_TRUE(ValidateSchedule(problem, result.schedule).ok());
  // With such an early switch the run cannot be proved optimal unless it
  // finished within 50 expansions (it won't for 12 SITs).
  EXPECT_FALSE(result.proved_optimal);
}

TEST(HybridSwitchTest, EarlySwitchIsBetweenGreedyAndOptimal) {
  SchedulingProblem problem = HardInstance(7);
  auto solve = [&](SolverKind kind, uint64_t expansions) {
    SolverOptions options;
    options.kind = kind;
    options.hybrid_switch_seconds = 1e9;
    options.hybrid_switch_expansions = expansions;
    return SolveSchedule(problem, options).ValueOrDie().schedule.cost;
  };
  double greedy = solve(SolverKind::kGreedy, 0);
  double opt = solve(SolverKind::kOptimal, 0);
  double hybrid_early = solve(SolverKind::kHybrid, 20);
  double hybrid_late = solve(SolverKind::kHybrid, 100'000);
  EXPECT_LE(opt, hybrid_early + 1e-9);
  EXPECT_LE(opt, hybrid_late + 1e-9);
  EXPECT_LE(hybrid_early, greedy * 1.2 + 1e-9);  // near-greedy quality
  // More A* budget never hurts (both are >= opt, late has more guidance).
  EXPECT_LE(hybrid_late, hybrid_early + 1e-9);
}

TEST(HybridSwitchTest, NoSwitchMeansProvedOptimal) {
  Rng rng(11);
  InstanceSpec spec;
  spec.num_sits = 4;
  SchedulingProblem problem = MakeRandomInstance(spec, &rng).ValueOrDie();
  SolverOptions options;
  options.kind = SolverKind::kHybrid;
  options.hybrid_switch_seconds = 1e9;
  options.hybrid_switch_expansions = 1'000'000;
  SolverResult result = SolveSchedule(problem, options).ValueOrDie();
  EXPECT_TRUE(result.proved_optimal);
  SolverOptions opt;
  opt.kind = SolverKind::kOptimal;
  EXPECT_DOUBLE_EQ(result.schedule.cost,
                   SolveSchedule(problem, opt).ValueOrDie().schedule.cost);
}

}  // namespace
}  // namespace sitstats
