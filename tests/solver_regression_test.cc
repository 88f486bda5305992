// Regression tests for three scheduler bugs fixed together with the
// exact-solver work:
//  1. sequences of length 65'001..65'535 were rejected even though the
//     uint16 position states represent them fine, and the true limit
//     (65'535) came back as kInvalidArgument instead of kOutOfRange;
//  2. Hybrid's only switch conditions were wall-clock time and state
//     count, so its output differed from run to run on loaded machines —
//     the node-expansion budget (SolverOptions::hybrid_switch_expansions)
//     makes the switch deterministic;
//  3. SchedulingProblem::Validate accepted NaN memory limits and
//     non-finite costs/samples, which poisoned cap arithmetic downstream.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/logging.h"
#include "scheduler/instance_generator.h"
#include "scheduler/solver.h"

namespace sitstats {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

SolverOptions Kind(SolverKind kind) {
  SolverOptions options;
  options.kind = kind;
  return options;
}

// --- Bug 1: uint16 sequence-length boundary -------------------------------

TEST(SolverRegressionTest, SequenceAtUint16BoundarySolves) {
  // 65'535 steps is exactly what a uint16 position can count; before the
  // fix anything past 65'000 was rejected.
  SchedulingProblem p;
  int t = p.AddTable("t", 1.0, 10.0);
  std::vector<int> seq(65'535, t);
  SITSTATS_CHECK_OK(p.AddSequenceIds(std::move(seq)).status());

  SolverResult result =
      SolveSchedule(p, Kind(SolverKind::kGreedy)).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.schedule.cost, 65'535.0);
  EXPECT_EQ(result.schedule.steps.size(), 65'535u);
}

TEST(SolverRegressionTest, OversizedSequenceRejectedOutOfRange) {
  SchedulingProblem p;
  int t = p.AddTable("t", 1.0, 10.0);
  std::vector<int> seq(65'536, t);
  SITSTATS_CHECK_OK(p.AddSequenceIds(std::move(seq)).status());

  for (SolverKind kind :
       {SolverKind::kOptimal, SolverKind::kGreedy, SolverKind::kHybrid,
        SolverKind::kExact}) {
    Result<SolverResult> result = SolveSchedule(p, Kind(kind));
    ASSERT_FALSE(result.ok()) << SolverKindToString(kind);
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
        << SolverKindToString(kind);
  }
}

// --- Bug 2: nondeterministic Hybrid switch --------------------------------

// An instance big enough that Hybrid cannot finish within 30 expansions.
SchedulingProblem HybridStressInstance() {
  Rng rng(424243);
  InstanceSpec spec;
  spec.num_tables = 8;
  spec.num_sits = 10;
  spec.max_seq_len = 5;
  return MakeRandomInstance(spec, &rng).ValueOrDie();
}

TEST(SolverRegressionTest, HybridNodeBudgetSwitchIsDeterministic) {
  SchedulingProblem problem = HybridStressInstance();
  SolverOptions options = Kind(SolverKind::kHybrid);
  options.hybrid_switch_seconds = 1e9;  // never fires
  options.hybrid_switch_expansions = 30;

  SolverResult first = SolveSchedule(problem, options).ValueOrDie();
  SolverResult second = SolveSchedule(problem, options).ValueOrDie();

  EXPECT_FALSE(first.proved_optimal);  // the budget really bit
  ASSERT_EQ(first.schedule.steps.size(), second.schedule.steps.size());
  for (size_t i = 0; i < first.schedule.steps.size(); ++i) {
    EXPECT_EQ(first.schedule.steps[i].table,
              second.schedule.steps[i].table) << "step " << i;
    EXPECT_EQ(first.schedule.steps[i].advanced,
              second.schedule.steps[i].advanced) << "step " << i;
  }
  EXPECT_DOUBLE_EQ(first.schedule.cost, second.schedule.cost);
}

// --- Bug 3: non-finite problem parameters ---------------------------------

TEST(SolverRegressionTest, NanMemoryLimitRejected) {
  SchedulingProblem p;
  int a = p.AddTable("a", 1.0, 10.0);
  SITSTATS_CHECK_OK(p.AddSequenceIds({a}).status());
  p.set_memory_limit(kNan);
  Result<SolverResult> result = SolveSchedule(p, Kind(SolverKind::kGreedy));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolverRegressionTest, NonPositiveMemoryLimitRejected) {
  for (double memory : {0.0, -5.0, -kInf}) {
    SchedulingProblem p;
    int a = p.AddTable("a", 1.0, 10.0);
    SITSTATS_CHECK_OK(p.AddSequenceIds({a}).status());
    p.set_memory_limit(memory);
    Result<SolverResult> result =
        SolveSchedule(p, Kind(SolverKind::kGreedy));
    ASSERT_FALSE(result.ok()) << "M = " << memory;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "M = " << memory;
  }
}

TEST(SolverRegressionTest, NonFiniteScanCostRejected) {
  for (double cost : {kNan, kInf}) {
    SchedulingProblem p;
    int a = p.AddTable("a", cost, 10.0);
    SITSTATS_CHECK_OK(p.AddSequenceIds({a}).status());
    Result<SolverResult> result =
        SolveSchedule(p, Kind(SolverKind::kGreedy));
    ASSERT_FALSE(result.ok()) << "cost = " << cost;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "cost = " << cost;
  }
}

TEST(SolverRegressionTest, NonFiniteSampleSizeRejected) {
  for (double sample : {kNan, kInf}) {
    SchedulingProblem p;
    int a = p.AddTable("a", 1.0, sample);
    SITSTATS_CHECK_OK(p.AddSequenceIds({a}).status());
    Result<SolverResult> result =
        SolveSchedule(p, Kind(SolverKind::kGreedy));
    ASSERT_FALSE(result.ok()) << "sample = " << sample;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "sample = " << sample;
  }
}

TEST(SolverRegressionTest, CapOneInstanceStillSolvesEverywhere) {
  // sample == M: every scan carries exactly one sequence. All strategies
  // must cope (cap-1 shared tables used to trip the A* successor logic
  // only in the infeasible direction; make sure the feasible one works).
  SchedulingProblem p;
  int a = p.AddTable("a", 2.0, 50.0);
  int b = p.AddTable("b", 3.0, 10.0);
  SITSTATS_CHECK_OK(p.AddSequenceIds({a, b}).status());
  SITSTATS_CHECK_OK(p.AddSequenceIds({a, b}).status());
  p.set_memory_limit(50.0);

  for (SolverKind kind :
       {SolverKind::kNaive, SolverKind::kOptimal, SolverKind::kGreedy,
        SolverKind::kHybrid, SolverKind::kExact}) {
    SolverResult result = SolveSchedule(p, Kind(kind)).ValueOrDie();
    SITSTATS_CHECK_OK(result.schedule.Validate(p));
    // a can never be shared; b can: optimum is 2+2+3 = 7.
    if (kind != SolverKind::kNaive) {
      EXPECT_DOUBLE_EQ(result.schedule.cost, 7.0)
          << SolverKindToString(kind);
    }
  }
}

}  // namespace
}  // namespace sitstats
