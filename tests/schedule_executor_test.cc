#include "scheduler/executor.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.h"
#include "datagen/synthetic_db.h"
#include "estimator/accuracy.h"
#include "scheduler/solver.h"

namespace sitstats {
namespace {

JoinPredicate Join(const std::string& lt, const std::string& lc,
                   const std::string& rt, const std::string& rc) {
  return JoinPredicate{ColumnRef{lt, lc}, ColumnRef{rt, rc}};
}

/// The multi-SIT scenario of Example 3: two SITs sharing table S.
///   SIT(T.a | R ⋈_{r1=s1} S ⋈_{s3=t3} T)
///   SIT(S.b | R ⋈_{r2=s2} S)
struct Example3Db {
  Catalog catalog;
  std::vector<SitDescriptor> sits;
};

Example3Db MakeExample3Db(uint64_t seed = 3, size_t rows = 4'000) {
  Example3Db db;
  Rng rng(seed);
  Schema rs;
  rs.AddColumn("r1", ValueType::kInt64);
  rs.AddColumn("r2", ValueType::kInt64);
  Table* r = db.catalog.CreateTable("R", rs).ValueOrDie();
  Schema ss;
  ss.AddColumn("s1", ValueType::kInt64);
  ss.AddColumn("s2", ValueType::kInt64);
  ss.AddColumn("s3", ValueType::kInt64);
  ss.AddColumn("b", ValueType::kInt64);
  Table* s = db.catalog.CreateTable("S", ss).ValueOrDie();
  Schema ts;
  ts.AddColumn("t3", ValueType::kInt64);
  ts.AddColumn("a", ValueType::kInt64);
  Table* t = db.catalog.CreateTable("T", ts).ValueOrDie();
  const int64_t domain = 100;
  for (size_t i = 0; i < rows; ++i) {
    SITSTATS_CHECK_OK(r->AppendRow(
        {Value(rng.UniformInt(1, domain)), Value(rng.UniformInt(1, domain))}));
    int64_t s1 = rng.UniformInt(1, domain);
    SITSTATS_CHECK_OK(s->AppendRow({Value(s1),
                                    Value(rng.UniformInt(1, domain)),
                                    Value((s1 * 3) % domain + 1),
                                    Value(rng.UniformInt(1, domain))}));
    int64_t t3 = rng.UniformInt(1, domain);
    SITSTATS_CHECK_OK(
        t->AppendRow({Value(t3), Value((t3 * 7) % domain + 1)}));
  }
  auto q1 = GeneratingQuery::Create(
      {"R", "S", "T"},
      {Join("R", "r1", "S", "s1"), Join("S", "s3", "T", "t3")});
  auto q2 =
      GeneratingQuery::Create({"R", "S"}, {Join("R", "r2", "S", "s2")});
  db.sits.emplace_back(ColumnRef{"T", "a"}, q1.ValueOrDie());
  db.sits.emplace_back(ColumnRef{"S", "b"}, q2.ValueOrDie());
  return db;
}

TEST(SitProblemTest, BuildsExpectedSequences) {
  Example3Db db = MakeExample3Db();
  SitProblemOptions options;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, options).ValueOrDie();
  ASSERT_EQ(problem.problem.num_sequences(), 2u);
  // SIT 1 (chain R-S-T rooted at T): scan order (S, T).
  // SIT 2 (single join rooted at S): scan order (S).
  auto name_seq = [&](size_t i) {
    std::vector<std::string> names;
    for (int id : problem.problem.sequence(i)) {
      names.push_back(problem.problem.table_name(id));
    }
    return names;
  };
  EXPECT_EQ(name_seq(0), (std::vector<std::string>{"S", "T"}));
  EXPECT_EQ(name_seq(1), (std::vector<std::string>{"S"}));
  EXPECT_EQ(problem.sequence_sit[0], 0u);
  EXPECT_EQ(problem.sequence_sit[1], 1u);
  // Cost(T) = max(|T|/1000, 1) = 4 for 4000-row tables.
  EXPECT_DOUBLE_EQ(problem.problem.scan_cost(problem.problem.FindTable("S")),
                   4.0);
}

TEST(ScheduleExecutorTest, OptimalScheduleSharesScanOfS) {
  Example3Db db = MakeExample3Db();
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kOptimal;
  SolverResult solved =
      SolveSchedule(problem.problem, soptions).ValueOrDie();
  // Optimal: one shared scan of S + one scan of T -> cost 8 (vs naive 12).
  EXPECT_DOUBLE_EQ(solved.schedule.cost, 8.0);

  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  ScheduleExecutionResult result =
      ExecuteSitSchedule(&db.catalog, &stats, db.sits, problem,
                         solved.schedule, eoptions)
          .ValueOrDie();
  ASSERT_EQ(result.sits.size(), 2u);
  // Exactly 2 sequential scans happened (S shared, T).
  EXPECT_EQ(result.total_stats.sequential_scans, 2u);
  EXPECT_GT(result.sits[0].estimated_cardinality, 0.0);
  EXPECT_GT(result.sits[1].estimated_cardinality, 0.0);
  EXPECT_EQ(result.sits[0].descriptor.attribute().ToString(), "T.a");
  EXPECT_EQ(result.sits[1].descriptor.attribute().ToString(), "S.b");
}

TEST(ScheduleExecutorTest, SharedExecutionMatchesOneAtATimeAccuracy) {
  // Building via a shared schedule must be as accurate as building each
  // SIT individually with CreateSit (same algorithm, shared scan).
  Example3Db db = MakeExample3Db(/*seed=*/11);
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kOptimal;
  SolverResult solved =
      SolveSchedule(problem.problem, soptions).ValueOrDie();
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.variant = SweepVariant::kSweepExact;
  ScheduleExecutionResult shared =
      ExecuteSitSchedule(&db.catalog, &stats, db.sits, problem,
                         solved.schedule, eoptions)
          .ValueOrDie();
  for (size_t i = 0; i < db.sits.size(); ++i) {
    SitBuildOptions boptions;
    boptions.variant = SweepVariant::kSweepExact;
    Sit individual =
        CreateSit(&db.catalog, &stats, db.sits[i], boptions).ValueOrDie();
    // SweepExact is deterministic: the shared execution must agree
    // exactly.
    EXPECT_DOUBLE_EQ(shared.sits[i].estimated_cardinality,
                     individual.estimated_cardinality)
        << db.sits[i].ToString();
    ASSERT_EQ(shared.sits[i].histogram.num_buckets(),
              individual.histogram.num_buckets());
    for (size_t b = 0; b < individual.histogram.num_buckets(); ++b) {
      EXPECT_DOUBLE_EQ(shared.sits[i].histogram.bucket(b).frequency,
                       individual.histogram.bucket(b).frequency);
    }
  }
}

TEST(ScheduleExecutorTest, SitBuildStatsMatchSoloBuild) {
  // Every SIT built by a schedule reports its own share of the shared
  // scans, field for field what its solo CreateSit build reports — at any
  // thread count, with sampled or exact oracles.
  Example3Db db = MakeExample3Db();
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kOptimal;
  SolverResult solved =
      SolveSchedule(problem.problem, soptions).ValueOrDie();
  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex}) {
    for (int threads : {1, 4}) {
      BaseStatsCache stats;
      ScheduleExecutionOptions eoptions;
      eoptions.variant = variant;
      eoptions.num_threads = threads;
      ScheduleExecutionResult result =
          ExecuteSitSchedule(&db.catalog, &stats, db.sits, problem,
                             solved.schedule, eoptions)
              .ValueOrDie();
      ASSERT_EQ(result.sits.size(), db.sits.size());
      for (size_t i = 0; i < db.sits.size(); ++i) {
        SitBuildOptions boptions;
        boptions.variant = variant;
        Sit solo =
            CreateSit(&db.catalog, &stats, db.sits[i], boptions).ValueOrDie();
        EXPECT_GT(solo.build_stats.sequential_scans, 0u);
        EXPECT_EQ(result.sits[i].build_stats, solo.build_stats)
            << db.sits[i].ToString() << " " << SweepVariantToString(variant)
            << " at " << threads << " threads: "
            << result.sits[i].build_stats.ToString() << " vs solo "
            << solo.build_stats.ToString();
      }
      // The shared scan of S is physical work done once.
      EXPECT_EQ(result.total_stats.sequential_scans, 2u);
      EXPECT_EQ(result.total_stats.rows_scanned, 8'000u);
    }
  }
}

TEST(ScheduleExecutorTest, NaiveScheduleAlsoExecutes) {
  Example3Db db = MakeExample3Db(/*seed=*/17);
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kNaive;
  SolverResult solved =
      SolveSchedule(problem.problem, soptions).ValueOrDie();
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  ScheduleExecutionResult result =
      ExecuteSitSchedule(&db.catalog, &stats, db.sits, problem,
                         solved.schedule, eoptions)
          .ValueOrDie();
  // Naive: S scanned twice (once per SIT) + T once.
  EXPECT_EQ(result.total_stats.sequential_scans, 3u);
  EXPECT_EQ(result.sits.size(), 2u);
}

TEST(ScheduleExecutorTest, RejectsHistSitVariant) {
  Example3Db db = MakeExample3Db();
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, poptions).ValueOrDie();
  Schedule empty;
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.variant = SweepVariant::kHistSit;
  EXPECT_EQ(ExecuteSitSchedule(&db.catalog, &stats, db.sits, problem, empty,
                               eoptions)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ScheduleExecutorTest, RejectsSamplingRateOutsideUnitInterval) {
  // The executor starts its builds through SweepBuild::Start, which owns
  // the (0, 1] check that CreateSit relies on; an infinite rate must not
  // reach the reservoir capacity cast.
  Example3Db db = MakeExample3Db();
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, poptions).ValueOrDie();
  SolverResult solved =
      SolveSchedule(problem.problem, SolverOptions{}).ValueOrDie();
  for (double rate : {std::numeric_limits<double>::infinity(), 2.0, 0.0}) {
    BaseStatsCache stats;
    ScheduleExecutionOptions eoptions;
    eoptions.sampling_rate = rate;
    EXPECT_EQ(ExecuteSitSchedule(&db.catalog, &stats, db.sits, problem,
                                 solved.schedule, eoptions)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "rate " << rate;
  }
}

TEST(ScheduleExecutorTest, IncompleteScheduleFails) {
  Example3Db db = MakeExample3Db();
  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, db.sits, poptions).ValueOrDie();
  // Only scan S once for SIT 1; SIT 1 still needs T and SIT 2 needs S.
  Schedule partial;
  partial.steps = {
      ScheduleStep{problem.problem.FindTable("S"), {0}},
  };
  partial.cost = 4.0;
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  EXPECT_FALSE(ExecuteSitSchedule(&db.catalog, &stats, db.sits, problem,
                                  partial, eoptions)
                   .ok());
}

}  // namespace
}  // namespace sitstats
