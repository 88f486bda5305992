#include "scheduler/executor.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.h"
#include "datagen/synthetic_db.h"
#include "estimator/accuracy.h"
#include "scheduler/solver.h"
#include "sit/serialization.h"

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

/// Tree-shaped SITs beside a chain, all rooted at or passing through R:
///   star:      SIT(R.a | R ⋈_{r1=s1} S, R ⋈_{r2=t1} T)         scans (R)
///   chain:     SIT(R.b | R ⋈_{r1=s1} S ⋈_{s2=u1} U)            scans (S, R)
///   mid-chain: SIT(S.c | T ⋈_{t1=r2} R ⋈_{r1=s1} S ⋈_{s2=u1} U) scans (R, S)
/// R has twice the rows of S, so the one cheapest schedule scans R once:
/// S (chain), R (all three), S (mid-chain).
struct TreeBatchDb {
  Catalog catalog;
  SitDescriptor star;
  SitDescriptor chain;
  SitDescriptor mid_chain;
};

TreeBatchDb MakeTreeBatchDb() {
  Catalog catalog;
  auto make_table = [&](const std::string& name,
                        const std::vector<std::string>& columns) {
    Schema schema;
    for (const std::string& column : columns) {
      schema.AddColumn(column, ValueType::kInt64);
    }
    return catalog.CreateTable(name, schema).ValueOrDie();
  };
  Table* r = make_table("R", {"r1", "r2", "a", "b"});
  Table* s = make_table("S", {"s1", "s2", "c"});
  Table* t = make_table("T", {"t1"});
  Table* u = make_table("U", {"u1"});
  Rng rng(19);
  const int64_t domain = 60;
  auto draw = [&] { return rng.UniformInt(1, domain); };
  // R.a, S.s2 and S.c follow the row's first join key, so the SITs differ
  // from what independence predicts.
  for (int i = 0; i < 4'000; ++i) {
    int64_t r1 = draw();
    SITSTATS_CHECK_OK(r->AppendRow({Value(r1), Value(draw()),
                                    Value((r1 * 7) % domain + 1),
                                    Value(draw())}));
  }
  for (int i = 0; i < 2'000; ++i) {
    int64_t s1 = draw();
    SITSTATS_CHECK_OK(s->AppendRow({Value(s1), Value((s1 * 3) % domain + 1),
                                    Value((s1 * 5) % domain + 1)}));
  }
  for (int i = 0; i < 1'500; ++i) {
    SITSTATS_CHECK_OK(t->AppendRow({Value(draw())}));
    SITSTATS_CHECK_OK(u->AppendRow({Value(draw())}));
  }
  const JoinPredicate rs = Join("R", "r1", "S", "s1");
  const JoinPredicate rt = Join("R", "r2", "T", "t1");
  const JoinPredicate su = Join("S", "s2", "U", "u1");
  return TreeBatchDb{
      std::move(catalog),
      SitDescriptor(ColumnRef{"R", "a"},
                    GeneratingQuery::Create({"R", "S", "T"}, {rs, rt})
                        .ValueOrDie()),
      SitDescriptor(ColumnRef{"R", "b"},
                    GeneratingQuery::Create({"R", "S", "U"}, {rs, su})
                        .ValueOrDie()),
      SitDescriptor(ColumnRef{"S", "c"},
                    GeneratingQuery::Create({"T", "R", "S", "U"},
                                            {rt, rs, su})
                        .ValueOrDie())};
}

TEST(SitProblemTest, TreeSitIsOnePostOrderSequence) {
  TreeBatchDb db = MakeTreeBatchDb();
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog,
                                {db.star, db.chain, db.mid_chain},
                                SitProblemOptions{})
          .ValueOrDie();
  ASSERT_EQ(problem.problem.num_sequences(), 3u);
  auto name_seq = [&](size_t i) {
    std::vector<std::string> names;
    for (int id : problem.problem.sequence(i)) {
      names.push_back(problem.problem.table_name(id));
    }
    return names;
  };
  EXPECT_EQ(name_seq(0), std::vector<std::string>{"R"});
  EXPECT_EQ(name_seq(1), (std::vector<std::string>{"S", "R"}));
  EXPECT_EQ(name_seq(2), (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(problem.sequence_sit, (std::vector<size_t>{0, 1, 2}));
}

TEST(SitProblemTest, StarSharesItsRootScanAtOneSampleOfMemory) {
  // With memory for one sample of R, the star still takes one scan of R:
  // its root is one node, not one node per root-to-leaf path.
  TreeBatchDb db = MakeTreeBatchDb();
  SitProblemOptions options;
  const Table* r = db.catalog.GetTable("R").ValueOrDie();
  options.memory_limit = static_cast<double>(
      options.cost_model.SampleSize(r->num_rows(), options.sampling_rate));
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, {db.star}, options).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kExact;
  SolverResult solved =
      SolveSchedule(problem.problem, soptions).ValueOrDie();
  ASSERT_EQ(solved.schedule.steps.size(), 1u);
  EXPECT_DOUBLE_EQ(solved.schedule.cost,
                   options.cost_model.SequentialScanCost(r->num_rows()));
}

TEST(ScheduleExecutorTest, MixedTreeAndChainBatchMatchesSoloBuilds) {
  TreeBatchDb db = MakeTreeBatchDb();
  const std::vector<SitDescriptor> sits = {db.star, db.chain, db.mid_chain};
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(db.catalog, sits, SitProblemOptions{})
          .ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kExact;
  SolverResult solved =
      SolveSchedule(problem.problem, soptions).ValueOrDie();
  // S (chain), R (star, chain, mid-chain), S (mid-chain): Cost 2 + 4 + 2.
  ASSERT_EQ(solved.schedule.steps.size(), 3u);
  EXPECT_DOUBLE_EQ(solved.schedule.cost, 8.0);
  const ScheduleStep& shared = solved.schedule.steps[1];
  EXPECT_EQ(problem.problem.table_name(shared.table), "R");
  EXPECT_EQ(shared.advanced.size(), 3u);

  for (SweepVariant variant :
       {SweepVariant::kSweep, SweepVariant::kSweepIndex,
        SweepVariant::kSweepFull, SweepVariant::kSweepExact}) {
    for (int threads : {1, 4}) {
      BaseStatsCache stats;
      ScheduleExecutionOptions eoptions;
      eoptions.variant = variant;
      eoptions.num_threads = threads;
      ScheduleExecutionResult result =
          ExecuteSitSchedule(&db.catalog, &stats, sits, problem,
                             solved.schedule, eoptions)
              .ValueOrDie();
      ASSERT_EQ(result.sits.size(), sits.size());
      uint64_t solo_scans = 0;
      for (size_t i = 0; i < sits.size(); ++i) {
        SitBuildOptions boptions;
        boptions.variant = variant;
        Sit solo =
            CreateSit(&db.catalog, &stats, sits[i], boptions).ValueOrDie();
        EXPECT_EQ(SerializeSit(result.sits[i]), SerializeSit(solo))
            << sits[i].ToString() << " " << SweepVariantToString(variant)
            << " at " << threads << " threads";
        EXPECT_EQ(result.sits[i].build_stats, solo.build_stats)
            << sits[i].ToString();
        solo_scans += result.sits[i].build_stats.sequential_scans;
      }
      // Solo builds scan R once per SIT; the batch scans it once.
      EXPECT_EQ(solo_scans, 5u);
      EXPECT_EQ(result.total_stats.sequential_scans, 3u);
    }
  }
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
