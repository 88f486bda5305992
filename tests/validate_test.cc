// Exercises the deep invariant validators against deliberately corrupted
// histograms, schedules, and catalogs, plus the SITSTATS_DCHECK family
// (death tests in builds where DCHECKs are live, no-evaluation semantics
// where they are compiled out).

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/status.h"
#include "histogram/builder.h"
#include "histogram/histogram.h"
#include "scheduler/problem.h"
#include "scheduler/solver.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace sitstats {
namespace {

// ---------------------------------------------------------------------------
// Histogram::Validate
// ---------------------------------------------------------------------------

TEST(HistogramValidateTest, AcceptsWellFormedHistogram) {
  Histogram h({Bucket{0, 9, 100, 10}, Bucket{10, 19, 50, 5},
               Bucket{30, 30, 7, 1}});
  EXPECT_TRUE(h.Validate().ok()) << h.Validate().ToString();
  EXPECT_TRUE(Histogram().Validate().ok());
}

TEST(HistogramValidateTest, AcceptsBuilderOutput) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 37);
  for (HistogramType type :
       {HistogramType::kEquiWidth, HistogramType::kEquiDepth,
        HistogramType::kMaxDiff, HistogramType::kVOptimal}) {
    HistogramSpec spec;
    spec.type = type;
    spec.num_buckets = 8;
    Result<Histogram> h = BuildHistogram(values, spec);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(h->Validate().ok())
        << HistogramTypeToString(type) << ": " << h->Validate().ToString();
  }
}

TEST(HistogramValidateTest, AcceptsFractionalScaledHistogram) {
  // ScaledToTotal produces fractional frequencies and distinct counts;
  // the cumulative-count bound must absorb the grid-model slack.
  Histogram h({Bucket{0, 9, 100, 10}, Bucket{10, 19, 50, 5}});
  Histogram scaled = h.ScaledToTotal(37.5);
  EXPECT_TRUE(scaled.Validate().ok()) << scaled.Validate().ToString();
}

TEST(HistogramValidateTest, RejectsNonFiniteFields) {
  double nan = std::numeric_limits<double>::quiet_NaN();
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(Histogram({Bucket{0, 9, nan, 1}}).Validate().ok());
  EXPECT_FALSE(Histogram({Bucket{0, inf, 10, 1}}).Validate().ok());
  EXPECT_FALSE(Histogram({Bucket{0, 9, 10, nan}}).Validate().ok());
}

TEST(HistogramValidateTest, RejectsSingletonBucketWithManyDistinct) {
  // A width-0 bucket covers exactly one value; claiming 10 deflates
  // EstimateEquals by 10x.
  Histogram h({Bucket{5.5, 5.5, 100, 10}});
  Status s = h.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("singleton"), std::string::npos);
}

TEST(HistogramValidateTest, RejectsDistinctBeyondIntegralSpread) {
  // [10, 12] holds at most the integers 10, 11, 12.
  Histogram h({Bucket{10, 12, 100, 7}});
  Status s = h.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("spread"), std::string::npos);
}

TEST(HistogramValidateTest, RejectsEverythingCheckValidRejects) {
  // Validate is a superset of CheckValid.
  EXPECT_FALSE(Histogram({Bucket{9, 0, 10, 1}}).Validate().ok());  // hi < lo
  EXPECT_FALSE(
      Histogram({Bucket{0, 5, -1, 1}}).Validate().ok());  // negative f
  EXPECT_FALSE(Histogram({Bucket{0, 5, 10, 2}, Bucket{3, 9, 10, 2}})
                   .Validate()
                   .ok());  // overlap
}

TEST(HistogramValidateTest, SampleBuilderCapsSingletonDistinct) {
  // Regression: GEE used to assign sqrt(N/n) distinct values to a bucket
  // holding one repeated non-integral value.
  HistogramSpec spec;
  spec.num_buckets = 4;
  spec.distinct_estimator = DistinctEstimator::kGee;
  // One non-integral value seen exactly once: GEE's sqrt(N/n) * d1 term
  // is what used to blow past the one-value spread of a width-0 bucket.
  std::vector<double> sample = {5.5};
  Result<Histogram> h = BuildHistogramFromSample(sample, 50000.0, spec);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->num_buckets(), 1u);
  EXPECT_DOUBLE_EQ(h->bucket(0).distinct_values, 1.0);
  EXPECT_TRUE(h->Validate().ok()) << h->Validate().ToString();
}

// ---------------------------------------------------------------------------
// Schedule::Validate
// ---------------------------------------------------------------------------

SchedulingProblem TwoSequenceProblem() {
  SchedulingProblem problem;
  problem.AddTable("A", 10.0, 1.0);
  problem.AddTable("B", 20.0, 1.0);
  problem.AddTable("C", 30.0, 1.0);
  SITSTATS_CHECK(problem.AddSequence({"A", "B"}).ok());
  SITSTATS_CHECK(problem.AddSequence({"A", "C"}).ok());
  return problem;
}

Schedule SolvedSchedule(const SchedulingProblem& problem) {
  SolverOptions options;
  options.kind = SolverKind::kOptimal;
  Result<SolverResult> result = SolveSchedule(problem, options);
  SITSTATS_CHECK(result.ok()) << result.status().ToString();
  return result->schedule;
}

TEST(ScheduleValidateTest, AcceptsSolverOutput) {
  SchedulingProblem problem = TwoSequenceProblem();
  Schedule schedule = SolvedSchedule(problem);
  EXPECT_TRUE(schedule.Validate(problem).ok())
      << schedule.Validate(problem).ToString();
  // The optimal schedule shares the single A scan: cost A+B+C = 60.
  EXPECT_DOUBLE_EQ(schedule.cost, 60.0);
}

TEST(ScheduleValidateTest, RejectsCostBelowLowerBound) {
  SchedulingProblem problem = TwoSequenceProblem();
  Schedule schedule = SolvedSchedule(problem);
  schedule.cost = 10.0;  // below the 60.0 single-scan lower bound
  Status s = schedule.Validate(problem);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("lower"), std::string::npos);
}

TEST(ScheduleValidateTest, RejectsTamperedCostAboveLowerBound) {
  SchedulingProblem problem = TwoSequenceProblem();
  Schedule schedule = SolvedSchedule(problem);
  schedule.cost += 5.0;  // above the bound but disagreeing with the steps
  EXPECT_FALSE(schedule.Validate(problem).ok());
}

TEST(ScheduleValidateTest, RejectsIncompleteSequences) {
  SchedulingProblem problem = TwoSequenceProblem();
  Schedule schedule = SolvedSchedule(problem);
  ASSERT_FALSE(schedule.steps.empty());
  double last_cost = problem.scan_cost(schedule.steps.back().table);
  schedule.steps.pop_back();
  schedule.cost -= last_cost;
  EXPECT_FALSE(schedule.Validate(problem).ok());
}

TEST(ScheduleValidateTest, RejectsDoubleAdvance) {
  SchedulingProblem problem = TwoSequenceProblem();
  Schedule schedule = SolvedSchedule(problem);
  ASSERT_FALSE(schedule.steps.empty());
  schedule.steps.front().advanced.push_back(
      schedule.steps.front().advanced.front());
  EXPECT_FALSE(schedule.Validate(problem).ok());
}

TEST(ScheduleValidateTest, RejectsMemoryOverflow) {
  SchedulingProblem problem = TwoSequenceProblem();
  Schedule schedule = SolvedSchedule(problem);
  // Shrink the memory limit after solving: the shared-A step needs two
  // sample sets of size 1, which no longer fit.
  problem.set_memory_limit(1.0);
  EXPECT_FALSE(schedule.Validate(problem).ok());
}

TEST(ScheduleValidateTest, SolverOutputValidAcrossKinds) {
  SchedulingProblem problem = TwoSequenceProblem();
  for (SolverKind kind : {SolverKind::kNaive, SolverKind::kOptimal,
                          SolverKind::kGreedy, SolverKind::kHybrid}) {
    SolverOptions options;
    options.kind = kind;
    Result<SolverResult> result = SolveSchedule(problem, options);
    ASSERT_TRUE(result.ok()) << SolverKindToString(kind);
    EXPECT_TRUE(result->schedule.Validate(problem).ok())
        << SolverKindToString(kind) << ": "
        << result->schedule.Validate(problem).ToString();
  }
}

// ---------------------------------------------------------------------------
// Catalog::ValidateConsistency
// ---------------------------------------------------------------------------

Catalog MakeCatalog() {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("k", ValueType::kInt64);
  schema.AddColumn("v", ValueType::kInt64);
  Table* table = catalog.CreateTable("T", schema).ValueOrDie();
  for (int64_t i = 0; i < 50; ++i) {
    SITSTATS_CHECK_OK(table->AppendRow({Value(i % 7), Value(i)}));
  }
  return catalog;
}

TEST(CatalogValidateTest, AcceptsConsistentCatalog) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(catalog.ValidateConsistency().ok());
  SITSTATS_CHECK_OK(catalog.EnsureIndex("T", "k").status());
  EXPECT_TRUE(catalog.ValidateConsistency().ok())
      << catalog.ValidateConsistency().ToString();
}

TEST(CatalogValidateTest, RejectsRaggedColumns) {
  Catalog catalog = MakeCatalog();
  Table* table = catalog.GetMutableTable("T").ValueOrDie();
  Column* column = table->GetMutableColumn("v").ValueOrDie();
  column->AppendInt64(999);  // "v" now has 51 rows, "k" has 50
  Status s = catalog.ValidateConsistency();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("rows"), std::string::npos);
}

TEST(CatalogValidateTest, RejectsStaleIndex) {
  Catalog catalog = MakeCatalog();
  SITSTATS_CHECK_OK(catalog.EnsureIndex("T", "k").status());
  Table* table = catalog.GetMutableTable("T").ValueOrDie();
  SITSTATS_CHECK_OK(table->AppendRow({Value(int64_t{3}), Value(int64_t{50})}));
  Status s = catalog.ValidateConsistency();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("entries"), std::string::npos);
}

TEST(CatalogValidateTest, AcceptsConsistentCompositeIndex) {
  Catalog catalog = MakeCatalog();
  SITSTATS_CHECK_OK(
      catalog.EnsureIndex("T", std::vector<std::string>{"k", "v"}).status());
  EXPECT_TRUE(catalog.ValidateConsistency().ok())
      << catalog.ValidateConsistency().ToString();
}

TEST(CatalogValidateTest, RejectsStaleCompositeIndex) {
  Catalog catalog = MakeCatalog();
  SITSTATS_CHECK_OK(
      catalog.EnsureIndex("T", std::vector<std::string>{"k", "v"}).status());
  Table* table = catalog.GetMutableTable("T").ValueOrDie();
  SITSTATS_CHECK_OK(table->AppendRow({Value(int64_t{3}), Value(int64_t{50})}));
  Status s = catalog.ValidateConsistency();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("entries"), std::string::npos);
  EXPECT_NE(s.message().find("T.k,v"), std::string::npos) << s.message();
}

TEST(CatalogValidateTest, CompositeIndexCheckCatchesCellDisagreement) {
  Catalog catalog = MakeCatalog();
  SITSTATS_CHECK_OK(
      catalog.EnsureIndex("T", std::vector<std::string>{"k", "v"}).status());
  // Every (k, v) key is distinct, and stays so: the recount has as many
  // keys as the index, and only the per-row lookups can disagree.
  Table* table = catalog.GetMutableTable("T").ValueOrDie();
  Column* column = table->GetMutableColumn("v").ValueOrDie();
  int64_t* data = const_cast<int64_t*>(column->int64_data().data());
  data[0] += 1000;
  Status s = catalog.ValidateConsistency();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("disagree"), std::string::npos) << s.message();
}

TEST(CatalogValidateTest, IndexCheckValidCatchesCellDisagreement) {
  Catalog catalog = MakeCatalog();
  SITSTATS_CHECK_OK(catalog.EnsureIndex("T", "k").status());
  // Rewrite a key cell underneath the index: same row count, wrong cells.
  Table* table = catalog.GetMutableTable("T").ValueOrDie();
  Column* column = table->GetMutableColumn("k").ValueOrDie();
  int64_t* data = const_cast<int64_t*>(column->int64_data().data());
  data[0] += 1000;
  Status s = catalog.ValidateConsistency();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("entries"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SITSTATS_DCHECK family
// ---------------------------------------------------------------------------

TEST(DcheckTest, PassingChecksAreSilent) {
  SITSTATS_DCHECK(1 + 1 == 2) << "never printed";
  SITSTATS_DCHECK_OK(Status::OK());
  SITSTATS_DCHECK_EQ(4, 2 + 2);
  SITSTATS_DCHECK_NE(1, 2);
  SITSTATS_DCHECK_LT(1, 2);
  SITSTATS_DCHECK_LE(2, 2);
  SITSTATS_DCHECK_GT(3, 2);
  SITSTATS_DCHECK_GE(3, 3);
}

#if SITSTATS_DCHECKS_ENABLED

TEST(DcheckDeathTest, FailedDcheckAborts) {
  EXPECT_DEATH(SITSTATS_DCHECK(1 == 2) << "boom", "Check failed");
}

TEST(DcheckDeathTest, FailedDcheckOkAbortsWithStatus) {
  EXPECT_DEATH(SITSTATS_DCHECK_OK(Status::Internal("bad invariant")),
               "bad invariant");
}

TEST(DcheckDeathTest, ComparisonFormsPrintOperands) {
  EXPECT_DEATH(SITSTATS_DCHECK_EQ(3, 2 + 2), "3 vs 4");
}

TEST(DcheckDeathTest, SolverDchecksCorruptScheduleAtSolveBoundary) {
  // End to end: Schedule::Validate wired via SITSTATS_DCHECK_OK (as at
  // the SolveSchedule exit) catches a corrupted cost before anything
  // downstream would trust it.
  SchedulingProblem problem = TwoSequenceProblem();
  Schedule schedule = SolvedSchedule(problem);
  schedule.cost = 1.0;
  EXPECT_DEATH(SITSTATS_DCHECK_OK(schedule.Validate(problem)),
               "lower");
}

#else  // !SITSTATS_DCHECKS_ENABLED

TEST(DcheckTest, DisabledDchecksDoNotEvaluateOperands) {
  int evaluations = 0;
  auto touch = [&evaluations]() {
    ++evaluations;
    return false;
  };
  SITSTATS_DCHECK(touch()) << "never printed";
  auto status_touch = [&evaluations]() {
    ++evaluations;
    return Status::Internal("never seen");
  };
  SITSTATS_DCHECK_OK(status_touch());
  EXPECT_EQ(evaluations, 0);
}

#endif  // SITSTATS_DCHECKS_ENABLED

}  // namespace
}  // namespace sitstats
