// Parallel schedule execution: thread-count resolution, the ready list's
// edge shapes, and the determinism contract — a SIT's bytes must not depend
// on the thread count or on which other SITs share the batch (per-SIT seed
// streams).

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/rng.h"
#include "scheduler/executor.h"
#include "scheduler/solver.h"
#include "sit/serialization.h"
#include "telemetry/telemetry.h"

namespace sitstats {
namespace {

// ---------------------------------------------------------------------------
// Thread-count resolution

TEST(ThreadPoolTest, ResolveThreadCountPrecedence) {
  // Explicit request wins over the environment.
  ASSERT_EQ(setenv("SITSTATS_THREADS", "6", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_EQ(ResolveThreadCount(0), 6u);
  ASSERT_EQ(setenv("SITSTATS_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  ASSERT_EQ(unsetenv("SITSTATS_THREADS"), 0);
  EXPECT_EQ(ResolveThreadCount(0), 1u);
  EXPECT_EQ(ResolveThreadCount(-5), 1u);
  // Clamped to a sane ceiling.
  EXPECT_LE(ResolveThreadCount(100000), 256u);
}

// ---------------------------------------------------------------------------
// Executor determinism

JoinPredicate Join(const std::string& lt, const std::string& lc,
                   const std::string& rt, const std::string& rc) {
  return JoinPredicate{ColumnRef{lt, lc}, ColumnRef{rt, rc}};
}

struct Fixture {
  Catalog catalog;
  std::vector<SitDescriptor> sits;
};

/// `num_chains` disjoint 3-table chains C<c>T1 ⋈ C<c>T2 ⋈ C<c>T3 with a
/// SIT on the last table's payload — every chain's steps are independent
/// of every other chain's, so the executor's DAG is maximally parallel.
Fixture MakeIndependentChains(int num_chains, size_t rows,
                              uint64_t seed = 5) {
  Fixture fx;
  Rng rng(seed);
  const int64_t domain = 50;
  const int kLen = 3;
  for (int c = 0; c < num_chains; ++c) {
    std::vector<std::string> names;
    std::vector<JoinPredicate> joins;
    for (int i = 1; i <= kLen; ++i) {
      char name_buf[32];
      std::snprintf(name_buf, sizeof(name_buf), "C%dT%d", c, i);
      std::string name = name_buf;
      Schema schema;
      if (i > 1) schema.AddColumn("jp", ValueType::kInt64);
      if (i < kLen) schema.AddColumn("jn", ValueType::kInt64);
      schema.AddColumn("a", ValueType::kInt64);
      Table* table = fx.catalog.CreateTable(name, schema).ValueOrDie();
      for (size_t r = 0; r < rows; ++r) {
        std::vector<Value> row;
        if (i > 1) row.emplace_back(rng.UniformInt(1, domain));
        if (i < kLen) row.emplace_back(rng.UniformInt(1, domain));
        row.emplace_back(rng.UniformInt(1, domain));
        SITSTATS_CHECK_OK(table->AppendRow(row));
      }
      if (i > 1) {
        joins.push_back(Join(names.back(), "jn", name, "jp"));
      }
      names.push_back(name);
    }
    fx.sits.emplace_back(
        ColumnRef{names.back(), "a"},
        GeneratingQuery::Create(names, joins).ValueOrDie());
  }
  return fx;
}

/// The paper's Example 3 shape: two SITs sharing a scan of S (exercises
/// multi-target steps and dependency edges between steps).
Fixture MakeSharedScanFixture(uint64_t seed = 11, size_t rows = 2'000) {
  Fixture fx;
  Rng rng(seed);
  Schema rs;
  rs.AddColumn("r1", ValueType::kInt64);
  rs.AddColumn("r2", ValueType::kInt64);
  Table* r = fx.catalog.CreateTable("R", rs).ValueOrDie();
  Schema ss;
  ss.AddColumn("s1", ValueType::kInt64);
  ss.AddColumn("s2", ValueType::kInt64);
  ss.AddColumn("s3", ValueType::kInt64);
  ss.AddColumn("b", ValueType::kInt64);
  Table* s = fx.catalog.CreateTable("S", ss).ValueOrDie();
  Schema ts;
  ts.AddColumn("t3", ValueType::kInt64);
  ts.AddColumn("a", ValueType::kInt64);
  Table* t = fx.catalog.CreateTable("T", ts).ValueOrDie();
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
  fx.sits.emplace_back(ColumnRef{"T", "a"}, q1.ValueOrDie());
  fx.sits.emplace_back(ColumnRef{"S", "b"}, q2.ValueOrDie());
  return fx;
}

constexpr SweepVariant kSweepVariants[] = {
    SweepVariant::kSweep, SweepVariant::kSweepIndex, SweepVariant::kSweepFull,
    SweepVariant::kSweepExact};

/// Solves `fx` with `kind` and executes at `threads` with `eoptions` over
/// base statistics built with `base_options`, returning each built SIT's
/// exact serialized bytes.
std::vector<std::string> ExecuteAndSerialize(
    Fixture* fx, SolverKind kind, int threads, size_t* steps_out = nullptr,
    ScheduleExecutionOptions eoptions = {},
    const HistogramSpec& base_options = {}) {
  SitProblemOptions poptions;
  SitSchedulingProblem mapping =
      BuildSitSchedulingProblem(fx->catalog, fx->sits, poptions)
          .ValueOrDie();
  SolverOptions soptions;
  soptions.kind = kind;
  SolverResult solved =
      SolveSchedule(mapping.problem, soptions).ValueOrDie();
  EXPECT_TRUE(solved.schedule.Validate(mapping.problem).ok());
  if (steps_out != nullptr) *steps_out = solved.schedule.steps.size();
  BaseStatsCache stats(base_options);
  eoptions.num_threads = threads;
  ScheduleExecutionResult result =
      ExecuteSitSchedule(&fx->catalog, &stats, fx->sits, mapping,
                         solved.schedule, eoptions)
          .ValueOrDie();
  EXPECT_EQ(result.threads_used, ResolveThreadCount(threads));
  std::vector<std::string> serialized;
  serialized.reserve(result.sits.size());
  for (const Sit& sit : result.sits) {
    serialized.push_back(SerializeSit(sit));
  }
  return serialized;
}

TEST(ParallelExecutorTest, ThreadCountDoesNotChangeResults) {
  // The acceptance bar of ISSUE 4: byte-identical SITs at 1, 2, and 8
  // threads, for both independent chains and shared-scan schedules.
  Fixture chains1 = MakeIndependentChains(4, 800);
  Fixture chains2 = MakeIndependentChains(4, 800);
  Fixture chains8 = MakeIndependentChains(4, 800);
  std::vector<std::string> at1 =
      ExecuteAndSerialize(&chains1, SolverKind::kGreedy, 1);
  std::vector<std::string> at2 =
      ExecuteAndSerialize(&chains2, SolverKind::kGreedy, 2);
  std::vector<std::string> at8 =
      ExecuteAndSerialize(&chains8, SolverKind::kGreedy, 8);
  ASSERT_EQ(at1.size(), 4u);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);

  Fixture shared1 = MakeSharedScanFixture();
  Fixture shared8 = MakeSharedScanFixture();
  std::vector<std::string> shared_at1 =
      ExecuteAndSerialize(&shared1, SolverKind::kOptimal, 1);
  std::vector<std::string> shared_at8 =
      ExecuteAndSerialize(&shared8, SolverKind::kOptimal, 8);
  ASSERT_EQ(shared_at1.size(), 2u);
  EXPECT_EQ(shared_at1, shared_at8);
}

TEST(ParallelExecutorTest, ScheduleShapeDoesNotChangeResults) {
  // Naive (one scan per SIT step) and Optimal (shared scans) schedules
  // visit rows identically per SIT, so per-SIT streams make them agree.
  Fixture naive_fx = MakeSharedScanFixture();
  Fixture opt_fx = MakeSharedScanFixture();
  std::vector<std::string> naive =
      ExecuteAndSerialize(&naive_fx, SolverKind::kNaive, 4);
  std::vector<std::string> opt =
      ExecuteAndSerialize(&opt_fx, SolverKind::kOptimal, 4);
  EXPECT_EQ(naive, opt);
}

TEST(ParallelExecutorTest, BatchMatchesBuildingAlone) {
  // Regression for the ISSUE 4 seed bug: options.seed used to seed one
  // execution-wide stream, so a SIT's sample depended on its position in
  // the batch. With per-SIT streams, a batched SIT is byte-identical to
  // the same SIT built alone by CreateSit.
  Fixture fx = MakeSharedScanFixture();
  for (SweepVariant variant : kSweepVariants) {
    ScheduleExecutionOptions eoptions;
    eoptions.variant = variant;
    std::vector<std::string> batched =
        ExecuteAndSerialize(&fx, SolverKind::kOptimal, 8, nullptr, eoptions);
    ASSERT_EQ(batched.size(), fx.sits.size());
    for (size_t i = 0; i < fx.sits.size(); ++i) {
      BaseStatsCache stats;
      SitBuildOptions boptions;  // same defaults as ScheduleExecutionOptions
      boptions.variant = variant;
      Sit alone =
          CreateSit(&fx.catalog, &stats, fx.sits[i], boptions).ValueOrDie();
      EXPECT_EQ(batched[i], SerializeSit(alone))
          << fx.sits[i].ToString() << " " << SweepVariantToString(variant);
    }
  }
}

TEST(ParallelExecutorTest, ExecutorHonoursContainmentMode) {
  // The executor builds with the caller's SitBuildOptions, containment
  // mode included: a kPaperRaw schedule matches kPaperRaw solo builds.
  // Coarse base histograms misalign the oracle buckets, so the mode
  // matters on this fixture.
  Fixture fx = MakeSharedScanFixture();
  HistogramSpec coarse;
  coarse.num_buckets = 7;
  ScheduleExecutionOptions eoptions;
  eoptions.containment_mode = ContainmentMode::kPaperRaw;
  std::vector<std::string> batched = ExecuteAndSerialize(
      &fx, SolverKind::kOptimal, 2, nullptr, eoptions, coarse);
  ASSERT_EQ(batched.size(), fx.sits.size());
  for (size_t i = 0; i < fx.sits.size(); ++i) {
    BaseStatsCache stats(coarse);
    Sit alone =
        CreateSit(&fx.catalog, &stats, fx.sits[i], eoptions).ValueOrDie();
    EXPECT_EQ(batched[i], SerializeSit(alone)) << fx.sits[i].ToString();
  }
  BaseStatsCache stats(coarse);
  Sit normalized =
      CreateSit(&fx.catalog, &stats, fx.sits[0], SitBuildOptions{})
          .ValueOrDie();
  EXPECT_NE(batched[0], SerializeSit(normalized));
}

TEST(ParallelExecutorTest, ChainSitBytesArePinned) {
  // FNV-1a of the serialized chain SIT T.a | R ⋈ S ⋈ T per Sweep variant
  // (kSweepVariants order). Any change to the build path that moves a
  // single random draw or floating-point operation shows up here.
  const uint64_t kPinned[] = {0x947c5346a3a87184ull, 0x7fef7ef28821eb86ull,
                              0xbfe68ab53d6e83b3ull, 0x88b0ca69d1588edbull};
  Fixture fx = MakeSharedScanFixture();
  for (size_t v = 0; v < std::size(kSweepVariants); ++v) {
    BaseStatsCache stats;
    SitBuildOptions options;
    options.variant = kSweepVariants[v];
    Sit sit =
        CreateSit(&fx.catalog, &stats, fx.sits[0], options).ValueOrDie();
    uint64_t hash = HashString64(SerializeSit(sit));
    EXPECT_EQ(hash, kPinned[v]) << SweepVariantToString(kSweepVariants[v])
                                << " hash 0x" << std::hex << hash;
  }
}

TEST(ParallelExecutorTest, ParallelErrorsPropagate) {
  // A failing step must surface its Status (not hang or crash) even when
  // other steps run concurrently. Sampling with no histogram buckets is
  // invalid and fails inside the step.
  Fixture fx = MakeIndependentChains(4, 200);
  SitProblemOptions poptions;
  SitSchedulingProblem mapping =
      BuildSitSchedulingProblem(fx.catalog, fx.sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kGreedy;
  SolverResult solved =
      SolveSchedule(mapping.problem, soptions).ValueOrDie();
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.num_threads = 8;
  eoptions.histogram_spec.num_buckets = 0;
  Result<ScheduleExecutionResult> result = ExecuteSitSchedule(
      &fx.catalog, &stats, fx.sits, mapping, solved.schedule, eoptions);
  EXPECT_FALSE(result.ok());
}

TEST(ParallelExecutorTest, MoreWorkersThanStepsMatchesSerial) {
  // One 3-table chain is a 2-step schedule; 8 threads start 2 workers.
  Fixture fx = MakeIndependentChains(1, 400);
  size_t steps = 0;
  std::vector<std::string> serial =
      ExecuteAndSerialize(&fx, SolverKind::kGreedy, 1, &steps);
  ASSERT_EQ(steps, 2u);
  EXPECT_EQ(ExecuteAndSerialize(&fx, SolverKind::kGreedy, 8), serial);
}

TEST(ParallelExecutorTest, BaseTableOnlyBatchMatchesSerial) {
  // Base-table SITs scan nothing, so the schedule has zero steps and every
  // SIT finishes straight from its base histogram.
  Fixture fx = MakeIndependentChains(2, 300);
  fx.sits.clear();
  for (const char* table : {"C0T1", "C1T3"}) {
    fx.sits.emplace_back(ColumnRef{table, "a"},
                         GeneratingQuery::BaseTable(table));
  }
  size_t steps = 1;
  std::vector<std::string> serial =
      ExecuteAndSerialize(&fx, SolverKind::kGreedy, 1, &steps);
  ASSERT_EQ(steps, 0u);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(ExecuteAndSerialize(&fx, SolverKind::kGreedy, 4), serial);
}

TEST(ParallelExecutorTest, FailedStepReleasesNoDependent) {
  // Four 2-step chains: every first step has a dependent (its chain's
  // second scan). Fail the first step a worker runs; the injected status
  // comes back, and every step that ran (it has an execute_step span; the
  // failed step fails before opening one) found all its predecessors run
  // too, so no dependent of the failed step ran.
  Fixture fx = MakeIndependentChains(4, 300);
  SitSchedulingProblem mapping =
      BuildSitSchedulingProblem(fx.catalog, fx.sits, SitProblemOptions{})
          .ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kGreedy;
  const Schedule schedule =
      SolveSchedule(mapping.problem, soptions).ValueOrDie().schedule;
  ASSERT_EQ(schedule.steps.size(), 8u);
  // Step j's predecessors: the previous step advancing each of its SITs.
  std::vector<std::vector<size_t>> predecessors(schedule.steps.size());
  std::vector<int> last_step(mapping.problem.num_sequences(), -1);
  for (size_t j = 0; j < schedule.steps.size(); ++j) {
    for (size_t seq : schedule.steps[j].advanced) {
      if (last_step[seq] >= 0) {
        predecessors[j].push_back(static_cast<size_t>(last_step[seq]));
      }
      last_step[seq] = static_cast<int>(j);
    }
  }

  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  FaultInjector::Global().Arm("scheduler.step", 1,
                              Status::Internal("injected step failure"));
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.num_threads = 8;
  Result<ScheduleExecutionResult> result = ExecuteSitSchedule(
      &fx.catalog, &stats, fx.sits, mapping, schedule, eoptions);
  const uint64_t injected = FaultInjector::Global().faults_injected();
  FaultInjector::Global().Disarm();
  tracer.SetEnabled(false);
  std::set<size_t> ran;
  for (const telemetry::TraceEvent& event : tracer.Snapshot()) {
    if (event.name != "scheduler.execute_step") continue;
    for (const auto& [key, value] : event.args) {
      if (key == "step") ran.insert(static_cast<size_t>(std::stod(value)));
    }
  }
  tracer.Clear();

  ASSERT_EQ(injected, 1u);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("injected step failure"),
            std::string::npos);
  EXPECT_LT(ran.size(), schedule.steps.size());
  for (size_t step : ran) {
    for (size_t pred : predecessors[step]) {
      EXPECT_TRUE(ran.count(pred) > 0)
          << "step " << step << " ran without its predecessor " << pred;
    }
  }
}

TEST(ParallelExecutorTest, EnvironmentVariableSelectsThreads) {
  ASSERT_EQ(setenv("SITSTATS_THREADS", "4", /*overwrite=*/1), 0);
  Fixture fx = MakeIndependentChains(2, 300);
  std::vector<std::string> from_env =
      ExecuteAndSerialize(&fx, SolverKind::kGreedy, /*threads=*/0);
  ASSERT_EQ(unsetenv("SITSTATS_THREADS"), 0);
  Fixture fx1 = MakeIndependentChains(2, 300);
  std::vector<std::string> serial =
      ExecuteAndSerialize(&fx1, SolverKind::kGreedy, /*threads=*/1);
  EXPECT_EQ(from_env, serial);
}

}  // namespace
}  // namespace sitstats
