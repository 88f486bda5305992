#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "datagen/synthetic_db.h"
#include "scheduler/executor.h"
#include "scheduler/solver.h"

namespace sitstats {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(CancellationTokenTest, DefaultTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.CheckCancelled("anything").ok());
  // A sourceless token sleeps the full timeout and reports no wake.
  EXPECT_FALSE(token.WaitForCancellation(milliseconds(1)));
  EXPECT_EQ(token.OnCancel([] {}), 0u);
}

TEST(CancellationTokenTest, CancelFlipsTokenAndCheck) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  Status status = token.CheckCancelled("sweep scan");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("sweep scan"), std::string::npos);
  // Idempotent.
  source.Cancel();
  EXPECT_TRUE(source.cancelled());
}

TEST(CancellationTokenTest, CopiedTokensShareState) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
}

TEST(CancellationTokenTest, OnCancelRunsOnceAndInlineWhenLate) {
  CancellationSource source;
  std::atomic<int> fired{0};
  source.token().OnCancel([&] { fired++; });
  EXPECT_EQ(fired.load(), 0);
  source.Cancel();
  EXPECT_EQ(fired.load(), 1);
  source.Cancel();  // no re-fire
  EXPECT_EQ(fired.load(), 1);
  // Registering on an already-cancelled token runs the callback inline.
  source.token().OnCancel([&] { fired++; });
  EXPECT_EQ(fired.load(), 2);
}

TEST(CancellationTokenTest, RemovedCallbackDoesNotFire) {
  CancellationSource source;
  std::atomic<int> fired{0};
  uint64_t id = source.token().OnCancel([&] { fired++; });
  source.token().RemoveCallback(id);
  source.Cancel();
  EXPECT_EQ(fired.load(), 0);
}

TEST(CancellationSourceTest, LinkedSourceFollowsParent) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
}

TEST(CancellationSourceTest, ChildCancelDoesNotPropagateUp) {
  CancellationSource parent;
  CancellationSource child(parent.token());
  child.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

TEST(CancellationSourceTest, DestroyedChildUnhooksFromParent) {
  CancellationSource parent;
  { CancellationSource child(parent.token()); }
  // Cancelling the parent after the child died must not touch freed state
  // (ASan would catch it).
  parent.Cancel();
  EXPECT_TRUE(parent.cancelled());
}

TEST(CancellationTokenTest, WaitForCancellationWakesPromptly) {
  CancellationSource source;
  CancellationToken token = source.token();
  steady_clock::time_point start = steady_clock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(20));
    source.Cancel();
  });
  // Far-larger timeout: a prompt wake proves signalling, not polling.
  EXPECT_TRUE(token.WaitForCancellation(milliseconds(10'000)));
  EXPECT_LT(steady_clock::now() - start, milliseconds(5'000));
  canceller.join();
}

ChainDatabase MakeDb(size_t rows, uint64_t seed) {
  ChainDbSpec spec;
  spec.num_tables = 2;
  spec.table_rows = {rows, rows};
  spec.seed = seed;
  return MakeChainJoinDatabase(spec).ValueOrDie();
}

/// End-to-end: the schedule executor must surface Cancelled when its
/// options token is cancelled before any step runs.
TEST(ExecutorCancellationTest, PreCancelledTokenAbortsExecution) {
  ChainDatabase db = MakeDb(/*rows=*/2'000, /*seed=*/5);
  std::vector<SitDescriptor> sits;
  sits.emplace_back(db.sit_attribute, db.query);

  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(*db.catalog, sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kOptimal;
  SolverResult solved = SolveSchedule(problem.problem, soptions).ValueOrDie();

  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  CancellationSource source;
  source.Cancel();
  eoptions.cancel = source.token();
  Result<ScheduleExecutionResult> result = ExecuteSitSchedule(
      db.catalog.get(), &stats, sits, problem, solved.schedule, eoptions);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

/// Cancelling mid-flight from another thread aborts a large execution far
/// sooner than it could finish, and the executor still returns (no
/// worker left waiting on the ready list), serial or threaded.
TEST(ExecutorCancellationTest, MidFlightCancelAbortsPromptly) {
  ChainDatabase db = MakeDb(/*rows=*/200'000, /*seed=*/6);
  std::vector<SitDescriptor> sits;
  sits.emplace_back(db.sit_attribute, db.query);

  SitProblemOptions poptions;
  SitSchedulingProblem problem =
      BuildSitSchedulingProblem(*db.catalog, sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kOptimal;
  SolverResult solved = SolveSchedule(problem.problem, soptions).ValueOrDie();

  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.variant = SweepVariant::kSweepExact;  // full scans, no sampling
  CancellationSource source;
  eoptions.cancel = source.token();
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(10));
    source.Cancel();
  });
  Result<ScheduleExecutionResult> result = ExecuteSitSchedule(
      db.catalog.get(), &stats, sits, problem, solved.schedule, eoptions);
  canceller.join();
  // Either the run was fast enough to win the race (fine) or it reports
  // Cancelled; it must never hang or return a partial success.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  } else {
    EXPECT_EQ(result->sits.size(), 1u);
  }
}

}  // namespace
}  // namespace sitstats
