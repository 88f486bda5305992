#include "common/cancellation.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "datagen/synthetic_db.h"
#include "scheduler/executor.h"
#include "scheduler/solver.h"
#include "sit/creator.h"

namespace sitstats {
namespace {

using std::chrono::hours;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(CancellationTokenTest, DefaultTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.CheckCancelled("anything").ok());
  // A sourceless token sleeps the full timeout and reports no wake.
  EXPECT_FALSE(token.WaitForCancellation(milliseconds(1)));
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
  // The child held the parent, never the other way round: cancelling the
  // parent after the child died touches no freed state (ASan would catch
  // it).
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

TEST(CancellationDeadlineTest, TokenFlipsAtItsDeadlineWithoutCancel) {
  // Deadlines far enough out that a loaded machine (sanitizers, a
  // parallel ctest) still sees the token live before them.
  CancellationSource source(CancellationToken(),
                            steady_clock::now() + milliseconds(300));
  CancellationToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.CheckCancelled("scan").ok());
  std::this_thread::sleep_for(milliseconds(350));
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancelled());
}

TEST(CancellationDeadlineTest, CheckNamesDeadlineExceededOrCancelled) {
  const steady_clock::time_point past = steady_clock::now() - milliseconds(1);
  const steady_clock::time_point future = steady_clock::now() + hours(1);

  // The deadline passed, no Cancel(): DeadlineExceeded, naming the work.
  CancellationSource expired(CancellationToken(), past);
  Status status = expired.token().CheckCancelled("sweep scan");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("sweep scan"), std::string::npos);

  // Cancelled, and the deadline passed too: the deadline wins.
  expired.Cancel();
  EXPECT_EQ(expired.token().CheckCancelled("scan").code(),
            StatusCode::kDeadlineExceeded);

  // Cancelled before a deadline that has not passed: Cancelled.
  CancellationSource pending(CancellationToken(), future);
  pending.Cancel();
  EXPECT_EQ(pending.token().CheckCancelled("scan").code(),
            StatusCode::kCancelled);

  // Cancelled with no deadline at all: Cancelled.
  CancellationSource untimed;
  untimed.Cancel();
  EXPECT_EQ(untimed.token().CheckCancelled("scan").code(),
            StatusCode::kCancelled);
}

TEST(CancellationDeadlineTest, WaitReturnsAtTheDeadline) {
  CancellationSource source(CancellationToken(),
                            steady_clock::now() + milliseconds(50));
  const steady_clock::time_point start = steady_clock::now();
  // Far-larger timeout: returning early proves the wait honours the
  // deadline, and it reports the token cancelled.
  EXPECT_TRUE(source.token().WaitForCancellation(milliseconds(60'000)));
  const steady_clock::duration waited = steady_clock::now() - start;
  EXPECT_GE(waited, milliseconds(40));
  EXPECT_LT(waited, milliseconds(5'000));
}

TEST(CancellationDeadlineTest, LinkedChildInheritsParentDeadline) {
  CancellationSource parent(CancellationToken(),
                            steady_clock::now() + milliseconds(300));
  CancellationSource child(parent.token());
  // A later deadline of the child's own does not postpone the parent's.
  CancellationSource late_child(parent.token(), steady_clock::now() + hours(1));
  // An earlier one of the child's own does not reach the parent.
  CancellationSource early_child(parent.token(),
                                 steady_clock::now() - milliseconds(1));
  EXPECT_TRUE(early_child.cancelled());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_FALSE(child.cancelled());
  std::this_thread::sleep_for(milliseconds(350));
  EXPECT_EQ(child.token().CheckCancelled("scan").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late_child.token().CheckCancelled("scan").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(CancellationDeadlineTest, ParentCancelWakesWaiterOnLinkedChild) {
  CancellationSource parent;
  CancellationSource child(parent.token(), steady_clock::now() + hours(1));
  const steady_clock::time_point start = steady_clock::now();
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(20));
    parent.Cancel();
  });
  EXPECT_TRUE(child.token().WaitForCancellation(milliseconds(60'000)));
  EXPECT_LT(steady_clock::now() - start, milliseconds(5'000));
  EXPECT_EQ(child.token().CheckCancelled("sleep").code(),
            StatusCode::kCancelled);
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

/// A one-SIT schedule over `db`, solved optimally.
struct OneSitSchedule {
  std::vector<SitDescriptor> sits;
  SitSchedulingProblem problem;
  SolverResult solved;
};

OneSitSchedule ScheduleOneSit(const ChainDatabase& db) {
  OneSitSchedule out;
  out.sits.emplace_back(db.sit_attribute, db.query);
  out.problem =
      BuildSitSchedulingProblem(*db.catalog, out.sits, SitProblemOptions())
          .ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kOptimal;
  out.solved = SolveSchedule(out.problem.problem, soptions).ValueOrDie();
  return out;
}

/// A deadline that passed before the build started fails it at the first
/// poll, with DeadlineExceeded rather than Cancelled, through the
/// executor's linked abort source and through a single CreateSit alike.
TEST(ExecutorCancellationTest, ExpiredDeadlineReportsDeadlineExceeded) {
  ChainDatabase db = MakeDb(/*rows=*/2'000, /*seed=*/7);
  OneSitSchedule schedule = ScheduleOneSit(db);
  CancellationSource source(CancellationToken(),
                            steady_clock::now() - milliseconds(1));

  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.cancel = source.token();
  Result<ScheduleExecutionResult> executed =
      ExecuteSitSchedule(db.catalog.get(), &stats, schedule.sits,
                         schedule.problem, schedule.solved.schedule, eoptions);
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kDeadlineExceeded);

  SitBuildOptions boptions;
  boptions.cancel = source.token();
  Result<Sit> built =
      CreateSit(db.catalog.get(), &stats, schedule.sits[0], boptions);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kDeadlineExceeded);
}

/// A deadline that passes mid-scan, with no thread to cancel anything:
/// the scan's own batch polls end the run, which either finished first
/// or reports DeadlineExceeded, and never hangs.
TEST(ExecutorCancellationTest, MidScanDeadlineEndsTheRun) {
  ChainDatabase db = MakeDb(/*rows=*/200'000, /*seed=*/6);
  OneSitSchedule schedule = ScheduleOneSit(db);
  BaseStatsCache stats;
  ScheduleExecutionOptions eoptions;
  eoptions.variant = SweepVariant::kSweepExact;  // full scans, no sampling
  CancellationSource source(CancellationToken(),
                            steady_clock::now() + milliseconds(10));
  eoptions.cancel = source.token();
  Result<ScheduleExecutionResult> result =
      ExecuteSitSchedule(db.catalog.get(), &stats, schedule.sits,
                         schedule.problem, schedule.solved.schedule, eoptions);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  } else {
    EXPECT_EQ(result->sits.size(), 1u);
  }
}

}  // namespace
}  // namespace sitstats
