#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include "datagen/tpch_lite.h"
#include "storage/scan.h"
#include "testing/fault_sweep.h"

namespace sitstats {
namespace {

/// A fallible function with one site, for exercising the injector alone.
Status FallibleOperation() {
  SITSTATS_FAULT_SITE("test.operation");
  return Status::OK();
}

/// Disarms on scope exit so one failed test cannot poison the next.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::Global().Disarm(); }
};

TEST(FaultInjectorTest, IdleSitesAreNoOps) {
  InjectorGuard guard;
  FaultInjector::Global().Disarm();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(FallibleOperation().ok());
  }
}

TEST(FaultInjectorTest, CountingTalliesHits) {
  InjectorGuard guard;
  FaultInjector::Global().StartCounting();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(FallibleOperation().ok());  // counting never fails
  }
  FaultInjector::SiteCounts counts = FaultInjector::Global().StopCounting();
  EXPECT_EQ(counts["test.operation"], 5u);
  // Counting stopped: back to no-ops, nothing tallied.
  EXPECT_TRUE(FallibleOperation().ok());
  EXPECT_TRUE(FaultInjector::Global().StopCounting().empty());
}

TEST(FaultInjectorTest, ArmedSiteFailsAtExactlyTheOrdinal) {
  InjectorGuard guard;
  FaultInjector::Global().Arm("test.operation", 3,
                              Status::IOError("injected"));
  EXPECT_TRUE(FallibleOperation().ok());
  EXPECT_TRUE(FallibleOperation().ok());
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 0u);
  Status third = FallibleOperation();
  EXPECT_EQ(third.code(), StatusCode::kIOError);
  EXPECT_EQ(third.message(), "injected");
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);
  // Fires at most once: subsequent hits succeed again.
  EXPECT_TRUE(FallibleOperation().ok());
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);
}

TEST(FaultInjectorTest, OtherSitesAreUnaffectedWhileArmed) {
  InjectorGuard guard;
  FaultInjector::Global().Arm("some.other.site", 1,
                              Status::IOError("injected"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(FallibleOperation().ok());
  }
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 0u);
}

TEST(FaultInjectorTest, InjectsIntoARealLibrarySite) {
  InjectorGuard guard;
  TpchLiteSpec spec;
  spec.num_customers = 20;
  spec.num_orders = 40;
  std::unique_ptr<Catalog> catalog =
      MakeTpchLiteDatabase(spec).ValueOrDie();
  FaultInjector::Global().Arm("storage.scan.open", 1,
                              Status::IOError("scan failed (injected)"));
  auto scan = SequentialScan::Open(catalog.get(), "orders", {"o_orderkey"});
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().message(), "scan failed (injected)");
  FaultInjector::Global().Disarm();
  EXPECT_TRUE(
      SequentialScan::Open(catalog.get(), "orders", {"o_orderkey"}).ok());
  EXPECT_TRUE(catalog->ValidateConsistency().ok());
}

/// The real sweep, serial, with the default stratified ordinal sampling.
/// The harness itself asserts error propagation, catalog consistency, and
/// no-partial-SIT after every injection; the test asserts breadth
/// (distinct sites across all layers, now including serialization,
/// telemetry export, and the server's accept/read/dispatch/write paths).
TEST(FaultSweepTest, SerialSweepCoversAllLayersCleanly) {
  InjectorGuard guard;
  FaultSweepOptions options;
  options.num_threads = 1;
  Result<FaultSweepReport> report = RunFaultSweep(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->sites.size(), 20u);
  EXPECT_GT(report->total_injections, report->sites.size());
  auto has_prefix = [&](const std::string& prefix) {
    for (const FaultSweepSiteResult& site : report->sites) {
      if (site.site.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix("storage."));
  EXPECT_TRUE(has_prefix("sampling."));
  EXPECT_TRUE(has_prefix("histogram."));
  EXPECT_TRUE(has_prefix("sit."));
  EXPECT_TRUE(has_prefix("scheduler."));
  EXPECT_TRUE(has_prefix("sit.serialize."));
  EXPECT_TRUE(has_prefix("telemetry."));
  EXPECT_TRUE(has_prefix("server."));
}

/// Stratified sampling always covers a site's first and last observed
/// ordinals: boundary hits catch setup/teardown bugs that midpoints miss.
TEST(FaultSweepTest, StratifiedSamplingKeepsBoundaryOrdinals) {
  InjectorGuard guard;
  FaultSweepOptions options;
  options.ordinal_strata = 2;  // extreme sampling: endpoints only
  Result<FaultSweepReport> report = RunFaultSweep(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const FaultSweepSiteResult& site : report->sites) {
    // Endpoints collapse for single-hit sites, otherwise 2 injections.
    EXPECT_EQ(site.injections, site.hits == 1 ? 1u : 2u)
        << site.site << " hits=" << site.hits;
  }
}

/// Same sweep under 8 executor threads: the parallel scheduler must
/// propagate the injected step failure without leaving a worker waiting.
/// Stratified ordinals bound runtime; per-site totals are stable under
/// threading even though interleaving is not.
TEST(FaultSweepTest, ThreadedSweepTerminatesAndPropagates) {
  InjectorGuard guard;
  FaultSweepOptions options;
  options.num_threads = 8;
  options.ordinal_strata = 2;
  Result<FaultSweepReport> report = RunFaultSweep(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->sites.size(), 20u);
}

}  // namespace
}  // namespace sitstats
