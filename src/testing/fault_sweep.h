#ifndef SITSTATS_TESTING_FAULT_SWEEP_H_
#define SITSTATS_TESTING_FAULT_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "datagen/tpch_lite.h"

namespace sitstats {

/// One enumerated injection site with its sweep outcome.
struct FaultSweepSiteResult {
  std::string site;
  uint64_t hits = 0;        // hits observed in the counting run
  uint64_t injections = 0;  // armed runs executed against this site
};

struct FaultSweepReport {
  std::vector<FaultSweepSiteResult> sites;
  uint64_t total_injections = 0;
};

struct FaultSweepOptions {
  FaultSweepOptions() {
    // Deliberately tiny workload: every fault site should be hit only a
    // handful of times so the site x ordinal enumeration stays in the
    // low hundreds of runs.
    spec.num_nations = 8;
    spec.num_customers = 60;
    spec.num_orders = 200;
    spec.avg_lineitems_per_order = 3;
    spec.seed = 7;
  }

  TpchLiteSpec spec;
  /// Worker threads for the schedule-execution stage (1 = serial).
  int num_threads = 1;
  /// Sweep every observed ordinal of every site. Off by default: sites
  /// inside row loops accumulate hundreds of equivalent hits, and the
  /// sweep re-runs the whole workload per armed ordinal.
  bool exhaustive = false;
  /// When not exhaustive, a site with more hits than this is sampled at
  /// this many stratified ordinals — evenly spaced across [1, hits],
  /// always including both the first and the last hit (the boundary
  /// ordinals catch setup- and teardown-path bugs that midpoints miss).
  /// Clamped to >= 2; sites at or below the threshold sweep every hit.
  uint64_t ordinal_strata = 5;
  /// Scratch directory root for the CSV round-trip, serialization,
  /// telemetry-export, and server-socket stages.
  std::string temp_root = "/tmp";
  /// Optional per-injection progress sink (the CLI driver prints these).
  std::function<void(const std::string&)> progress;
};

/// Runs the full fault sweep over a TPC-H-lite workload that exercises
/// every fallible layer: CLI argument parsing (the shared CliFlags), CSV
/// save/load round trip, base statistics, every Sweep variant over a
/// 3-table chain, a shared-scan schedule execution, a SIT-catalog
/// serialization round trip, telemetry export, and a sitstats-server
/// session (client connect / send / recv plus server accept / read /
/// dispatch / write) driven over a local socket, including the ACCURACY
/// feedback and METRICS scrape verbs.
///
/// Sites under the "oom." prefix (sample vectors, histogram staging
/// buffers, cache inserts) sweep in allocation-failure mode: armed via
/// FaultInjector::ArmAllocationFailure, with the additional assertion
/// that the surfaced status code is still kResourceExhausted at the top —
/// an OOM must reach callers as the retryable code, not be rewrapped.
///
/// One counting pass enumerates the reachable sites, then one armed pass
/// runs per selected site x ordinal (stratified unless
/// options.exhaustive), asserting after each that
///   (a) exactly the injected error surfaced (not swallowed, not wrapped
///       into success, fired exactly once) — server transport faults
///       surface through SitStatsServer::TakeTransportErrors, every
///       recorded error scanned so close races cannot hide the marker,
///   (b) every catalog the run produced still passes ValidateConsistency
///       and the run's SitCatalog passes its own ValidateConsistency hook
///       (no partial SIT or index survives),
///   (c) the server outlived the injected fault (its catalog validates
///       and it stops cleanly), and
///   (d) nothing hung — the workload returning at all proves the
///       schedule executor's workers and the server's queues
///       terminated.
/// Returns the per-site report, or the first violation as a Status.
Result<FaultSweepReport> RunFaultSweep(const FaultSweepOptions& options);

}  // namespace sitstats

#endif  // SITSTATS_TESTING_FAULT_SWEEP_H_
