// Shared declarations of the perfbench runner: workload definitions, the
// timed end-to-end phases, and the traced layer-by-layer run.

#ifndef SITSTATS_PERFBENCH_PERFBENCH_H_
#define SITSTATS_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/server.h"
#include "sit/sit.h"
#include "storage/catalog.h"

namespace perfbench {

using sitstats::Result;
using sitstats::Status;

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; sorts a copy.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// The five build variants, in the order every report lists them, and
/// their metric-name suffixes (Hist-SIT drops the dash).
extern const std::vector<sitstats::SweepVariant> kVariants;
std::string VariantKey(sitstats::SweepVariant variant);

/// Operation bookkeeping behind `attempted` / `failed`: every build,
/// schedule, request and output check is one operation.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Records one operation; a failure is logged to stderr (first few).
  void Record(const Status& status, const std::string& what);
  void Check(bool ok, const std::string& what) {
    Record(ok ? Status::OK() : Status::Internal("check failed"), what);
  }
};

/// One workload: its data, and the SITs / requests each phase uses. Every
/// workload runs the same three phases (single-SIT builds, a shared-scan
/// schedule, mixed serving) on its own data; the shares say how the
/// measured seconds split between them.
struct WorkloadSpec {
  std::string name;
  std::function<Result<std::unique_ptr<sitstats::Catalog>>(uint64_t seed)>
      make_catalog;
  /// SIT built once per variant per build-phase iteration.
  std::string build_target;
  /// Batch scheduled and executed by the schedule phase.
  std::vector<std::string> schedule_batch;
  int schedule_threads = 2;
  /// Serve phase: ESTIMATE specs built in warm-up (SIT-backed), the spec
  /// left without a SIT (propagation path), and the BUILD cycle.
  std::vector<std::string> sit_estimate_specs;
  std::string propagate_estimate_spec;
  std::vector<std::string> build_cycle;
  double build_share = 1.0 / 3;
  double schedule_share = 1.0 / 3;
  double serve_share = 1.0 / 3;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Fixed knobs recorded with every result.
inline constexpr int kEstimateConnections = 2;
inline constexpr int kBuildConnections = 1;
inline constexpr int kServerEstimateThreads = 1;
inline constexpr int kServerBuildThreads = 1;
inline constexpr uint64_t kBuildSeed = 42;
/// The solver may put at most this many sequences on one scan of the
/// largest table: tight enough that a batch with three SITs sharing a
/// table must split one shared scan.
inline constexpr double kScheduleMemorySequences = 2.0;

/// The generated data and the long-lived server of one run.
struct Fixture {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::string data_dir;     // colfiles
  std::string socket_path;  // relative to the working directory
  std::unique_ptr<sitstats::SitStatsServer> server;
  /// Range domain [lo, hi] of every ESTIMATE spec's attribute.
  std::map<std::string, std::pair<double, double>> domains;
};

/// Generates the data, saves it as colfiles, starts the server and warms
/// it up (builds the SIT-backed ESTIMATE specs). Replaces any server the
/// fixture already holds.
Status SetUp(Fixture* fixture);

/// Results of the timed phases.
struct BuildPhase {
  std::map<sitstats::SweepVariant, std::vector<double>> ms;
  /// SITs of the first iteration, for the q-error and exactness checks.
  std::map<sitstats::SweepVariant, sitstats::Sit> first;
};
struct SchedulePhase {
  std::vector<double> ms;
  std::vector<sitstats::Sit> first;  // SITs of the first execution
};
struct ServePhase {
  /// ESTIMATE p50, p99 and throughput of each serve slice. The reported
  /// figures are their medians, so one slice that lost its CPUs to a
  /// neighbour on a shared host cannot move them.
  std::vector<double> slice_p50_ms;
  std::vector<double> slice_p99_ms;
  std::vector<double> slice_rps;
  std::vector<double> estimate_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  /// BUILD latencies per spec of the build cycle.
  std::map<std::string, std::vector<double>> build_ms;
  double seconds = 0.0;
  uint64_t rejected = 0;
  double queue_wait_ms = 0.0;  // mean estimate queue wait (METRICS delta)
};
struct Phases {
  BuildPhase build;
  SchedulePhase schedule;
  ServePhase serve;
  /// The units run, in order: phase ('b'uild, 's'chedule, ser'v'e), wall
  /// time and stolen CPU ticks.
  struct Unit {
    char phase;
    double ms;
    double steal_ticks;
  };
  std::vector<Unit> units;
};

/// Serve time is measured in slices of this length.
inline constexpr double kServeSliceS = 1.0;

/// Runs the three phases interleaved for `budget_s` seconds, split by the
/// workload's shares; serving stops early once it has had `max_serve_s`.
Phases RunPhases(const Fixture& fixture, double budget_s, double max_serve_s,
                 Tally* tally);

/// BUILD latency median: the median over the build cycle's specs of each
/// spec's median, so it cannot flip between specs of different cost when
/// a run ends mid-cycle.
double BuildRequestP50(const ServePhase& serve);

/// Output checks that need more than the phase itself saw.
void CheckBuildOutputs(const Fixture& fixture, const BuildPhase& phase,
                       Tally* tally);
void CheckScheduleOutputs(const Fixture& fixture, const SchedulePhase& phase,
                          Tally* tally);

/// p90 q-error of Sweep, SweepIndex and SweepFull against SweepExact over
/// a seeded set of range queries.
double QErrorP90(const BuildPhase& phase, uint64_t seed);

Result<std::vector<sitstats::SitDescriptor>> ParseSpecs(
    const std::vector<std::string>& specs);
/// The schedule phase's solver memory limit for `batch` on `catalog`.
double ScheduleMemoryLimit(const sitstats::Catalog& catalog,
                           const std::vector<sitstats::SitDescriptor>& batch);
/// The ranges the serve phase repeats for `spec` (cache hits).
std::vector<std::pair<double, double>> RepeatRanges(const Fixture& fixture,
                                                    const std::string& spec);

/// A metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The end-to-end metrics of the three phases.
void AddEndToEndMetrics(const Fixture& fixture, const Phases& phases,
                        Metrics* out);

/// Peak RSS of this process in MB (VmHWM) since start or the last
/// ResetPeakRss(), which lowers the high-water mark to the current RSS so
/// peak_rss_mb covers the timed phases and not set-up.
double PeakRssMb();
bool ResetPeakRss();

/// The traced run: per-layer metrics with self times, tracing overhead,
/// and the layer reconciliation. Writes the Chrome trace to `trace_path`.
Metrics RunTraced(Fixture* fixture, double seconds,
                  const std::string& trace_path, Tally* tally);

}  // namespace perfbench

#endif  // SITSTATS_PERFBENCH_PERFBENCH_H_
