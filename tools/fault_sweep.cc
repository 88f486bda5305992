// fault_sweep — deterministic error-path sweep driver.
//
//   fault_sweep [--threads N] [--strata N] [--exhaustive] [--min-sites N]
//               [--verbose]
//
// Enumerates every fault-injection site reachable from a small TPC-H-lite
// workload (one counting pass), then re-runs the workload once per
// selected site x ordinal with that hit armed to fail, proving each
// injected failure surfaces as a clean error: correct Status propagated,
// no crash, no hang, catalogs still consistent, no partial SIT or index
// registered, and the sitstats-server stage outlives its injected faults.
//
//   --threads N   schedule-execution worker threads, 0 to 256 (default 1;
//                 0 defers to $SITSTATS_THREADS; the CI fault-sweep job
//                 also runs with 8)
//   --strata N    stratified ordinals swept per high-hit site (default 5;
//                 always includes each site's first and last hit)
//   --exhaustive  sweep every observed ordinal of every site instead of
//                 sampling (slow: re-runs the workload per ordinal)
//   --min-sites N fail unless at least N distinct sites were reached
//                 (default 20)
//   --verbose     print every armed injection as it runs
//
// Exits 0 when the sweep is complete and every invariant held.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/string_util.h"
#include "scheduler/executor.h"
#include "testing/fault_sweep.h"

namespace sitstats {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "fault_sweep: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  FaultSweepOptions options;
  int64_t min_sites = 20;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto int_flag = [&](int64_t* out) -> Status {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag " + arg + " needs a value");
      }
      SITSTATS_ASSIGN_OR_RETURN(*out, ParseInt64(argv[++i]));
      return Status::OK();
    };
    Status parsed = Status::OK();
    int64_t value = 0;
    if (arg == "--threads") {
      parsed = int_flag(&value);
      if (parsed.ok() &&
          (value < 0 || value > static_cast<int64_t>(kMaxThreads))) {
        return Fail("--threads must be in [0, " +
                    std::to_string(kMaxThreads) + "]");
      }
      options.num_threads = static_cast<int>(value);
    } else if (arg == "--strata") {
      parsed = int_flag(&value);
      options.ordinal_strata = static_cast<uint64_t>(value);
    } else if (arg == "--exhaustive") {
      options.exhaustive = true;
    } else if (arg == "--min-sites") {
      parsed = int_flag(&min_sites);
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      return Fail("unknown flag " + arg);
    }
    if (!parsed.ok()) return Fail(parsed.ToString());
  }
  if (verbose) {
    options.progress = [](const std::string& message) {
      std::fprintf(stderr, "  %s\n", message.c_str());
    };
  }

  Result<FaultSweepReport> report = RunFaultSweep(options);
  if (!report.ok()) return Fail(report.status().ToString());

  std::printf("%-36s %6s %10s\n", "site", "hits", "injections");
  for (const FaultSweepSiteResult& site : report->sites) {
    std::printf("%-36s %6llu %10llu\n", site.site.c_str(),
                static_cast<unsigned long long>(site.hits),
                static_cast<unsigned long long>(site.injections));
  }
  std::printf("%zu distinct sites, %llu injections, %d thread(s)\n",
              report->sites.size(),
              static_cast<unsigned long long>(report->total_injections),
              options.num_threads);
  if (report->sites.size() < static_cast<size_t>(min_sites)) {
    return Fail("only " + std::to_string(report->sites.size()) +
                " sites reached (expected >= " + std::to_string(min_sites) +
                ")");
  }
  return 0;
}

}  // namespace
}  // namespace sitstats

int main(int argc, char** argv) { return sitstats::Main(argc, argv); }
