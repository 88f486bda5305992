// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload chain_build|schedule_batch|serve_mixed --seed N
//             --seconds S --trace 0|1 [--data-dir D] [--trace-out F]
//
// With --trace 0 it sets up the workload five times (setup_s is the
// median), runs the three timed phases, checks the outputs and prints
// every end-to-end metric. With --trace 1 it prints the per-layer metrics
// of the traced run instead (see layers.cc). Human-readable lines come
// first; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// perfbench/run.py builds this binary and is the documented entry point.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "data";
  std::string trace_out = "trace.json";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The reproducibility record: one "# env" line before the result.
void PrintEnvironment(const Args& args, const WorkloadSpec& spec) {
#ifdef SITSTATS_FAULT_INJECTION_ENABLED
  const bool fault_injection = true;
#else
  const bool fault_injection = false;
#endif
  std::printf(
      "# env {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"fault_injection\": %s, \"estimate_connections\": %d, "
      "\"build_connections\": %d, \"server_estimate_threads\": %d, "
      "\"server_build_threads\": %d, \"schedule_threads\": %d}\n",
      JsonString(spec.name).c_str(), static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), JsonString(__VERSION__).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      fault_injection ? "true" : "false", kEstimateConnections,
      kBuildConnections, kServerEstimateThreads, kServerBuildThreads,
      spec.schedule_threads);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir D] [--trace-out F]\n"
                 "workloads:%s\n",
                 names.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  PrintEnvironment(args, spec);
  std::fflush(stdout);

  Fixture fixture;
  fixture.spec = &spec;
  fixture.seed = args.seed;
  fixture.data_dir = args.data_dir;
  fixture.socket_path = "perfbench.sock";

  Tally tally;
  Metrics metrics;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    const double start = NowMs();
    Status status = SetUp(&fixture);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    setup_s.push_back((NowMs() - start) / 1e3);
  }
  // Flush the freshly written colfiles now, so background writeback does
  // not land inside the timed phases.
  ::sync();
  // peak_rss_mb covers the timed phases only: set-up's own peak is
  // printed beside it but must not hide what the phases allocate.
  const double setup_peak_mb = PeakRssMb();
  tally.Check(ResetPeakRss(), "reset peak RSS after set-up");

  if (args.trace) {
    metrics = RunTraced(&fixture, args.seconds, args.trace_out, &tally);
  } else {
    const Phases phases = RunPhases(fixture, args.seconds, INFINITY, &tally);
    CheckBuildOutputs(fixture, phases.build, &tally);
    CheckScheduleOutputs(fixture, phases.schedule, &tally);
    AddEndToEndMetrics(fixture, phases, &metrics);
    metrics["setup_s"] = {Median(setup_s), "s"};
    size_t build_requests = 0;
    for (const auto& [name, ms] : phases.serve.build_ms) {
      build_requests += ms.size();
    }
    std::printf("samples: builds/variant %zu, schedules %zu, estimates %zu "
                "(hits %zu), BUILD requests %zu\n",
                phases.build.ms.empty()
                    ? 0
                    : phases.build.ms.begin()->second.size(),
                phases.schedule.ms.size(), phases.serve.estimate_ms.size(),
                phases.serve.hit_ms.size(), build_requests);
    for (const auto& [variant, ms] : phases.build.ms) {
      std::printf("samples build_ms.%s:", VariantKey(variant).c_str());
      for (double value : ms) std::printf(" %.1f", value);
      std::printf("\n");
    }
    std::printf("units:");
    for (const Phases::Unit& unit : phases.units) {
      std::printf(" %c%.0f/%.0f", unit.phase, unit.ms, unit.steal_ticks);
    }
    std::printf("\n");
    std::printf("samples schedule_ms:");
    for (double value : phases.schedule.ms) std::printf(" %.1f", value);
    std::printf("\n");
  }
  fixture.server.reset();
  std::printf("peak RSS: set-up %.1f MB, after set-up %.1f MB\n",
              setup_peak_mb, PeakRssMb());

  for (auto& [name, metric] : metrics) {
    tally.Check(std::isfinite(metric.value), "finite " + name);
    if (!std::isfinite(metric.value)) metric.value = 0.0;
    std::printf("metric %-34s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                        static_cast<double>(tally.attempted)
                                  : 0.0,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, tally.attempted));
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
