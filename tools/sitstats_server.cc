// sitstats_server — serve cardinality estimates and SIT builds over a
// local Unix-domain socket (protocol: src/server/protocol.h):
//
//   sitstats_server DIR --socket PATH
//                   [--stats FILE]            preload a saved SIT catalog
//                   [--estimate-threads N]    1 to 256, default 2
//                   [--build-threads N]       1 to 256, default 2
//                   [--estimate-queue N]      default 64
//                   [--build-queue N]         default 4
//                   [--cache N]               estimate-cache entries, 256
//                   [--variant V] [--rate R] [--buckets N]   build defaults
//                   [--slo-ms MS]             latency SLO, default 100
//                   [--window-seconds S]      rolling-window width, 60
//                   [--slow-log FILE]         slow/inaccurate JSONL log
//                   [--qerror-threshold Q]    log q-errors above Q, 4
//                   [--ledger N]              ACCURACY feedback slots, 1024
//                   [--trace]                 enable span collection now
//                   [--trace-out FILE]        Chrome trace JSON on exit
//                   [--metrics-out FILE]      metrics JSON on exit
//
// DIR is a CSV catalog directory written by `sitstats_cli generate-*`.
// The process runs until a client sends SHUTDOWN or it receives
// SIGINT/SIGTERM. Drive it with `sitstats_cli query --socket PATH ...`
// or the SitStatsClient library. The exit-time exports are written only
// after Stop() has joined every worker and drained both queues, so the
// files are a complete account of the run — no in-flight request can
// bump a counter after its snapshot.

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <chrono>
#include <string>
#include <vector>

#include "common/cli_flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "server/server.h"
#include "sit/serialization.h"
#include "storage/table_io.h"
#include "telemetry/telemetry.h"

namespace sitstats {
namespace {

volatile std::sig_atomic_t g_signal_received = 0;

void HandleSignal(int /*signum*/) { g_signal_received = 1; }

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int FailStatus(const Status& status) { return Fail(status.ToString()); }

int Main(int argc, char** argv) {
  // Shared grammar (common/cli_flags.h): --key value / --key=value flags
  // plus exactly one positional DIR.
  CliParseOptions parse_options;
  parse_options.boolean_keys = {"trace"};
  parse_options.max_positional = 1;
  Result<CliFlags> flags = CliFlags::Parse(argc, argv, 1, parse_options);
  if (!flags.ok()) return FailStatus(flags.status());
  if (flags->positional().empty()) {
    return FailStatus(
        Status::InvalidArgument("missing catalog DIR argument"));
  }
  const std::string dir = flags->positional()[0];

  std::string socket_path = flags->Get("socket", "");
  if (socket_path.empty()) return Fail("--socket PATH is required");

  Result<std::unique_ptr<Catalog>> catalog = LoadCatalog(dir);
  if (!catalog.ok()) return FailStatus(catalog.status());

  ServerOptions options;
  options.socket_path = socket_path;
  auto bind_size = [&flags](const char* key, size_t* out) -> Status {
    SITSTATS_ASSIGN_OR_RETURN(int64_t value, flags->GetInt(key, -1));
    if (value == -1) return Status::OK();
    if (value <= 0) {
      return Status::InvalidArgument(std::string("--") + key +
                                     " must be positive");
    }
    *out = static_cast<size_t>(value);
    return Status::OK();
  };
  Status bound = [&]() -> Status {
    SITSTATS_RETURN_IF_ERROR(
        bind_size("estimate-threads", &options.estimate_threads));
    SITSTATS_RETURN_IF_ERROR(
        bind_size("build-threads", &options.build_threads));
    SITSTATS_RETURN_IF_ERROR(
        bind_size("estimate-queue", &options.estimate_queue_capacity));
    SITSTATS_RETURN_IF_ERROR(
        bind_size("build-queue", &options.build_queue_capacity));
    SITSTATS_RETURN_IF_ERROR(bind_size("cache", &options.cache_capacity));
    SITSTATS_ASSIGN_OR_RETURN(
        options.build_defaults.sampling_rate,
        flags->GetDouble("rate", options.build_defaults.sampling_rate));
    SITSTATS_ASSIGN_OR_RETURN(
        options.build_defaults.histogram_spec.num_buckets,
        ParseBucketCount(flags->Get(
            "buckets",
            std::to_string(options.build_defaults.histogram_spec.num_buckets))));
    std::string variant = flags->Get("variant", "");
    if (!variant.empty()) {
      SITSTATS_ASSIGN_OR_RETURN(options.build_defaults.variant,
                                SweepVariantFromString(variant));
    }
    SITSTATS_ASSIGN_OR_RETURN(options.slo_ms,
                              flags->GetDouble("slo-ms", options.slo_ms));
    if (options.slo_ms <= 0) {
      return Status::InvalidArgument("--slo-ms must be positive");
    }
    SITSTATS_RETURN_IF_ERROR(bind_size("ledger", &options.ledger_capacity));
    SITSTATS_ASSIGN_OR_RETURN(
        int64_t window_seconds,
        flags->GetInt("window-seconds",
                      static_cast<int64_t>(options.window_seconds)));
    if (window_seconds <= 0) {
      return Status::InvalidArgument("--window-seconds must be positive");
    }
    options.window_seconds = static_cast<uint64_t>(window_seconds);
    options.slow_log_path = flags->Get("slow-log", "");
    SITSTATS_ASSIGN_OR_RETURN(
        options.qerror_log_threshold,
        flags->GetDouble("qerror-threshold", options.qerror_log_threshold));
    return Status::OK();
  }();
  if (!bound.ok()) return FailStatus(bound);

  if (flags->GetBool("trace")) {
    telemetry::Tracer::Global().SetEnabled(true);
  }

  SitStatsServer server(std::move(catalog).ValueOrDie(), options);

  std::string stats_path = flags->Get("stats", "");
  if (!stats_path.empty()) {
    Result<SitCatalog> sits = LoadSitCatalog(stats_path);
    if (!sits.ok()) return FailStatus(sits.status());
    server.PreloadSits(std::move(sits).ValueOrDie());
    std::printf("preloaded %zu SITs from %s\n", server.num_sits(),
                stats_path.c_str());
  }

  Status started = server.Start();
  if (!started.ok()) return FailStatus(started);
  std::printf("serving %s on %s (estimate x%zu, build x%zu)\n",
              dir.c_str(), socket_path.c_str(),
              options.estimate_threads, options.build_threads);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  CancellationToken stop = server.stop_token();
  while (!stop.WaitForCancellation(std::chrono::milliseconds(200))) {
    if (g_signal_received != 0) {
      std::printf("signal received, stopping\n");
      server.RequestStop();
    }
  }
  server.Stop();
  for (const Status& transport : server.TakeTransportErrors()) {
    std::fprintf(stderr, "transport warning: %s\n",
                 transport.ToString().c_str());
  }
  // Stop() has joined the workers and drained both queues, so these
  // snapshots are final — nothing can record behind them.
  std::string metrics_out = flags->Get("metrics-out", "");
  if (!metrics_out.empty()) {
    Status written = telemetry::MetricsRegistry::Global().WriteJson(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics export warning: %s\n",
                   written.ToString().c_str());
    } else {
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
  }
  std::string trace_out = flags->Get("trace-out", "");
  if (!trace_out.empty()) {
    Status written = telemetry::Tracer::Global().WriteChromeTrace(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace export warning: %s\n",
                   written.ToString().c_str());
    } else {
      std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                  telemetry::Tracer::Global().num_events());
    }
  }
  std::printf("stopped: %s\n", server.StatsPayload().c_str());
  return 0;
}

}  // namespace
}  // namespace sitstats

int main(int argc, char** argv) { return sitstats::Main(argc, argv); }
