#include "testing/fault_sweep.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/cli_flags.h"
#include "common/fault_injection.h"
#include "scheduler/executor.h"
#include "scheduler/sit_problem.h"
#include "scheduler/solver.h"
#include "server/client.h"
#include "server/server.h"
#include "sit/base_stats.h"
#include "sit/creator.h"
#include "sit/serialization.h"
#include "sit/sit_catalog.h"
#include "storage/table_io.h"
#include "telemetry/telemetry.h"

namespace sitstats {

namespace {

/// Everything one workload run produces that can be inspected after an
/// injected failure. Members are only populated up to the failure point.
struct WorkloadState {
  std::unique_ptr<Catalog> generated;  // pre-save catalog
  std::unique_ptr<Catalog> loaded;     // post-CSV-round-trip catalog
  /// SITs completed before the fault, registered in a real SitCatalog so
  /// validation uses the production ValidateConsistency hook instead of
  /// sweep-private bookkeeping.
  SitCatalog sits;
};

Result<SitDescriptor> MakeChainDescriptor() {
  SITSTATS_ASSIGN_OR_RETURN(
      GeneratingQuery chain,
      GeneratingQuery::Create(
          {"nation", "customer", "orders"},
          {JoinPredicate{ColumnRef{"nation", "n_nationkey"},
                         ColumnRef{"customer", "c_nationkey"}},
           JoinPredicate{ColumnRef{"customer", "c_custkey"},
                         ColumnRef{"orders", "o_custkey"}}}));
  return SitDescriptor(ColumnRef{"orders", "o_totalprice"},
                       std::move(chain));
}

Result<std::vector<SitDescriptor>> MakeScheduleDescriptors() {
  std::vector<SitDescriptor> sits;
  SITSTATS_ASSIGN_OR_RETURN(SitDescriptor chain, MakeChainDescriptor());
  sits.push_back(std::move(chain));
  // Shares the orders scan with the chain SIT above.
  SITSTATS_ASSIGN_OR_RETURN(
      GeneratingQuery co,
      GeneratingQuery::Create({"customer", "orders"},
                              {JoinPredicate{ColumnRef{"customer", "c_custkey"},
                                             ColumnRef{"orders", "o_custkey"}}}));
  sits.emplace_back(ColumnRef{"orders", "o_orderdate"}, std::move(co));
  // Disjoint tables: runs concurrently with the others under threads.
  SITSTATS_ASSIGN_OR_RETURN(
      GeneratingQuery ol,
      GeneratingQuery::Create({"orders", "lineitem"},
                              {JoinPredicate{ColumnRef{"orders", "o_orderkey"},
                                             ColumnRef{"lineitem",
                                                       "l_orderkey"}}}));
  sits.emplace_back(ColumnRef{"lineitem", "l_extendedprice"}, std::move(ol));
  return sits;
}

/// Binary storage layer: colfile round trip over the freshly loaded
/// catalog plus a small string table (TPC-H-lite has none), covering the
/// storage.colfile.* manifest/write/read/mmap sites and the string-payload
/// allocation site (oom.storage.colfile.strings). The mmap-backed reload
/// replaces the CSV catalog, so every later stage — sweeps, schedules —
/// runs against mapped columns.
Status RunBinaryStorageStage(const std::string& dir, WorkloadState* state) {
  {
    Schema schema;
    schema.AddColumn("tag", ValueType::kString);
    auto tags = std::make_unique<Table>("tags", schema);
    SITSTATS_RETURN_IF_ERROR(
        tags->AppendRow({Value(std::string("alpha"))}));
    SITSTATS_RETURN_IF_ERROR(tags->AppendRow({Value(std::string("beta"))}));
    SITSTATS_RETURN_IF_ERROR(state->loaded->AddTable(std::move(tags)));
  }
  const std::string bin_dir = dir + "/binary";
  if (std::system(("mkdir -p " + bin_dir).c_str()) != 0) {
    return Status::IOError("cannot create scratch dir " + bin_dir);
  }
  SITSTATS_RETURN_IF_ERROR(SaveCatalogBinary(*state->loaded, bin_dir));
  SITSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> mapped,
                            LoadCatalogBinary(bin_dir));
  // Tables load on first use; touch every one, so the colfile read, mmap
  // and string sites are reached even for tables no later stage reads.
  for (const std::string& name : mapped->TableNames()) {
    SITSTATS_RETURN_IF_ERROR(mapped->GetTable(name).status());
  }
  state->loaded = std::move(mapped);
  return Status::OK();
}

/// Serialization layer: the built SITs round-trip through the text
/// statistics format (sit.serialize.save / sit.serialize.load sites).
Status RunSerializationStage(const std::string& dir, WorkloadState* state) {
  const std::string path = dir + "/catalog.stats";
  SITSTATS_RETURN_IF_ERROR(SaveSitCatalog(state->sits, path));
  SITSTATS_ASSIGN_OR_RETURN(SitCatalog reloaded, LoadSitCatalog(path));
  if (reloaded.size() != state->sits.size()) {
    return Status::Internal(
        "SIT catalog round trip changed size: " +
        std::to_string(state->sits.size()) + " saved, " +
        std::to_string(reloaded.size()) + " loaded");
  }
  return reloaded.ValidateConsistency();
}

/// Telemetry layer: exporting metrics and traces is fallible I/O too
/// (telemetry.metrics.export / telemetry.trace.export sites).
Status RunTelemetryStage(const std::string& dir) {
  SITSTATS_RETURN_IF_ERROR(telemetry::MetricsRegistry::Global().WriteJson(
      dir + "/metrics.json"));
  return telemetry::Tracer::Global().WriteChromeTrace(dir + "/trace.json");
}

/// CLI layer: both tools parse argv through the shared CliFlags, which
/// carries the cli.flags.parse / cli.flags.value sites. A synthetic argv
/// covering flags, switches, and positionals exercises them without
/// forking a process.
Status RunCliFlagsStage() {
  const char* argv[] = {"sweep",      "--rate", "0.5", "--buckets=16",
                        "--exact", "catalog_dir"};
  CliParseOptions parse_options;
  parse_options.boolean_keys = {"exact"};
  parse_options.max_positional = 1;
  SITSTATS_ASSIGN_OR_RETURN(
      CliFlags flags,
      CliFlags::Parse(6, const_cast<char**>(argv), 1, parse_options));
  SITSTATS_ASSIGN_OR_RETURN(double rate, flags.GetDouble("rate", 1.0));
  SITSTATS_ASSIGN_OR_RETURN(int64_t buckets, flags.GetInt("buckets", 32));
  if (rate != 0.5 || buckets != 16 || !flags.GetBool("exact") ||
      flags.positional().size() != 1) {
    return Status::Internal("CliFlags parsed unexpected values");
  }
  return Status::OK();
}

/// Server layer: one sitstats-server session over a scratch socket,
/// driven by a single sequential client so every server and client
/// fault site (connect / send / recv / accept / read / dispatch /
/// write) is hit a deterministic number of times. Injected transport
/// faults close the connection — the client only sees EOF — so the
/// injected Status is recovered through TakeTransportErrors. Whatever
/// happens, the server must survive to validate and stop cleanly.
Status RunServerStage(const FaultSweepOptions& options,
                      const std::string& dir) {
  SITSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> db,
                            MakeTpchLiteDatabase(options.spec));
  ServerOptions server_options;
  server_options.socket_path = dir + "/server.sock";
  server_options.estimate_threads = 2;
  server_options.build_threads = 1;
  server_options.build_queue_capacity = 2;
  server_options.build_defaults.seed = options.spec.seed;
  SitStatsServer server(std::move(db), server_options);
  SITSTATS_RETURN_IF_ERROR(server.Start());

  const std::string spec =
      "orders.o_totalprice:customer.c_custkey=orders.o_custkey";
  Status drive = [&]() -> Status {
    SITSTATS_ASSIGN_OR_RETURN(
        SitStatsClient client,
        SitStatsClient::Connect(server_options.socket_path));
    SITSTATS_RETURN_IF_ERROR(client.Ping());
    SITSTATS_RETURN_IF_ERROR(client.Build(spec).status());
    SITSTATS_ASSIGN_OR_RETURN(SitStatsClient::EstimateReply estimate,
                              client.Estimate(spec, 0.0, 1e6));
    // Second identical estimate exercises the cache-hit path.
    SITSTATS_RETURN_IF_ERROR(client.Estimate(spec, 0.0, 1e6).status());
    // Accuracy feedback consumes the first estimate's ledger slot; the
    // METRICS scrape afterwards exercises the length-prefixed body read
    // (ReadBytes) on the client side.
    SITSTATS_RETURN_IF_ERROR(
        client.Accuracy(estimate.estimate_id, 100.0).status());
    SITSTATS_RETURN_IF_ERROR(client.Metrics().status());
    SITSTATS_RETURN_IF_ERROR(client.Stats().status());
    SITSTATS_RETURN_IF_ERROR(client.Sleep(1).status());
    return Status::OK();
  }();

  // Survival check before anything else: whatever was injected, the
  // server process state must still validate and stop without hanging.
  Status valid = server.ValidateCatalog();
  server.Stop();
  // A connection closed by an injected transport fault loses the Status
  // on the wire — the client only sees EOF — so it is recovered here.
  // Benign close races (e.g. EPIPE when a client-side fault aborts the
  // drive mid-request) can be recorded alongside the injected one;
  // folding every recorded error into one message keeps the sweep's
  // marker scan deterministic regardless of recording order.
  Status transport = Status::OK();
  std::vector<Status> recorded = server.TakeTransportErrors();
  if (!recorded.empty()) {
    std::string combined;
    for (const Status& error : recorded) {
      if (!combined.empty()) combined += "; ";
      combined += error.ToString();
    }
    transport = Status::Internal("transport errors: " + combined);
  }
  if (!drive.ok()) {
    if (transport.ok()) return drive;
    return Status::Internal(drive.ToString() + "; " + transport.message());
  }
  SITSTATS_RETURN_IF_ERROR(valid);
  return transport;
}

/// The workload under test: touches every fallible layer once, with fixed
/// seeds so the counting run and every armed run hit each site the same
/// number of times.
Status RunWorkload(const FaultSweepOptions& options, const std::string& dir,
                   WorkloadState* state) {
  SITSTATS_RETURN_IF_ERROR(RunCliFlagsStage());
  SITSTATS_ASSIGN_OR_RETURN(state->generated,
                            MakeTpchLiteDatabase(options.spec));

  // Storage layer: CSV save/load round trip; the rest of the workload
  // runs against the re-loaded catalog.
  SITSTATS_RETURN_IF_ERROR(SaveCatalogCsv(*state->generated, dir));
  SITSTATS_ASSIGN_OR_RETURN(state->loaded, LoadCatalogCsv(dir));

  // Binary storage layer: replaces state->loaded with the mmap-backed
  // colfile reload of the same data.
  SITSTATS_RETURN_IF_ERROR(RunBinaryStorageStage(dir, state));
  Catalog* catalog = state->loaded.get();

  // Every variant over the 3-table chain (histogram, index, exact-map and
  // pure-histogram oracles all get exercised).
  SITSTATS_ASSIGN_OR_RETURN(SitDescriptor chain_sit, MakeChainDescriptor());
  BaseStatsCache stats;
  const SweepVariant variants[] = {
      SweepVariant::kSweep, SweepVariant::kSweepFull,
      SweepVariant::kSweepIndex, SweepVariant::kSweepExact,
      SweepVariant::kHistSit};
  for (SweepVariant variant : variants) {
    SitBuildOptions build;
    build.variant = variant;
    build.seed = options.spec.seed;
    SITSTATS_ASSIGN_OR_RETURN(Sit sit,
                              CreateSit(catalog, &stats, chain_sit, build));
    state->sits.Add(std::move(sit));
  }

  // Scheduler layer: shared-scan schedule over three SITs (two share the
  // orders scan), executed serially or on a worker pool.
  SITSTATS_ASSIGN_OR_RETURN(std::vector<SitDescriptor> sits,
                            MakeScheduleDescriptors());
  SitProblemOptions popts;
  SITSTATS_ASSIGN_OR_RETURN(SitSchedulingProblem mapping,
                            BuildSitSchedulingProblem(*catalog, sits, popts));
  SolverOptions sopts;
  sopts.kind = SolverKind::kGreedy;
  SITSTATS_ASSIGN_OR_RETURN(SolverResult solved,
                            SolveSchedule(mapping.problem, sopts));
  ScheduleExecutionOptions eopts;
  eopts.variant = SweepVariant::kSweep;
  eopts.num_threads = options.num_threads;
  eopts.seed = options.spec.seed;
  SITSTATS_ASSIGN_OR_RETURN(
      ScheduleExecutionResult executed,
      ExecuteSitSchedule(catalog, &stats, sits, mapping, solved.schedule,
                         eopts));
  for (Sit& sit : executed.sits) state->sits.Add(std::move(sit));

  // Exact scheduling layer: reductions + A* over a small synthetic
  // instance built to survive full reduction (two interleaved sequences
  // with shareable scans), so scheduler.reduce is reachable and the A*
  // behind scheduler.search.node genuinely branches on the reduced core.
  {
    SchedulingProblem exact_problem;
    int a = exact_problem.AddTable("exact_a", 2.0, 10.0);
    int b = exact_problem.AddTable("exact_b", 3.0, 10.0);
    int c = exact_problem.AddTable("exact_c", 1.0, 10.0);
    SITSTATS_RETURN_IF_ERROR(
        exact_problem.AddSequenceIds({a, b}).status());
    SITSTATS_RETURN_IF_ERROR(
        exact_problem.AddSequenceIds({b, a}).status());
    SITSTATS_RETURN_IF_ERROR(
        exact_problem.AddSequenceIds({a, c}).status());
    exact_problem.set_memory_limit(30.0);
    SolverOptions xopts;
    xopts.kind = SolverKind::kExact;
    xopts.max_expansions = 100'000;
    SITSTATS_ASSIGN_OR_RETURN(SolverResult exact,
                              SolveSchedule(exact_problem, xopts));
    SolverOptions gopts;
    gopts.kind = SolverKind::kGreedy;
    SITSTATS_ASSIGN_OR_RETURN(SolverResult greedy,
                              SolveSchedule(exact_problem, gopts));
    if (exact.schedule.cost > greedy.schedule.cost + 1e-9 ||
        !exact.proved_optimal) {
      return Status::Internal("exact scheduler lost to greedy: " +
                              std::to_string(exact.schedule.cost) + " vs " +
                              std::to_string(greedy.schedule.cost));
    }
  }

  SITSTATS_RETURN_IF_ERROR(RunSerializationStage(dir, state));
  SITSTATS_RETURN_IF_ERROR(RunTelemetryStage(dir));
  return RunServerStage(options, dir);
}

/// Post-run invariants: catalogs consistent (every registered index is
/// complete and correct), and the run's SitCatalog passes the production
/// self-validation hook (no partial SIT registered).
Status ValidateState(const WorkloadState& state, const std::string& context) {
  for (const Catalog* catalog :
       {state.generated.get(), state.loaded.get()}) {
    if (catalog == nullptr) continue;
    Status valid = catalog->ValidateConsistency();
    if (!valid.ok()) {
      return Status::Internal(context + ": catalog inconsistent: " +
                              valid.ToString());
    }
  }
  Status sits_valid = state.sits.ValidateConsistency();
  if (!sits_valid.ok()) {
    return Status::Internal(context + ": " + sits_valid.ToString());
  }
  return Status::OK();
}

/// Ordinal-selection policy (stratified unless exhaustive): every hit for
/// small sites, else `strata` evenly spaced ordinals over [1, hits]
/// including both endpoints.
std::vector<uint64_t> SelectOrdinals(uint64_t hits,
                                     const FaultSweepOptions& options) {
  std::vector<uint64_t> ordinals;
  const uint64_t strata = std::max<uint64_t>(options.ordinal_strata, 2);
  if (options.exhaustive || hits <= strata) {
    for (uint64_t ordinal = 1; ordinal <= hits; ++ordinal) {
      ordinals.push_back(ordinal);
    }
    return ordinals;
  }
  for (uint64_t s = 0; s < strata; ++s) {
    // Evenly spaced with endpoints: s = 0 -> 1, s = strata-1 -> hits.
    uint64_t ordinal = 1 + (s * (hits - 1)) / (strata - 1);
    if (ordinals.empty() || ordinals.back() != ordinal) {
      ordinals.push_back(ordinal);
    }
  }
  return ordinals;
}

}  // namespace

Result<FaultSweepReport> RunFaultSweep(const FaultSweepOptions& options) {
  FaultInjector& injector = FaultInjector::Global();
  uint64_t run_id = 0;

  auto run_once = [&](WorkloadState* state) -> Status {
    std::string dir =
        options.temp_root + "/sitstats_fault_sweep_" +
        std::to_string(reinterpret_cast<uintptr_t>(&run_id)) + "_" +
        std::to_string(run_id++);
    std::string mkdir_cmd = "mkdir -p " + dir;
    if (std::system(mkdir_cmd.c_str()) != 0) {
      return Status::IOError("cannot create scratch dir " + dir);
    }
    Status status = RunWorkload(options, dir, state);
    std::string rm_cmd = "rm -rf " + dir;
    (void)std::system(rm_cmd.c_str());
    return status;
  };

  // Counting pass: enumerate the reachable sites and prove the workload
  // is clean without injection.
  injector.StartCounting();
  WorkloadState baseline;
  Status clean = run_once(&baseline);
  FaultInjector::SiteCounts counts = injector.StopCounting();
  if (!clean.ok()) {
    return Status::Internal("fault-free workload failed: " +
                            clean.ToString());
  }
  SITSTATS_RETURN_IF_ERROR(ValidateState(baseline, "counting run"));
  if (counts.empty()) {
    return Status::Internal(
        "no fault sites reached; was the library built with "
        "SITSTATS_FAULT_INJECTION=OFF?");
  }

  FaultSweepReport report;
  for (const auto& [site, hits] : counts) {
    FaultSweepSiteResult result;
    result.site = site;
    result.hits = hits;
    // Sites under the "oom." prefix are allocation-failure sites: they
    // arm as kResourceExhausted (the OOM-injection mode) and the sweep
    // additionally asserts the code survives to the top — an allocation
    // failure remapped to some other code would defeat callers that
    // retry-on-ResourceExhausted.
    const bool oom_site = site.rfind("oom.", 0) == 0;
    for (uint64_t ordinal : SelectOrdinals(hits, options)) {
      const std::string marker =
          "injected fault at " + site + "#" + std::to_string(ordinal);
      if (options.progress) options.progress(marker);
      if (oom_site) {
        injector.ArmAllocationFailure(site, ordinal, marker);
      } else {
        injector.Arm(site, ordinal, Status::Internal(marker));
      }
      WorkloadState state;
      Status status = run_once(&state);
      const uint64_t fired = injector.faults_injected();
      injector.Disarm();
      if (fired != 1) {
        return Status::Internal(
            marker + ": armed fault fired " + std::to_string(fired) +
            " times (expected exactly 1; nondeterministic workload?)");
      }
      if (status.ok()) {
        return Status::Internal(
            marker + ": workload succeeded despite the injected fault");
      }
      if (status.message().find(marker) == std::string::npos) {
        return Status::Internal(marker + ": injected error was swallowed; "
                                "workload returned: " + status.ToString());
      }
      if (oom_site && status.code() != StatusCode::kResourceExhausted) {
        return Status::Internal(
            marker + ": allocation failure surfaced as " +
            StatusCodeToString(status.code()) +
            " instead of ResourceExhausted");
      }
      SITSTATS_RETURN_IF_ERROR(ValidateState(state, marker));
      ++result.injections;
      ++report.total_injections;
    }
    report.sites.push_back(std::move(result));
  }
  return report;
}

}  // namespace sitstats
