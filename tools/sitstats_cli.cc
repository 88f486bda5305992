// sitstats_cli — operate the library from the command line, no C++
// required:
//
//   sitstats_cli generate-chain DIR [--tables N] [--rows N] [--domain N]
//                                   [--zipf Z] [--seed S]
//   sitstats_cli generate-tpch  DIR [--customers N] [--orders N] [--seed S]
//   sitstats_cli import         SRCDIR DSTDIR
//   sitstats_cli inspect        DIR
//   sitstats_cli build-sit      DIR --attr T.col --join A.x=B.y [--join ...]
//                                   [--variant Sweep|SweepIndex|SweepFull|
//                                    SweepExact|Hist-SIT]
//                                   [--rate R] [--buckets N] [--out FILE]
//   sitstats_cli estimate       DIR --attr T.col --join A.x=B.y [--join ...]
//                                   --lo X --hi Y [--stats FILE] [--exact]
//   sitstats_cli schedule       DIR --sit "T.col:A.x=B.y;B.y=C.z" [--sit ...]
//                                   [--variant ...] [--rate R] [--buckets N]
//                                   [--memory M] [--threads N] [--out FILE]
//                                   [--max-expansions N]
//                                   [--hybrid-expansions N]
//   sitstats_cli query          --socket PATH "REQUEST LINE" ...
//
// `query` talks to a running sitstats_server (tools/sitstats_server.cc):
// every positional argument is one protocol request line — see
// src/server/protocol.h — sent over a single connection; responses print
// one per line.
//
// Flags accept both `--key value` and `--key=value`. Every command also
// takes the global telemetry flags:
//
//   --trace-out FILE    record spans, write Chrome/Perfetto trace JSON
//   --metrics-out FILE  dump the metrics registry (counters/gauges/
//                       histograms) as JSON on exit
//   --log-level LVL     debug|info|warning|error (or 0-3)
//
// `schedule` builds a batch of SITs with scan sharing: it derives the
// weighted supersequence instance, solves it with all five strategies
// (Exact/Opt/Greedy/Hybrid/Naive), prints the comparison, and executes
// the cheapest schedule. Each --sit is "attr" or "attr:join1;join2;..."
// with joins in A.x=B.y form. --hybrid-expansions N makes Hybrid's
// A*->Greedy switch fire deterministically after N node expansions
// (0 = wall-clock switch only).
// --threads N (0 to 256) runs independent schedule steps on N
// worker threads (0 or unset defers to $SITSTATS_THREADS, default serial);
// built SITs are identical at any thread count.
//
// Data directories come in two formats, auto-detected on load: the CSV
// catalogs written by generate-* (one CSV per table plus a MANIFEST), and
// the binary colfile catalogs written by `import` (one mmap-able .col per
// column plus a MANIFEST.bin, which wins when both are present). `import`
// converts a CSV directory to binary — CSV stays the one parse path, the
// serving path scans the binary zero-copy. Statistics files are the text
// SIT catalogs of sit/serialization.h.

#include <cstdio>
#include <cstdlib>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cli_flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/synthetic_db.h"
#include "datagen/tpch_lite.h"
#include "estimator/sit_estimator.h"
#include "exec/query_executor.h"
#include "query/spec_parse.h"
#include "scheduler/executor.h"
#include "server/client.h"
#include "scheduler/sit_problem.h"
#include "scheduler/solver.h"
#include "sit/serialization.h"
#include "storage/table_io.h"
#include "telemetry/telemetry.h"

namespace sitstats {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int FailStatus(const Status& status) { return Fail(status.ToString()); }

/// Command arguments over the shared CliFlags grammar (common/cli_flags.h):
/// --join and --sit repeat, --exact is a switch, everything else is a
/// last-one-wins --key value / --key=value pair.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> joins;
  std::vector<std::string> sits;
  bool exact = false;
  CliFlags flags;

  static Result<Args> Parse(int argc, char** argv, int start) {
    CliParseOptions options;
    options.repeated_keys = {"join", "sit"};
    options.boolean_keys = {"exact"};
    SITSTATS_ASSIGN_OR_RETURN(CliFlags parsed,
                              CliFlags::Parse(argc, argv, start, options));
    Args args;
    args.positional = parsed.positional();
    args.joins = parsed.Repeated("join");
    args.sits = parsed.Repeated("sit");
    args.exact = parsed.GetBool("exact");
    args.flags = std::move(parsed);
    return args;
  }
};

/// Binds a numeric flag inside the int-returning command handlers; a
/// malformed value becomes the standard usage failure.
#define CLI_FLAG_OR_FAIL(type, var, expr)                    \
  type var;                                                  \
  {                                                          \
    auto var##_parsed = (expr);                              \
    if (!var##_parsed.ok()) return FailStatus(var##_parsed.status()); \
    var = *var##_parsed;                                     \
  }

/// Builds the generating query from --attr/--join flags (tables are the
/// ones referenced; single-table queries are allowed with no joins).
Result<GeneratingQuery> ParseQuery(const Args& args,
                                   const ColumnRef& attribute) {
  std::vector<JoinPredicate> joins;
  std::vector<std::string> tables = {attribute.table};
  auto add_table = [&tables](const std::string& name) {
    for (const std::string& t : tables) {
      if (t == name) return;
    }
    tables.push_back(name);
  };
  for (const std::string& text : args.joins) {
    SITSTATS_ASSIGN_OR_RETURN(JoinPredicate join, ParseJoinSpec(text));
    add_table(join.left.table);
    add_table(join.right.table);
    joins.push_back(join);
  }
  return GeneratingQuery::Create(std::move(tables), std::move(joins));
}

int GenerateChain(const Args& args) {
  if (args.positional.empty()) return Fail("generate-chain needs DIR");
  CLI_FLAG_OR_FAIL(int64_t, tables, args.flags.GetInt("tables", 3));
  CLI_FLAG_OR_FAIL(int64_t, rows, args.flags.GetInt("rows", 20'000));
  CLI_FLAG_OR_FAIL(int64_t, domain, args.flags.GetInt("domain", 1'000));
  CLI_FLAG_OR_FAIL(double, zipf, args.flags.GetDouble("zipf", 1.0));
  CLI_FLAG_OR_FAIL(int64_t, seed, args.flags.GetInt("seed", 42));
  ChainDbSpec spec;
  spec.num_tables = static_cast<int>(tables);
  spec.table_rows.assign(static_cast<size_t>(spec.num_tables),
                         static_cast<size_t>(rows));
  spec.join_domain = static_cast<uint64_t>(domain);
  spec.zipf_z = zipf;
  spec.seed = static_cast<uint64_t>(seed);
  Result<ChainDatabase> db = MakeChainJoinDatabase(spec);
  if (!db.ok()) return FailStatus(db.status());
  Status saved = SaveCatalogCsv(*db->catalog, args.positional[0]);
  if (!saved.ok()) return FailStatus(saved);
  std::printf("wrote %d chain tables to %s\n", spec.num_tables,
              args.positional[0].c_str());
  std::printf("chain query: %s (SIT attribute %s)\n",
              db->query.ToString().c_str(),
              db->sit_attribute.ToString().c_str());
  return 0;
}

int GenerateTpch(const Args& args) {
  if (args.positional.empty()) return Fail("generate-tpch needs DIR");
  CLI_FLAG_OR_FAIL(int64_t, customers, args.flags.GetInt("customers", 5'000));
  CLI_FLAG_OR_FAIL(int64_t, orders, args.flags.GetInt("orders", 30'000));
  CLI_FLAG_OR_FAIL(int64_t, seed, args.flags.GetInt("seed", 42));
  TpchLiteSpec spec;
  spec.num_customers = static_cast<size_t>(customers);
  spec.num_orders = static_cast<size_t>(orders);
  spec.seed = static_cast<uint64_t>(seed);
  Result<std::unique_ptr<Catalog>> catalog = MakeTpchLiteDatabase(spec);
  if (!catalog.ok()) return FailStatus(catalog.status());
  Status saved = SaveCatalogCsv(**catalog, args.positional[0]);
  if (!saved.ok()) return FailStatus(saved);
  std::printf("wrote TPC-H-lite tables to %s\n", args.positional[0].c_str());
  return 0;
}

int Import(const Args& args) {
  if (args.positional.size() < 2) {
    return Fail("import needs SRCDIR DSTDIR");
  }
  const std::string& src = args.positional[0];
  const std::string& dst = args.positional[1];
  Result<std::unique_ptr<Catalog>> catalog = LoadCatalog(src);
  if (!catalog.ok()) return FailStatus(catalog.status());
  Status saved = SaveCatalogBinary(**catalog, dst);
  if (!saved.ok()) return FailStatus(saved);
  size_t columns = 0;
  for (const std::string& name : (*catalog)->TableNames()) {
    Result<const Table*> table = (*catalog)->GetTable(name);
    if (!table.ok()) return FailStatus(table.status());
    columns += (*table)->num_columns();
  }
  std::printf("imported %zu tables (%zu colfiles) from %s to %s\n",
              (*catalog)->num_tables(), columns, src.c_str(), dst.c_str());
  return 0;
}

int Inspect(const Args& args) {
  if (args.positional.empty()) return Fail("inspect needs DIR");
  Result<std::unique_ptr<Catalog>> catalog = LoadCatalog(args.positional[0]);
  if (!catalog.ok()) return FailStatus(catalog.status());
  for (const std::string& name : (*catalog)->TableNames()) {
    Result<const Table*> table = (*catalog)->GetTable(name);
    if (!table.ok()) return FailStatus(table.status());
    std::printf("%-12s %9zu rows  %s\n", name.c_str(), (*table)->num_rows(),
                (*table)->schema().ToString().c_str());
  }
  return 0;
}

int BuildSit(const Args& args) {
  if (args.positional.empty()) return Fail("build-sit needs DIR");
  auto catalog_result = LoadCatalog(args.positional[0]);
  if (!catalog_result.ok()) return FailStatus(catalog_result.status());
  std::unique_ptr<Catalog> catalog = std::move(catalog_result).ValueOrDie();

  auto attr = ParseColumnSpec(args.flags.Get("attr", ""));
  if (!attr.ok()) return FailStatus(attr.status());
  auto query = ParseQuery(args, *attr);
  if (!query.ok()) return FailStatus(query.status());
  auto variant = SweepVariantFromString(args.flags.Get("variant", "Sweep"));
  if (!variant.ok()) return FailStatus(variant.status());

  CLI_FLAG_OR_FAIL(double, rate, args.flags.GetDouble("rate", 0.1));
  CLI_FLAG_OR_FAIL(int, buckets,
                   ParseBucketCount(args.flags.Get("buckets", "100")));
  BaseStatsCache stats;
  SitBuildOptions options;
  options.variant = *variant;
  options.sampling_rate = rate;
  options.histogram_spec.num_buckets = buckets;
  Result<Sit> sit = CreateSit(catalog.get(), &stats,
                              SitDescriptor(*attr, *query), options);
  if (!sit.ok()) return FailStatus(sit.status());
  std::printf("built %s\n", sit->descriptor.ToString().c_str());
  std::printf("  variant=%s est|Q|=%.0f buckets=%zu scans=%llu\n",
              SweepVariantToString(sit->variant),
              sit->estimated_cardinality, sit->histogram.num_buckets(),
              static_cast<unsigned long long>(
                  sit->build_stats.sequential_scans));

  std::string out = args.flags.Get("out", "");
  if (!out.empty()) {
    SitCatalog sits;
    // Merge into an existing statistics file when present.
    Result<SitCatalog> existing = LoadSitCatalog(out);
    if (existing.ok()) sits = std::move(existing).ValueOrDie();
    sits.Add(std::move(sit).ValueOrDie());
    Status saved = SaveSitCatalog(sits, out);
    if (!saved.ok()) return FailStatus(saved);
    std::printf("  saved to %s (%zu SITs)\n", out.c_str(), sits.size());
  }
  return 0;
}

int Estimate(const Args& args) {
  if (args.positional.empty()) return Fail("estimate needs DIR");
  auto catalog_result = LoadCatalog(args.positional[0]);
  if (!catalog_result.ok()) return FailStatus(catalog_result.status());
  std::unique_ptr<Catalog> catalog = std::move(catalog_result).ValueOrDie();

  auto attr = ParseColumnSpec(args.flags.Get("attr", ""));
  if (!attr.ok()) return FailStatus(attr.status());
  auto query = ParseQuery(args, *attr);
  if (!query.ok()) return FailStatus(query.status());
  CLI_FLAG_OR_FAIL(double, lo, args.flags.GetDouble("lo", 0));
  CLI_FLAG_OR_FAIL(double, hi, args.flags.GetDouble("hi", 0));

  SitCatalog sits;
  std::string stats_path = args.flags.Get("stats", "");
  if (!stats_path.empty()) {
    Result<SitCatalog> loaded = LoadSitCatalog(stats_path);
    if (!loaded.ok()) return FailStatus(loaded.status());
    sits = std::move(loaded).ValueOrDie();
  }
  BaseStatsCache stats;
  CardinalityEstimator estimator(catalog.get(), &stats,
                                 stats_path.empty() ? nullptr : &sits);
  auto estimate = estimator.EstimateRangeQuery(*query, *attr, lo, hi);
  if (!estimate.ok()) return FailStatus(estimate.status());
  std::printf("estimate(%g <= %s <= %g over %s) = %.0f   [%s]\n", lo,
              attr->ToString().c_str(), hi, query->ToString().c_str(),
              estimate->cardinality,
              ProvenanceToString(estimate->provenance));
  if (args.exact) {
    auto actual = ExactRangeCardinality(*catalog, *query, *attr, lo, hi);
    if (!actual.ok()) return FailStatus(actual.status());
    std::printf("actual = %.0f   (relative error %+.1f%%)\n", *actual,
                *actual > 0
                    ? 100.0 * (estimate->cardinality - *actual) / *actual
                    : 0.0);
  }
  return 0;
}

int RunSchedule(const Args& args) {
  if (args.positional.empty()) return Fail("schedule needs DIR");
  if (args.sits.empty()) {
    return Fail("schedule needs at least one --sit \"T.col:A.x=B.y;...\"");
  }
  auto catalog_result = LoadCatalog(args.positional[0]);
  if (!catalog_result.ok()) return FailStatus(catalog_result.status());
  std::unique_ptr<Catalog> catalog = std::move(catalog_result).ValueOrDie();

  std::vector<SitDescriptor> descriptors;
  for (const std::string& spec : args.sits) {
    auto descriptor = ParseSitSpec(spec);
    if (!descriptor.ok()) return FailStatus(descriptor.status());
    descriptors.push_back(std::move(descriptor).ValueOrDie());
  }
  auto variant = SweepVariantFromString(args.flags.Get("variant", "Sweep"));
  if (!variant.ok()) return FailStatus(variant.status());

  CLI_FLAG_OR_FAIL(double, rate, args.flags.GetDouble("rate", 0.1));
  CLI_FLAG_OR_FAIL(double, memory,
                   args.flags.GetDouble(
                       "memory", std::numeric_limits<double>::infinity()));
  CLI_FLAG_OR_FAIL(int64_t, max_expansions,
                   args.flags.GetInt("max-expansions", 2'000'000));
  CLI_FLAG_OR_FAIL(int64_t, hybrid_expansions,
                   args.flags.GetInt("hybrid-expansions", 0));
  if (hybrid_expansions < 0) {
    return Fail("--hybrid-expansions must be >= 0");
  }
  CLI_FLAG_OR_FAIL(int, buckets,
                   ParseBucketCount(args.flags.Get("buckets", "100")));
  CLI_FLAG_OR_FAIL(int64_t, threads, args.flags.GetInt("threads", 0));
  if (threads < 0 || threads > static_cast<int64_t>(kMaxThreads)) {
    return Fail("--threads must be in [0, " + std::to_string(kMaxThreads) +
                "]");
  }
  SitProblemOptions problem_options;
  problem_options.sampling_rate = rate;
  problem_options.memory_limit = memory;
  auto mapping =
      BuildSitSchedulingProblem(*catalog, descriptors, problem_options);
  if (!mapping.ok()) return FailStatus(mapping.status());

  // Solve with every strategy so one run compares them; execute the
  // cheapest schedule (ties go to the earlier, stronger strategy).
  const SolverKind kinds[] = {SolverKind::kExact, SolverKind::kOptimal,
                              SolverKind::kHybrid, SolverKind::kGreedy,
                              SolverKind::kNaive};
  std::optional<SolverResult> best;
  std::printf("%-8s %12s %12s %10s %8s\n", "solver", "cost", "elapsed_ms",
              "expanded", "optimal");
  for (SolverKind kind : kinds) {
    SolverOptions solver_options;
    solver_options.kind = kind;
    solver_options.max_expansions = static_cast<uint64_t>(max_expansions);
    solver_options.hybrid_switch_expansions =
        static_cast<uint64_t>(hybrid_expansions);
    auto solved = SolveSchedule(mapping->problem, solver_options);
    if (!solved.ok()) {
      std::printf("%-8s %12s\n", SolverKindToString(kind),
                  solved.status().ToString().c_str());
      continue;
    }
    std::printf("%-8s %12.1f %12.3f %10llu %8s\n", SolverKindToString(kind),
                solved->schedule.cost,
                solved->optimization_seconds * 1e3,
                static_cast<unsigned long long>(solved->nodes_expanded),
                solved->proved_optimal ? "yes" : "no");
    if (!best.has_value() || solved->schedule.cost < best->schedule.cost) {
      best = std::move(solved).ValueOrDie();
    }
  }
  if (!best.has_value()) return Fail("every solver failed");

  BaseStatsCache stats;
  ScheduleExecutionOptions exec_options;
  exec_options.variant = *variant;
  exec_options.sampling_rate = problem_options.sampling_rate;
  exec_options.histogram_spec.num_buckets = buckets;
  exec_options.num_threads = static_cast<int>(threads);
  auto executed = ExecuteSitSchedule(catalog.get(), &stats, descriptors,
                                     *mapping, best->schedule, exec_options);
  if (!executed.ok()) return FailStatus(executed.status());
  std::printf("executed %zu-step schedule (cost %.1f, %zu threads): %s\n",
              best->schedule.steps.size(), best->schedule.cost,
              executed->threads_used,
              executed->total_stats.ToString().c_str());
  for (const Sit& sit : executed->sits) {
    std::printf("  %s est|Q|=%.0f buckets=%zu\n",
                sit.descriptor.ToString().c_str(),
                sit.estimated_cardinality, sit.histogram.num_buckets());
  }

  std::string out = args.flags.Get("out", "");
  if (!out.empty()) {
    SitCatalog sits;
    Result<SitCatalog> existing = LoadSitCatalog(out);
    if (existing.ok()) sits = std::move(existing).ValueOrDie();
    for (Sit& sit : executed->sits) sits.Add(std::move(sit));
    Status saved = SaveSitCatalog(sits, out);
    if (!saved.ok()) return FailStatus(saved);
    std::printf("saved to %s (%zu SITs)\n", out.c_str(), sits.size());
  }
  return 0;
}

/// Thin client for a running sitstats_server: each positional argument is
/// one raw protocol request line, sent in order over a single connection.
/// The token `@last_estimate` in a request line is replaced by the
/// estimate_id of the most recent ESTIMATE response, so one session can
/// close the accuracy loop without shell plumbing:
///
///   sitstats_cli query --socket S "ESTIMATE O.o_total 100 500"
///       "ACCURACY @last_estimate true_card=1234" "METRICS"
int RunQuery(const Args& args) {
  std::string socket_path = args.flags.Get("socket", "");
  if (socket_path.empty()) return Fail("query needs --socket PATH");
  if (args.positional.empty()) {
    return Fail("query needs at least one REQUEST line, e.g. "
                "\"ESTIMATE O.o_total 100 500\"");
  }
  auto client = SitStatsClient::Connect(socket_path);
  if (!client.ok()) return FailStatus(client.status());
  int rc = 0;
  std::string last_estimate_id;
  for (const std::string& raw_request : args.positional) {
    std::string request = raw_request;
    size_t placeholder = request.find("@last_estimate");
    if (placeholder != std::string::npos) {
      if (last_estimate_id.empty()) {
        return Fail("@last_estimate used before any ESTIMATE response");
      }
      request.replace(placeholder, 14, last_estimate_id);
    }
    Result<std::string> reply = client->CallRaw(request);
    if (reply.ok()) {
      std::printf("OK %s\n", reply->c_str());
      for (const std::string& token : Split(*reply, ' ')) {
        if (token.rfind("estimate_id=", 0) == 0) {
          last_estimate_id = token.substr(12);
        }
      }
    } else {
      std::printf("ERR %s\n", reply.status().ToString().c_str());
      rc = 1;
    }
  }
  return rc;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sitstats_cli <generate-chain|generate-tpch|import|inspect|"
      "build-sit|estimate|schedule|query> ...\n"
      "global flags: --trace-out FILE --metrics-out FILE --log-level LVL\n"
      "(see the header comment of tools/sitstats_cli.cc)\n");
  return 2;
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "generate-chain") return GenerateChain(args);
  if (command == "generate-tpch") return GenerateTpch(args);
  if (command == "import") return Import(args);
  if (command == "inspect") return Inspect(args);
  if (command == "build-sit") return BuildSit(args);
  if (command == "estimate") return Estimate(args);
  if (command == "schedule") return RunSchedule(args);
  if (command == "query") return RunQuery(args);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Result<Args> args = Args::Parse(argc, argv, 2);
  if (!args.ok()) return FailStatus(args.status());

  std::string log_level_text = args->flags.Get("log-level", "");
  if (!log_level_text.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level_text, &level)) {
      return Fail("unrecognized --log-level " + log_level_text);
    }
    SetLogLevel(level);
  }
  std::string trace_out = args->flags.Get("trace-out", "");
  if (!trace_out.empty()) telemetry::Tracer::Global().SetEnabled(true);

  int rc = Dispatch(command, *args);

  if (!trace_out.empty()) {
    Status saved = telemetry::Tracer::Global().WriteChromeTrace(trace_out);
    if (!saved.ok()) return FailStatus(saved);
    std::printf("wrote %zu trace events to %s\n",
                telemetry::Tracer::Global().num_events(), trace_out.c_str());
  }
  std::string metrics_out = args->flags.Get("metrics-out", "");
  if (!metrics_out.empty()) {
    Status saved =
        telemetry::MetricsRegistry::Global().WriteJson(metrics_out);
    if (!saved.ok()) return FailStatus(saved);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace sitstats

int main(int argc, char** argv) { return sitstats::Main(argc, argv); }
