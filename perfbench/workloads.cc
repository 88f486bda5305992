// Workload data, the three timed end-to-end phases, and the output checks.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "common/rng.h"
#include "datagen/synthetic_db.h"
#include "datagen/tpch_lite.h"
#include "perfbench.h"
#include "query/join_tree.h"
#include "query/spec_parse.h"
#include "scheduler/executor.h"
#include "scheduler/sit_problem.h"
#include "scheduler/solver.h"
#include "server/client.h"
#include "sit/creator.h"
#include "sit/serialization.h"
#include "storage/table_io.h"
#include "telemetry/metrics.h"

namespace perfbench {

using namespace sitstats;

const std::vector<SweepVariant> kVariants = {
    SweepVariant::kSweep, SweepVariant::kSweepIndex, SweepVariant::kSweepFull,
    SweepVariant::kSweepExact, SweepVariant::kHistSit};

std::string VariantKey(SweepVariant variant) {
  return variant == SweepVariant::kHistSit ? "HistSit"
                                           : SweepVariantToString(variant);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Tally::Record(const Status& status, const std::string& what) {
  ++attempted;
  if (status.ok()) return;
  if (++failed <= 10) {
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
}

namespace {

constexpr int kMinIterations = 3;
constexpr int kQErrorQueries = 200;
constexpr int kRepeatRanges = 8;

/// "P R1.jn=P R2.jp;..." for the chain R_first ⋈ ... ⋈ R_last of tables
/// named prefix + "R<i>".
std::string ChainJoins(const std::string& prefix, int first, int last) {
  std::string joins;
  for (int i = first; i < last; ++i) {
    if (!joins.empty()) joins += ';';
    joins += prefix + "R" + std::to_string(i) + ".jn=" + prefix + "R" +
             std::to_string(i + 1) + ".jp";
  }
  return joins;
}

Result<std::unique_ptr<Catalog>> MakeChain(const ChainDbSpec& spec) {
  SITSTATS_ASSIGN_OR_RETURN(ChainDatabase db, MakeChainJoinDatabase(spec));
  return std::move(db.catalog);
}

ChainDbSpec ChainSpec(size_t rows, uint64_t domain, double zipf,
                      uint64_t seed) {
  ChainDbSpec spec;
  spec.num_tables = 4;
  spec.table_rows.assign(4, rows);
  spec.join_domain = domain;
  spec.zipf_z = zipf;
  spec.seed = seed;
  return spec;
}

/// Four disjoint uniform-key chains in one catalog: tables C<k>_R<i>.
Result<std::unique_ptr<Catalog>> MakeDisjointChains(uint64_t seed) {
  auto out = std::make_unique<Catalog>();
  for (int k = 1; k <= 4; ++k) {
    const std::string prefix = "C" + std::to_string(k) + "_";
    SITSTATS_ASSIGN_OR_RETURN(
        std::unique_ptr<Catalog> chain,
        MakeChain(ChainSpec(100'000, 10'000, 0.0,
                            DeriveStreamSeed(seed, prefix))));
    for (const std::string& name : chain->TableNames()) {
      SITSTATS_ASSIGN_OR_RETURN(const Table* table, chain->GetTable(name));
      std::vector<Column> columns;
      for (size_t i = 0; i < table->num_columns(); ++i) {
        columns.push_back(table->column(i));
      }
      SITSTATS_ASSIGN_OR_RETURN(
          Table renamed,
          Table::FromColumns(prefix + name, table->schema(),
                             std::move(columns)));
      SITSTATS_RETURN_IF_ERROR(
          out->AddTable(std::make_unique<Table>(std::move(renamed))));
    }
  }
  return out;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> workloads;

  // One skewed 4-table chain: the paper's single-SIT creation path.
  WorkloadSpec chain;
  chain.name = "chain_build";
  chain.make_catalog = [](uint64_t seed) {
    return MakeChain(ChainSpec(100'000, 10'000, 1.0, seed));
  };
  const std::string full = ChainJoins("", 1, 4);
  chain.build_target = "R4.a:" + full;
  chain.schedule_batch = {"R4.a:" + full, "R4.b0:" + full,
                          "R2.a:" + ChainJoins("", 1, 2)};
  chain.sit_estimate_specs = {"R4.a:" + full, "R2.a:" + ChainJoins("", 1, 2)};
  chain.propagate_estimate_spec = "R3.a:" + ChainJoins("", 1, 3);
  // Two-way BUILDs: cheap enough for a steady median in a short serve
  // share (serve_mixed carries the three-way BUILD).
  chain.build_cycle = {"R2.b0:" + ChainJoins("", 1, 2),
                       "R3.b0:" + ChainJoins("", 2, 3),
                       "R4.b0:" + ChainJoins("", 3, 4)};
  // Serial schedule: the parallel executor is schedule_batch's subject.
  chain.schedule_threads = 1;
  chain.build_share = 0.6;
  chain.schedule_share = 0.2;
  chain.serve_share = 0.2;
  workloads.push_back(chain);

  // Four disjoint uniform chains, three SITs each: shared scans.
  WorkloadSpec batch;
  batch.name = "schedule_batch";
  batch.make_catalog = MakeDisjointChains;
  for (int k = 1; k <= 4; ++k) {
    const std::string p = "C" + std::to_string(k) + "_";
    batch.schedule_batch.push_back(p + "R4.a:" + ChainJoins(p, 1, 4));
    batch.schedule_batch.push_back(p + "R4.b0:" + ChainJoins(p, 1, 4));
    batch.schedule_batch.push_back(p + "R2.a:" + ChainJoins(p, 1, 2));
  }
  batch.build_target = batch.schedule_batch[0];
  batch.sit_estimate_specs = {batch.schedule_batch[0],
                              "C2_R2.a:" + ChainJoins("C2_", 1, 2)};
  batch.propagate_estimate_spec = "C3_R3.a:" + ChainJoins("C3_", 1, 3);
  batch.build_cycle = {"C1_R2.b0:" + ChainJoins("C1_", 1, 2),
                       "C2_R4.b0:" + ChainJoins("C2_", 3, 4),
                       "C4_R4.b1:" + ChainJoins("C4_", 2, 4)};
  batch.build_share = 0.35;
  batch.schedule_share = 0.5;
  batch.serve_share = 0.15;
  workloads.push_back(batch);

  // TPC-H-lite behind the server: SIT writes beside estimate reads.
  WorkloadSpec serve;
  serve.name = "serve_mixed";
  serve.make_catalog = [](uint64_t seed) {
    TpchLiteSpec spec;
    spec.num_customers = 20'000;
    spec.num_orders = 120'000;
    spec.seed = seed;
    return MakeTpchLiteDatabase(spec);
  };
  const std::string three_way =
      "lineitem.l_extendedprice:lineitem.l_orderkey=orders.o_orderkey;"
      "orders.o_custkey=customer.c_custkey";
  serve.build_target =
      "lineitem.l_quantity:lineitem.l_orderkey=orders.o_orderkey;"
      "orders.o_custkey=customer.c_custkey";
  serve.schedule_batch = {
      "orders.o_orderdate:orders.o_custkey=customer.c_custkey",
      "lineitem.l_quantity:lineitem.l_orderkey=orders.o_orderkey",
      three_way};
  serve.sit_estimate_specs = {
      "orders.o_totalprice:customer.c_custkey=orders.o_custkey", three_way};
  serve.propagate_estimate_spec =
      "customer.c_acctbal:customer.c_nationkey=nation.n_nationkey";
  serve.build_cycle = serve.schedule_batch;
  serve.schedule_threads = 1;
  serve.build_share = 0.35;
  serve.schedule_share = 0.15;
  serve.serve_share = 0.5;
  workloads.push_back(serve);
  return workloads;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

/// |query| by per-key count propagation over the base columns, bottom-up
/// through the join tree: independent of the sweep code it checks.
Result<double> ExactCardinality(const Catalog& catalog,
                                const SitDescriptor& descriptor) {
  SITSTATS_ASSIGN_OR_RETURN(
      JoinTree tree,
      JoinTree::Build(descriptor.query(), descriptor.attribute().table));
  std::map<int, std::unordered_map<double, double>> weights;
  double total = 0.0;
  for (int index : tree.PostOrder()) {
    const JoinTree::Node& node = tree.node(index);
    SITSTATS_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(node.table));
    std::vector<std::pair<const Column*, const std::unordered_map<double,
                                                                  double>*>>
        children;
    for (int child : node.children) {
      SITSTATS_ASSIGN_OR_RETURN(
          const Column* column,
          table->GetColumn(tree.node(child).parent_column()));
      children.emplace_back(column, &weights[child]);
    }
    const Column* up = nullptr;
    if (index != tree.root()) {
      SITSTATS_ASSIGN_OR_RETURN(up, table->GetColumn(node.column_to_parent()));
    }
    std::unordered_map<double, double>& out = weights[index];
    for (size_t row = 0; row < table->num_rows(); ++row) {
      double weight = 1.0;
      for (const auto& [column, child_weights] : children) {
        auto it = child_weights->find(column->GetNumeric(row));
        weight *= it == child_weights->end() ? 0.0 : it->second;
        if (weight == 0.0) break;
      }
      if (weight == 0.0) continue;
      if (up == nullptr) {
        total += weight;
      } else {
        out[up->GetNumeric(row)] += weight;
      }
    }
  }
  return total;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({std::fabs(a), std::fabs(b), 1.0});
}

/// Sum and count of the estimate-class queue-wait histogram, read from
/// the METRICS verb.
std::pair<double, double> QueueWait(SitStatsClient* client) {
  Result<std::string> text = client->Metrics();
  double sum = 0.0, count = 0.0;
  if (!text.ok()) return {sum, count};
  std::istringstream lines(*text);
  std::string line;
  const std::string base = "sitstats_server_queue_wait_estimate_ms";
  while (std::getline(lines, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    if (name == base + "_sum") sum = std::stod(line.substr(space + 1));
    if (name == base + "_count") count = std::stod(line.substr(space + 1));
  }
  return {sum, count};
}

/// Ticks (1/100 s of one CPU) in which the hypervisor ran something else
/// while this machine's CPUs wanted to run: the "steal" column of
/// /proc/stat. 0 where the kernel does not report it.
uint64_t StealTicks() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  unsigned long long f[8] = {};
  const int read =
      std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &f[0],
                  &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]);
  std::fclose(stat);
  return read == 8 ? f[7] : 0;
}

struct ConnectionLog {
  std::vector<double> estimate_ms, hit_ms, miss_ms;
  std::map<std::string, std::vector<double>> build_ms;
  Tally tally;
};

/// Client connections and request streams; they persist across the serve
/// slices of one run, so every slice continues where the last one ended.
struct ServeClients {
  std::vector<SitStatsClient> estimate;
  std::vector<Rng> rngs;
  std::vector<uint64_t> next;
  SitStatsClient build;
  size_t next_build = 0;
  SitStatsClient metrics;
};

Status Connect(const Fixture& fixture, ServeClients* clients) {
  for (int c = 0; c < kEstimateConnections; ++c) {
    SITSTATS_ASSIGN_OR_RETURN(SitStatsClient client,
                              SitStatsClient::Connect(fixture.socket_path));
    clients->estimate.push_back(std::move(client));
    clients->rngs.emplace_back(
        DeriveStreamSeed(fixture.seed, "estimate" + std::to_string(c)));
    clients->next.push_back(0);
  }
  SITSTATS_ASSIGN_OR_RETURN(clients->build,
                            SitStatsClient::Connect(fixture.socket_path));
  SITSTATS_ASSIGN_OR_RETURN(clients->metrics,
                            SitStatsClient::Connect(fixture.socket_path));
  return Status::OK();
}

void EstimateLoop(const Fixture& fixture, SitStatsClient* client, Rng* rng,
                  uint64_t* next, double deadline_ms, ConnectionLog* log) {
  std::vector<std::string> specs = fixture.spec->sit_estimate_specs;
  const size_t num_sit_specs = specs.size();
  specs.push_back(fixture.spec->propagate_estimate_spec);
  std::vector<std::vector<std::pair<double, double>>> repeat;
  for (const std::string& spec : specs) {
    repeat.push_back(RepeatRanges(fixture, spec));
  }
  for (; NowMs() < deadline_ms; ++*next) {
    const size_t s = *next % specs.size();
    const uint64_t round = *next / specs.size();
    // 80% repeat ranges (cacheable), 20% ranges never asked before.
    double lo, hi;
    if (round % 5 != 4) {
      std::tie(lo, hi) = repeat[s][round % repeat[s].size()];
    } else {
      const auto [dlo, dhi] = fixture.domains.at(specs[s]);
      lo = rng->UniformDouble(dlo, dhi);
      hi = rng->UniformDouble(lo, dhi);
    }
    const double start = NowMs();
    Result<SitStatsClient::EstimateReply> reply =
        client->Estimate(specs[s], lo, hi);
    const double ms = NowMs() - start;
    if (!reply.ok()) {
      log->tally.Record(reply.status(), "ESTIMATE " + specs[s]);
      continue;
    }
    const bool valid = std::isfinite(reply->cardinality) &&
                       reply->cardinality >= 0.0 &&
                       (s >= num_sit_specs || reply->provenance == "sit");
    // The message is built only on failure: this loop runs ~10^5 times.
    log->tally.Check(valid, valid ? std::string()
                                  : "ESTIMATE reply " + specs[s] +
                                        " provenance=" + reply->provenance);
    log->estimate_ms.push_back(ms);
    (reply->cached ? log->hit_ms : log->miss_ms).push_back(ms);
  }
}

void BuildLoop(const Fixture& fixture, SitStatsClient* client, size_t* next,
               double deadline_ms, ConnectionLog* log) {
  const std::vector<std::string>& cycle = fixture.spec->build_cycle;
  for (; NowMs() < deadline_ms; ++*next) {
    const std::string& spec = cycle[*next % cycle.size()];
    const double start = NowMs();
    Result<SitStatsClient::BuildReply> reply = client->Build(spec);
    const double ms = NowMs() - start;
    if (!reply.ok()) {
      log->tally.Record(reply.status(), "BUILD " + spec);
      continue;
    }
    log->tally.Check(std::isfinite(reply->estimated_cardinality) &&
                         reply->estimated_cardinality >= 0.0 &&
                         reply->num_buckets > 0,
                     "BUILD reply " + spec);
    log->build_ms[spec].push_back(ms);
  }
}

/// One serve slice: every connection runs its closed loop for `seconds`.
void ServeSlice(const Fixture& fixture, ServeClients* clients, double seconds,
                ServePhase* phase, Tally* tally) {
  const double start = NowMs();
  const double deadline = start + seconds * 1e3;
  std::vector<ConnectionLog> logs(clients->estimate.size() + 1);
  std::vector<std::thread> estimators;
  for (size_t c = 0; c < clients->estimate.size(); ++c) {
    estimators.emplace_back(EstimateLoop, std::cref(fixture),
                            &clients->estimate[c], &clients->rngs[c],
                            &clients->next[c], deadline, &logs[c]);
  }
  std::thread build_thread(BuildLoop, std::cref(fixture), &clients->build,
                      &clients->next_build, deadline, &logs.back());
  for (std::thread& thread : estimators) thread.join();
  const double slice_s = (NowMs() - start) / 1e3;
  phase->seconds += slice_s;
  build_thread.join();
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  std::vector<double> estimate_ms;
  for (ConnectionLog& log : logs) {
    append(&estimate_ms, log.estimate_ms);
    append(&phase->hit_ms, log.hit_ms);
    append(&phase->miss_ms, log.miss_ms);
    for (const auto& [spec, ms] : log.build_ms) {
      append(&phase->build_ms[spec], ms);
    }
    tally->attempted += log.tally.attempted;
    tally->failed += log.tally.failed;
  }
  phase->slice_p50_ms.push_back(Percentile(estimate_ms, 50.0));
  phase->slice_p99_ms.push_back(Percentile(estimate_ms, 99.0));
  phase->slice_rps.push_back(static_cast<double>(estimate_ms.size()) /
                             slice_s);
  append(&phase->estimate_ms, estimate_ms);
}

/// One build-phase iteration: the target SIT once with every variant.
void BuildIteration(const Fixture& fixture, const SitDescriptor& descriptor,
                    BuildPhase* phase, Tally* tally) {
  for (SweepVariant variant : kVariants) {
    SitBuildOptions options;
    options.variant = variant;
    options.seed = kBuildSeed;
    // What `sitstats_cli build-sit` pays per call: load, fresh base
    // statistics, build.
    const double start = NowMs();
    Result<Sit> sit = [&]() -> Result<Sit> {
      SITSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                                LoadCatalogBinary(fixture.data_dir));
      BaseStatsCache base_stats;
      return CreateSit(catalog.get(), &base_stats, descriptor, options);
    }();
    const double ms = NowMs() - start;
    tally->Record(sit.status(), "build " + VariantKey(variant));
    if (!sit.ok()) continue;
    tally->Record(sit->histogram.Validate(),
                  "validate " + VariantKey(variant));
    phase->ms[variant].push_back(ms);
    if (!phase->first.contains(variant)) {
      phase->first.emplace(variant, std::move(sit).ValueOrDie());
    }
  }
}

/// One schedule-phase repetition: problem, exact solve and parallel
/// execution of the whole batch, with fresh base statistics.
void ScheduleRep(const Fixture& fixture, Catalog* catalog,
                 const std::vector<SitDescriptor>& batch,
                 SchedulePhase* phase, Tally* tally) {
  SitProblemOptions problem_options;
  problem_options.memory_limit = ScheduleMemoryLimit(*catalog, batch);
  const double start = NowMs();
  Result<ScheduleExecutionResult> result =
      [&]() -> Result<ScheduleExecutionResult> {
    BaseStatsCache base_stats;
    SITSTATS_ASSIGN_OR_RETURN(
        SitSchedulingProblem mapping,
        BuildSitSchedulingProblem(*catalog, batch, problem_options));
    SolverOptions solver;
    solver.kind = SolverKind::kExact;
    SITSTATS_ASSIGN_OR_RETURN(SolverResult solved,
                              SolveSchedule(mapping.problem, solver));
    ScheduleExecutionOptions options;
    options.seed = kBuildSeed;
    options.num_threads = fixture.spec->schedule_threads;
    return ExecuteSitSchedule(catalog, &base_stats, batch, mapping,
                              solved.schedule, options);
  }();
  const double ms = NowMs() - start;
  tally->Record(result.status(), "schedule");
  if (!result.ok()) return;
  phase->ms.push_back(ms);
  for (const Sit& sit : result->sits) {
    tally->Record(sit.histogram.Validate(),
                  "validate " + sit.descriptor.ToString());
  }
  if (phase->first.empty()) phase->first = std::move(result->sits);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

Result<std::vector<SitDescriptor>> ParseSpecs(
    const std::vector<std::string>& specs) {
  std::vector<SitDescriptor> out;
  for (const std::string& spec : specs) {
    SITSTATS_ASSIGN_OR_RETURN(SitDescriptor descriptor, ParseSitSpec(spec));
    out.push_back(std::move(descriptor));
  }
  return out;
}

double ScheduleMemoryLimit(const Catalog& catalog,
                           const std::vector<SitDescriptor>& batch) {
  size_t max_rows = 0;
  for (const SitDescriptor& descriptor : batch) {
    for (const std::string& name : descriptor.query().tables()) {
      Result<const Table*> table = catalog.GetTable(name);
      if (table.ok()) max_rows = std::max(max_rows, (*table)->num_rows());
    }
  }
  const double sampling_rate = SitProblemOptions{}.sampling_rate;
  return kScheduleMemorySequences * sampling_rate *
         static_cast<double>(max_rows);
}

std::vector<std::pair<double, double>> RepeatRanges(const Fixture& fixture,
                                                    const std::string& spec) {
  const auto [lo, hi] = fixture.domains.at(spec);
  const double span = hi - lo;
  std::vector<std::pair<double, double>> ranges;
  for (int r = 0; r < kRepeatRanges; ++r) {
    ranges.emplace_back(lo + span * r / 10.0, lo + span * (r + 3) / 10.0);
  }
  return ranges;
}

Status SetUp(Fixture* fixture) {
  fixture->server.reset();
  SITSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> catalog,
                            fixture->spec->make_catalog(fixture->seed));
  std::error_code ec;
  std::filesystem::create_directories(fixture->data_dir, ec);
  SITSTATS_RETURN_IF_ERROR(SaveCatalogBinary(*catalog, fixture->data_dir));

  std::vector<std::string> specs = fixture->spec->sit_estimate_specs;
  specs.push_back(fixture->spec->propagate_estimate_spec);
  for (const std::string& spec : specs) {
    SITSTATS_ASSIGN_OR_RETURN(SitDescriptor descriptor, ParseSitSpec(spec));
    SITSTATS_ASSIGN_OR_RETURN(
        auto resolved,
        catalog->ResolveColumn(descriptor.attribute().ToString()));
    const Column* column = resolved.second;
    double lo = INFINITY, hi = -INFINITY;
    for (size_t row = 0; row < column->size(); ++row) {
      lo = std::min(lo, column->GetNumeric(row));
      hi = std::max(hi, column->GetNumeric(row));
    }
    fixture->domains[spec] = {lo, hi};
  }
  catalog.reset();

  SITSTATS_ASSIGN_OR_RETURN(std::unique_ptr<Catalog> loaded,
                            LoadCatalogBinary(fixture->data_dir));
  ServerOptions options;
  options.socket_path = fixture->socket_path;
  options.estimate_threads = kServerEstimateThreads;
  options.build_threads = kServerBuildThreads;
  options.build_defaults.seed = kBuildSeed;
  fixture->server =
      std::make_unique<SitStatsServer>(std::move(loaded), options);
  SITSTATS_RETURN_IF_ERROR(fixture->server->Start());
  SITSTATS_ASSIGN_OR_RETURN(SitStatsClient client,
                            SitStatsClient::Connect(fixture->socket_path));
  for (const std::string& spec : fixture->spec->sit_estimate_specs) {
    SITSTATS_RETURN_IF_ERROR(client.Build(spec).status());
  }
  for (const std::string& spec : specs) {
    const auto [lo, hi] = fixture->domains[spec];
    SITSTATS_RETURN_IF_ERROR(client.Estimate(spec, lo, hi).status());
  }
  return Status::OK();
}

Phases RunPhases(const Fixture& fixture, double budget_s, double max_serve_s,
                 Tally* tally) {
  Phases out;
  Result<SitDescriptor> target = ParseSitSpec(fixture.spec->build_target);
  Result<std::vector<SitDescriptor>> batch =
      ParseSpecs(fixture.spec->schedule_batch);
  Result<std::unique_ptr<Catalog>> catalog =
      LoadCatalogBinary(fixture.data_dir);
  ServeClients clients;
  Status ready = !target.ok()    ? target.status()
                 : !batch.ok()   ? batch.status()
                 : !catalog.ok() ? catalog.status()
                                 : Connect(fixture, &clients);
  tally->Record(ready, "phase inputs");
  if (!ready.ok()) return out;

  telemetry::Counter& rejected =
      telemetry::MetricsRegistry::Global().GetCounter(
          "server.requests.rejected");
  const uint64_t rejected_before = rejected.value();
  const auto [wait_sum0, wait_count0] = QueueWait(&clients.metrics);

  // Deficit round robin over the three phases: the next unit always goes
  // to the phase furthest below its share, so every phase's samples are
  // spread over the whole run and a transient disturbance hits them all
  // alike.
  const double shares[3] = {fixture.spec->build_share,
                            fixture.spec->schedule_share,
                            fixture.spec->serve_share};
  const int min_units[3] = {kMinIterations, kMinIterations, 1};
  double used_ms[3] = {0, 0, 0};
  int units[3] = {0, 0, 0};
  const double start = NowMs();
  for (;;) {
    const bool budget_left = NowMs() - start < budget_s * 1e3;
    int pick = -1;
    for (int p = 0; p < 3; ++p) {
      if (!budget_left && units[p] >= min_units[p]) continue;
      if (p == 2 && out.serve.seconds >= max_serve_s) continue;
      if (pick < 0 || used_ms[p] / shares[p] < used_ms[pick] / shares[pick]) {
        pick = p;
      }
    }
    if (pick < 0) break;
    const double unit_start = NowMs();
    const uint64_t steal_start = StealTicks();
    if (pick == 0) {
      BuildIteration(fixture, *target, &out.build, tally);
    } else if (pick == 1) {
      ScheduleRep(fixture, catalog->get(), *batch, &out.schedule, tally);
    } else {
      ServeSlice(fixture, &clients, kServeSliceS, &out.serve, tally);
    }
    const double unit_ms = NowMs() - unit_start;
    used_ms[pick] += unit_ms;
    out.units.push_back({"bsv"[pick], unit_ms,
                         static_cast<double>(StealTicks() - steal_start)});
    ++units[pick];
  }

  const auto [wait_sum1, wait_count1] = QueueWait(&clients.metrics);
  out.serve.queue_wait_ms =
      wait_count1 > wait_count0
          ? (wait_sum1 - wait_sum0) / (wait_count1 - wait_count0)
          : 0.0;
  out.serve.rejected = rejected.value() - rejected_before;
  tally->Check(!out.serve.estimate_ms.empty() && !out.serve.build_ms.empty(),
               "serve phase completed requests");
  return out;
}

double BuildRequestP50(const ServePhase& serve) {
  std::vector<double> per_spec;
  for (const auto& [spec, ms] : serve.build_ms) per_spec.push_back(Median(ms));
  return Median(per_spec);
}

void CheckBuildOutputs(const Fixture& fixture, const BuildPhase& phase,
                       Tally* tally) {
  auto exact = phase.first.find(SweepVariant::kSweepExact);
  Result<std::unique_ptr<Catalog>> catalog =
      LoadCatalogBinary(fixture.data_dir);
  Result<SitDescriptor> descriptor = ParseSitSpec(fixture.spec->build_target);
  if (exact == phase.first.end() || !catalog.ok() || !descriptor.ok()) {
    tally->Check(false, "SweepExact output available");
    return;
  }
  Result<double> truth = ExactCardinality(**catalog, *descriptor);
  tally->Record(truth.status(), "exact cardinality");
  if (!truth.ok()) return;
  const double built = exact->second.estimated_cardinality;
  tally->Check(NearlyEqual(built, *truth),
               "SweepExact cardinality " + std::to_string(built) +
                   " == exact " + std::to_string(*truth));
}

void CheckScheduleOutputs(const Fixture& fixture, const SchedulePhase& phase,
                          Tally* tally) {
  Result<std::unique_ptr<Catalog>> catalog =
      LoadCatalogBinary(fixture.data_dir);
  tally->Record(catalog.status(), "load for solo builds");
  if (!catalog.ok()) return;
  tally->Check(phase.first.size() == fixture.spec->schedule_batch.size(),
               "schedule built every SIT");
  for (const Sit& batched : phase.first) {
    BaseStatsCache base_stats;
    SitBuildOptions options;  // the executor's defaults: Sweep, rate 0.1
    options.seed = kBuildSeed;
    Result<Sit> solo = CreateSit(catalog->get(), &base_stats,
                                 batched.descriptor, options);
    tally->Record(solo.status(), "solo " + batched.descriptor.ToString());
    if (!solo.ok()) continue;
    tally->Check(SerializeSit(*solo) == SerializeSit(batched),
                 "batched == solo bytes for " + batched.descriptor.ToString());
  }
}

double QErrorP90(const BuildPhase& phase, uint64_t seed) {
  auto exact = phase.first.find(SweepVariant::kSweepExact);
  if (exact == phase.first.end() || exact->second.histogram.empty()) {
    return 0.0;
  }
  const Histogram& truth = exact->second.histogram;
  // Range endpoints are drawn from the exact SIT's own distribution (its
  // inverse CDF) and each range holds at least 1% of the result. A join
  // result concentrates on few values; ranges over its near-empty
  // stretches would only measure 0-vs-epsilon interpolation noise.
  const double total = truth.TotalFrequency();
  auto value_at = [&truth, total](double fraction) {
    double target = fraction * total;
    for (const Bucket& bucket : truth.buckets()) {
      if (target <= bucket.frequency && bucket.frequency > 0.0) {
        return bucket.lo + bucket.Width() * (target / bucket.frequency);
      }
      target -= bucket.frequency;
    }
    return truth.MaxValue();
  };
  Rng rng(DeriveStreamSeed(seed, "qerror"));
  std::vector<std::pair<double, double>> ranges;
  while (ranges.size() < kQErrorQueries) {
    const double a = rng.UniformDouble(0.0, 0.99);
    const double b = rng.UniformDouble(a + 0.01, 1.0);
    ranges.emplace_back(value_at(a), value_at(b));
  }
  std::vector<double> qerrors;
  for (SweepVariant variant : {SweepVariant::kSweep, SweepVariant::kSweepIndex,
                               SweepVariant::kSweepFull}) {
    auto it = phase.first.find(variant);
    if (it == phase.first.end()) continue;
    for (const auto& [a, b] : ranges) {
      const double estimate =
          std::max(it->second.histogram.EstimateRange(a, b), 1.0);
      const double actual = std::max(truth.EstimateRange(a, b), 1.0);
      qerrors.push_back(std::max(estimate / actual, actual / estimate));
    }
  }
  return Percentile(std::move(qerrors), 90.0);
}

void AddEndToEndMetrics(const Fixture& fixture, const Phases& phases,
                        Metrics* out) {
  const BuildPhase& build = phases.build;
  const ServePhase& serve = phases.serve;
  for (SweepVariant variant : kVariants) {
    auto it = build.ms.find(variant);
    (*out)["build_ms." + VariantKey(variant)] = {
        it == build.ms.end() ? 0.0 : Median(it->second), "ms"};
  }
  (*out)["qerror_p90"] = {QErrorP90(build, fixture.seed), "ratio"};
  (*out)["schedule_ms"] = {Median(phases.schedule.ms), "ms"};
  (*out)["estimate_p50_ms"] = {Median(serve.slice_p50_ms), "ms"};
  (*out)["build_req_p50_ms"] = {BuildRequestP50(serve), "ms"};
  (*out)["peak_rss_mb"] = {PeakRssMb(), "MB"};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool written = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return written;
}

}  // namespace perfbench
