// Reproduces Figure 8 (a: estimated schedule cost, b: optimization time)
// — creating SITs with varying numSITs — plus the lenSITs sweep the paper
// describes in text (Section 5.2.1), plus a threads axis for the parallel
// schedule executor (not in the paper: the paper's execution is serial).
//
// Paper defaults: numSITs=10, lenSITs=5, nt=10, s=10%, combined table
// size 1,000,000, Cost(T)=|T|/1000, M=50,000, 100 instances per point.
// We use fewer instances per point (the optimal strategy is exponential;
// the paper itself reports 36 s/instance at numSITs=20) and cap Opt's
// expansions; capped instances are dropped from all averages.
//
// Expected shape: Naive is clearly the most expensive schedule;
// Greedy/Hybrid are within a few percent of Opt; Opt's optimization time
// explodes with numSITs while Greedy stays in the milliseconds and Hybrid
// is bounded by its one-second switch. The threads sweep executes one
// fixed schedule of independent chains at 1/2/4/8 workers; the chains
// share no dependency edges, so its speedup should track the machine's
// CPU parallelism, which the bench measures right before each point (a
// flat speedup next to a flat CPU capacity is the machine, not the
// executor).

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "scheduler/executor.h"
#include "scheduler_bench_util.h"

namespace sitstats {
namespace {

/// `num_chains` disjoint chain queries C<c>T1 ⋈ ... ⋈ C<c>Tn (no shared
/// tables, so every chain's schedule steps are independent of every other
/// chain's — the maximally parallel case).
struct IndependentChains {
  Catalog catalog;
  std::vector<SitDescriptor> sits;
};

IndependentChains MakeIndependentChains(int num_chains, int tables_per_chain,
                                        size_t rows, uint64_t seed) {
  IndependentChains fx;
  Rng rng(seed);
  const int64_t domain = 1'000;
  for (int c = 0; c < num_chains; ++c) {
    std::vector<std::string> names;
    std::vector<JoinPredicate> joins;
    for (int i = 1; i <= tables_per_chain; ++i) {
      char name_buf[32];
      std::snprintf(name_buf, sizeof(name_buf), "C%dT%d", c, i);
      std::string name = name_buf;
      Schema schema;
      if (i > 1) schema.AddColumn("jp", ValueType::kInt64);
      if (i < tables_per_chain) schema.AddColumn("jn", ValueType::kInt64);
      schema.AddColumn("a", ValueType::kInt64);
      Table* table = fx.catalog.CreateTable(name, schema).ValueOrDie();
      for (size_t r = 0; r < rows; ++r) {
        std::vector<Value> row;
        if (i > 1) row.emplace_back(rng.UniformInt(1, domain));
        if (i < tables_per_chain) {
          row.emplace_back(rng.UniformInt(1, domain));
        }
        row.emplace_back(rng.UniformInt(1, domain));
        SITSTATS_CHECK_OK(table->AppendRow(row));
      }
      if (i > 1) {
        joins.push_back(JoinPredicate{ColumnRef{names.back(), "jn"},
                                      ColumnRef{name, "jp"}});
      }
      names.push_back(name);
    }
    fx.sits.emplace_back(
        ColumnRef{names.back(), "a"},
        GeneratingQuery::Create(names, joins).ValueOrDie());
  }
  return fx;
}

volatile uint64_t g_spin_sink = 0;

/// Wall ms for `threads` threads each running the same fixed CPU-bound
/// work at once (SplitMix64 rounds: no memory traffic, no locks).
double ConcurrentSpinMs(int threads, uint64_t rounds) {
  std::vector<uint64_t> sinks(static_cast<size_t>(threads), 0);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&sinks, t, rounds] {
      uint64_t x = static_cast<uint64_t>(t);
      for (uint64_t i = 0; i < rounds; ++i) x = MixSeed64(x + i);
      sinks[static_cast<size_t>(t)] = x;
    });
  }
  for (std::thread& worker : workers) worker.join();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  uint64_t all = 0;
  for (uint64_t sink : sinks) all ^= sink;
  g_spin_sink = all;  // a volatile store keeps the rounds observable
  return ms;
}

void RunThreadsSweep(BenchJsonWriter* json) {
  // Speedup is bounded by the machine: on a 1-core container every
  // thread count measures ~1.0x; near-linear scaling needs >= 4 free
  // cores, which each point's CPU check reports as capacity.
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "\n=== Parallel execution: 8 independent 3-table chains "
      "(60k rows/table, %u cores) ===\n",
      cores);
  IndependentChains fx =
      MakeIndependentChains(/*num_chains=*/8, /*tables_per_chain=*/3,
                            /*rows=*/60'000, /*seed=*/7);
  SitProblemOptions poptions;
  SitSchedulingProblem mapping =
      BuildSitSchedulingProblem(fx.catalog, fx.sits, poptions).ValueOrDie();
  SolverOptions soptions;
  soptions.kind = SolverKind::kGreedy;
  SolverResult solved =
      SolveSchedule(mapping.problem, soptions).ValueOrDie();

  // CPU-parallelism check right before each point: `threads` threads of
  // fixed spin work; capacity = threads * t1 / t_threads, which is
  // `threads` on an idle machine with that many free cores.
  const uint64_t kSpinRounds = 20'000'000;
  double serial_ms = 0.0;
  double spin_serial_ms = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    const double spin_ms = ConcurrentSpinMs(threads, kSpinRounds);
    if (threads == 1) spin_serial_ms = spin_ms;
    const double capacity = threads * spin_serial_ms / spin_ms;
    BaseStatsCache stats;
    ScheduleExecutionOptions eoptions;
    eoptions.num_threads = threads;
    auto start = std::chrono::steady_clock::now();
    ScheduleExecutionResult result =
        ExecuteSitSchedule(&fx.catalog, &stats, fx.sits, mapping,
                           solved.schedule, eoptions)
            .ValueOrDie();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (threads == 1) serial_ms = ms;
    std::printf(
        "threads=%-2d | exec=%8.1f ms | speedup=%5.2fx | cpu capacity=%5.2f "
        "| sits=%zu\n",
        threads, ms, serial_ms > 0 ? serial_ms / ms : 1.0, capacity,
        result.sits.size());
    json->BeginRow();
    json->Add("x_label", std::string("threads"));
    json->Add("x", static_cast<double>(threads));
    json->Add("exec_ms", ms);
    json->Add("speedup", serial_ms > 0 ? serial_ms / ms : 1.0);
    json->Add("steps",
              static_cast<double>(solved.schedule.steps.size()));
    json->Add("cores", static_cast<double>(cores));
    json->Add("cpu_capacity", capacity);
  }
}

}  // namespace
}  // namespace sitstats

int main() {
  using namespace sitstats;  // NOLINT
  BenchJsonWriter json("fig8_num_sits");
  std::printf(
      "=== Figure 8: varying numSITs (nt=10, lenSITs=5, s=10%%, "
      "M=50000) ===\n");
  for (int num_sits : {5, 10, 15, 20}) {
    InstanceSpec spec;
    spec.num_sits = num_sits;
    int instances = num_sits >= 20 ? 5 : (num_sits >= 15 ? 10 : 20);
    SweepPoint point = RunSchedulingPoint(spec, instances, /*seed=*/1000);
    PrintPointRow("numSITs", num_sits, point);
    AppendPointRow(&json, "numSITs", num_sits, point);
  }

  std::printf(
      "\n=== Section 5.2.1 (text): varying lenSITs (numSITs=10) ===\n");
  for (int len : {3, 4, 5, 6}) {
    InstanceSpec spec;
    spec.max_seq_len = len;
    int instances = len >= 6 ? 10 : 20;
    SweepPoint point = RunSchedulingPoint(spec, instances, /*seed=*/2000);
    PrintPointRow("lenSITs", len, point);
    AppendPointRow(&json, "lenSITs", len, point);
  }

  RunThreadsSweep(&json);

  std::printf(
      "\nExpected: cost(Naive) >> cost(Opt) ~ cost(Greedy) ~ cost(Hybrid); "
      "Opt time\ngrows explosively with numSITs/lenSITs, Greedy stays ~ms, "
      "Hybrid <= ~1s;\nexec speedup on independent chains tracks the CPU "
      "check's capacity.\n");
  return 0;
}
