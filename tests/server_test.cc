#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "datagen/tpch_lite.h"
#include "scheduler/executor.h"
#include "server/client.h"
#include "storage/table_io.h"

namespace sitstats {
namespace {

using std::chrono::milliseconds;

constexpr char kSpec[] =
    "orders.o_totalprice:customer.c_custkey=orders.o_custkey";
constexpr char kSpec2[] =
    "lineitem.l_quantity:orders.o_orderkey=lineitem.l_orderkey";

/// Starts a real server over a per-test /tmp socket and tears it down.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    TpchLiteSpec spec;
    spec.num_nations = 8;
    spec.num_customers = 80;
    spec.num_orders = 300;
    spec.avg_lineitems_per_order = 3;
    spec.seed = 11;
    socket_path_ = "/tmp/sitstats_server_test_" +
                   std::to_string(reinterpret_cast<uintptr_t>(this)) +
                   ".sock";
    options.socket_path = socket_path_;
    options.build_defaults.seed = 11;
    server_ = std::make_unique<SitStatsServer>(
        MakeTpchLiteDatabase(spec).ValueOrDie(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      EXPECT_TRUE(server_->TakeTransportErrors().empty());
      EXPECT_TRUE(server_->ValidateCatalog().ok());
    }
    std::remove(socket_path_.c_str());
  }

  SitStatsClient Connect() {
    return SitStatsClient::Connect(socket_path_).ValueOrDie();
  }

  std::string socket_path_;
  std::unique_ptr<SitStatsServer> server_;
};

TEST_F(ServerTest, StartFailsOnACorruptColfile) {
  // Colfile tables load on first use; the server uses them all in Start,
  // so a corrupt one fails the start and the server never listens.
  TpchLiteSpec spec;
  spec.num_nations = 8;
  spec.num_customers = 20;
  spec.num_orders = 40;
  spec.seed = 11;
  const std::string dir =
      "/tmp/sitstats_server_test_colfiles_" +
      std::to_string(reinterpret_cast<uintptr_t>(this));
  ASSERT_TRUE(
      SaveCatalogBinary(*MakeTpchLiteDatabase(spec).ValueOrDie(), dir).ok());
  const std::string corrupt = dir + "/nation.n_regionkey.col";
  {
    std::fstream f(corrupt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);  // the first payload byte
    const char byte = 0x5a;
    f.write(&byte, 1);
  }
  std::unique_ptr<Catalog> catalog = LoadCatalogBinary(dir).ValueOrDie();
  socket_path_ = "/tmp/sitstats_server_test_" +
                 std::to_string(reinterpret_cast<uintptr_t>(this)) + ".sock";
  ServerOptions options;
  options.socket_path = socket_path_;
  SitStatsServer server(std::move(catalog), options);
  Status started = server.Start();
  EXPECT_EQ(started.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(started.message().find(corrupt), std::string::npos)
      << started.message();
  EXPECT_FALSE(std::filesystem::exists(socket_path_));
  std::filesystem::remove_all(dir);
}

TEST_F(ServerTest, PingStatsAndParseErrors) {
  StartServer();
  SitStatsClient client = Connect();
  EXPECT_TRUE(client.Ping().ok());
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("sits=0"), std::string::npos);
  // Protocol errors come back as typed ERR responses, connection intact.
  EXPECT_EQ(client.CallRaw("BOGUS").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.CallRaw("ESTIMATE one two").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.CallRaw("BUILD x.y lo=").status().code(),
            StatusCode::kInvalidArgument);
  // 2^32 + 100 buckets: rejected, not wrapped to a 100-bucket build.
  EXPECT_EQ(client.CallRaw(std::string("BUILD ") + kSpec +
                           " buckets=4294967396")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server_->num_sits(), 0u);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, BuildThenEstimateUsesSitAndCache) {
  StartServer();
  SitStatsClient client = Connect();

  // Before any SIT exists the estimate falls back to propagation.
  SitStatsClient::EstimateReply before =
      client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
  EXPECT_GT(before.cardinality, 0.0);
  EXPECT_FALSE(before.cached);

  SitStatsClient::BuildReply built = client.Build(kSpec).ValueOrDie();
  EXPECT_GT(built.num_buckets, 0u);
  EXPECT_EQ(built.catalog_sits, 1u);
  EXPECT_EQ(server_->num_sits(), 1u);

  // The build invalidated the cache: first post-build estimate computes
  // (now answered by the SIT), the repeat is a cache hit with the same
  // cardinality.
  SitStatsClient::EstimateReply first =
      client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.provenance, "sit");
  SitStatsClient::EstimateReply second =
      client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
  EXPECT_TRUE(second.cached);
  EXPECT_DOUBLE_EQ(second.cardinality, first.cardinality);

  // Another build invalidates again.
  ASSERT_TRUE(client.Build(kSpec2).status().ok());
  SitStatsClient::EstimateReply after =
      client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
  EXPECT_FALSE(after.cached);
  EXPECT_GE(server_->cache_stats().invalidations, 2u);
}

TEST_F(ServerTest, ConcurrentEstimatesDuringBackgroundBuilds) {
  StartServer();
  // One writer connection issues builds while reader threads hammer
  // estimates; every request must succeed (readers share the catalog
  // lock, the writer holds it only for SitCatalog::Add).
  std::thread builder([&] {
    SitStatsClient client = Connect();
    ASSERT_TRUE(client.Build(kSpec).status().ok());
    ASSERT_TRUE(client.Build(kSpec2).status().ok());
  });
  constexpr int kReaders = 4;
  constexpr int kCallsPerReader = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      SitStatsClient client = Connect();
      for (int call = 0; call < kCallsPerReader; ++call) {
        Result<SitStatsClient::EstimateReply> reply =
            client.Estimate(kSpec, 0.0, 1e6);
        if (!reply.ok() || reply->cardinality <= 0.0) failures++;
      }
    });
  }
  builder.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->num_sits(), 2u);
}

TEST_F(ServerTest, FullBuildQueueRejectsWithResourceExhausted) {
  ServerOptions options;
  options.build_threads = 1;
  options.build_queue_capacity = 1;
  StartServer(options);
  // Occupy the single build worker, then fill the single queue slot; the
  // third request must bounce at admission instead of queueing unboundedly.
  std::thread occupant([&] {
    SitStatsClient client = Connect();
    EXPECT_TRUE(client.Sleep(600).ok());
  });
  std::this_thread::sleep_for(milliseconds(100));  // worker now busy
  std::thread queued([&] {
    SitStatsClient client = Connect();
    EXPECT_TRUE(client.Sleep(100).ok());
  });
  std::this_thread::sleep_for(milliseconds(100));  // queue slot now taken
  SitStatsClient client = Connect();
  Result<std::string> rejected = client.Sleep(10);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // Estimate-class requests have their own queue and still flow.
  EXPECT_TRUE(client.Ping().ok());
  occupant.join();
  queued.join();
}

TEST_F(ServerTest, RequestTimeoutReportsDeadlineExceeded) {
  StartServer();
  SitStatsClient client = Connect();
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  Result<std::string> slept = client.Sleep(/*ms=*/60'000, /*timeout_ms=*/50);
  ASSERT_FALSE(slept.ok());
  EXPECT_EQ(slept.status().code(), StatusCode::kDeadlineExceeded);
  // The token's deadline ended the wait: the full minute never elapsed.
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(30'000));
  // The worker survived to serve the next request.
  EXPECT_TRUE(client.Sleep(1).ok());
}

TEST_F(ServerTest, FinishedRequestsReleaseTheirDeadlines) {
  StartServer();
  SitStatsClient client = Connect();
  // Each request finishes long before its ten-minute deadline, which
  // lives in the request's own token: nothing outlives the request.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Sleep(/*ms=*/1, /*timeout_ms=*/600'000).ok());
  }
  // A timed estimate goes through the same deadline path.
  ASSERT_TRUE(client.Estimate(kSpec, 0.0, 1e6, /*timeout_ms=*/600'000).ok());
}

TEST_F(ServerTest, StopReleasesATimedSleepPromptly) {
  StartServer();
  SitStatsClient client = Connect();
  Result<std::string> slept = std::string();
  std::thread sleeper([&] {
    slept = client.Sleep(/*ms=*/60'000, /*timeout_ms=*/600'000);
  });
  // Let the worker pick the SLEEP up and start waiting on its token.
  std::this_thread::sleep_for(milliseconds(200));
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  // The request's token is linked to the stop token: Stop() cancels it and
  // wakes the wait at once, long before the sleep or its deadline ends.
  server_->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(30'000));
  sleeper.join();
  ASSERT_FALSE(slept.ok());
  EXPECT_EQ(slept.status().code(), StatusCode::kCancelled);
}

/// The token following "<key>=" in a space-separated payload; "" when
/// absent.
std::string PayloadField(const std::string& payload, const std::string& key) {
  for (const std::string& token : Split(payload, ' ')) {
    if (token.rfind(key + "=", 0) == 0) return token.substr(key.size() + 1);
  }
  return "";
}

TEST_F(ServerTest, CachedEstimateAnswersLikeTheUncachedOne) {
  StartServer();
  SitStatsClient client = Connect();
  ASSERT_TRUE(client.Build(kSpec).status().ok());
  const std::string line = std::string("ESTIMATE ") + kSpec + " 17.25 4321.5";
  Result<std::string> miss = client.CallRaw(line);
  Result<std::string> hit = client.CallRaw(line);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(PayloadField(*miss, "cached"), "0") << *miss;
  EXPECT_EQ(PayloadField(*hit, "cached"), "1") << *hit;
  ASSERT_FALSE(PayloadField(*miss, "cardinality").empty()) << *miss;
  EXPECT_EQ(PayloadField(*hit, "cardinality"),
            PayloadField(*miss, "cardinality"));
  EXPECT_EQ(PayloadField(*miss, "provenance"), "sit");
  EXPECT_EQ(PayloadField(*hit, "provenance"), "sit");

  // Both responses left the same estimate in the feedback ledger.
  for (const std::string* reply : {&*miss, &*hit}) {
    Result<std::string> feedback = client.CallRaw(
        "ACCURACY " + PayloadField(*reply, "estimate_id") + " true_card=1000");
    ASSERT_TRUE(feedback.ok()) << feedback.status().ToString();
    EXPECT_EQ(PayloadField(*feedback, "estimate"),
              PayloadField(*miss, "cardinality"))
        << *feedback;
    EXPECT_EQ(PayloadField(*feedback, "provenance"), "sit") << *feedback;
  }
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  SitStatsClient client = Connect();
  // A SLEEP and two estimate-class requests dispatched back-to-back
  // resolve out of order internally (different classes and workers), but
  // responses must come back in request order.
  ASSERT_TRUE(client.Send("SLEEP 150").ok());
  ASSERT_TRUE(client.Send("PING").ok());
  ASSERT_TRUE(client.Send("STATS").ok());
  Result<std::string> first = client.ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_NE(first->find("slept_ms=150"), std::string::npos)
      << "the PING finished long before the SLEEP, yet SLEEP answers first";
  Result<std::string> second = client.ReadResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "pong");
  Result<std::string> third = client.ReadResponse();
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third->find("sits="), std::string::npos);
}

/// The value of the first exposition sample named `metric`, or -1.
double ScrapeValue(const std::string& exposition, const std::string& metric) {
  std::istringstream lines(exposition);
  std::string line;
  const std::string prefix = metric + " ";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return ParseDouble(line.substr(prefix.size())).ValueOrDie();
    }
  }
  return -1.0;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST_F(ServerTest, MetricsScrapeExposesMonotonicCounters) {
  StartServer();
  SitStatsClient client = Connect();
  ASSERT_TRUE(client.Ping().ok());
  Result<std::string> first = client.Metrics();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Prometheus text exposition with typed families.
  EXPECT_NE(first->find("# TYPE sitstats_server_requests_PING counter"),
            std::string::npos)
      << *first;
  const double pings_before =
      ScrapeValue(*first, "sitstats_server_requests_PING");
  ASSERT_GE(pings_before, 1.0);

  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Ping().ok());
  Result<std::string> second = client.Metrics();
  ASSERT_TRUE(second.ok());
  // The global registry persists across tests, so assert monotonicity
  // rather than absolute values.
  EXPECT_GE(ScrapeValue(*second, "sitstats_server_requests_PING"),
            pings_before + 2.0);
  // Per-verb latency: lifetime histogram plus rolling-window summary.
  EXPECT_NE(second->find("# TYPE sitstats_server_request_ms_PING histogram"),
            std::string::npos)
      << *second;
  EXPECT_NE(
      second->find("# TYPE sitstats_server_request_ms_PING_window summary"),
      std::string::npos)
      << *second;
  EXPECT_NE(second->find("_window{quantile=\"0.99\"}"), std::string::npos)
      << *second;
  // The scrape counts itself.
  EXPECT_GE(ScrapeValue(*second, "sitstats_server_requests_METRICS"), 1.0);
}

TEST_F(ServerTest, AccuracyFeedbackRoundTripRecordsQError) {
  StartServer();
  SitStatsClient client = Connect();
  ASSERT_TRUE(client.Build(kSpec).status().ok());

  SitStatsClient::EstimateReply est =
      client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
  ASSERT_FALSE(est.estimate_id.empty());
  ASSERT_FALSE(est.trace_id.empty());
  for (char c : est.trace_id) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)))
        << est.trace_id;
  }

  // Feeding back the estimate itself as the truth gives q-error 1.
  SitStatsClient::AccuracyReply exact =
      client.Accuracy(est.estimate_id, est.cardinality).ValueOrDie();
  EXPECT_DOUBLE_EQ(exact.qerror, 1.0);
  EXPECT_DOUBLE_EQ(exact.estimate, est.cardinality);
  EXPECT_EQ(exact.provenance, "sit");

  // A cached repeat still mints a fresh ledger slot.
  SitStatsClient::EstimateReply repeat =
      client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
  EXPECT_TRUE(repeat.cached);
  EXPECT_NE(repeat.estimate_id, est.estimate_id);
  SitStatsClient::AccuracyReply off =
      client.Accuracy(repeat.estimate_id, repeat.cardinality * 4.0)
          .ValueOrDie();
  EXPECT_NEAR(off.qerror, 4.0, 1e-9);

  // Feedback consumes the slot: a second report is NotFound, as is an id
  // the server never issued.
  EXPECT_EQ(client.Accuracy(repeat.estimate_id, 1.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Accuracy("e999999", 1.0).status().code(),
            StatusCode::kNotFound);
  // The connection survives the typed errors.
  EXPECT_TRUE(client.Ping().ok());

  // The q-error landed in the per-estimator histograms.
  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(ScrapeValue(*metrics, "sitstats_accuracy_feedback_sit"), 2.0);
  EXPECT_GE(ScrapeValue(*metrics, "sitstats_accuracy_feedback_all"), 2.0);
  EXPECT_NE(
      metrics->find("# TYPE sitstats_accuracy_qerror_sit histogram"),
      std::string::npos)
      << *metrics;
}

TEST_F(ServerTest, TraceSessionSharesOneTraceIdAcrossSpans) {
  StartServer();
  SitStatsClient client = Connect();
  ASSERT_TRUE(client.Build(kSpec).status().ok());
  ASSERT_EQ(client.TraceCtl("on").ValueOrDie(), "trace=on");

  SitStatsClient::EstimateReply est =
      client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
  ASSERT_FALSE(est.trace_id.empty());

  const std::string trace_path = socket_path_ + ".trace.json";
  Result<std::string> dumped = client.TraceCtl("dump", trace_path);
  ASSERT_TRUE(dumped.ok()) << dumped.status().ToString();
  EXPECT_NE(dumped->find("trace_written=" + trace_path), std::string::npos);
  EXPECT_EQ(client.TraceCtl("off").ValueOrDie(), "trace=off");
  EXPECT_EQ(client.TraceCtl("sideways").status().code(),
            StatusCode::kInvalidArgument);

  std::string trace = ReadWholeFile(trace_path);
  std::remove(trace_path.c_str());
  ASSERT_FALSE(trace.empty());
  // The request's lifecycle is reconstructable: its queue-wait span and
  // its execution spans (catalog read lock) share the estimate's id.
  EXPECT_NE(trace.find("server.queue_wait"), std::string::npos) << trace;
  EXPECT_NE(trace.find("server.catalog.read_lock"), std::string::npos)
      << trace;
  EXPECT_GE(CountOccurrences(trace, "\"" + est.trace_id + "\""), 2u)
      << "estimate trace id " << est.trace_id
      << " should tag both the queue-wait and execution spans: " << trace;
}

TEST_F(ServerTest, SlowAndInaccurateRequestsLandInTheStructuredLog) {
  ServerOptions options;
  // Sub-microsecond SLO: every request is a violation by construction.
  options.slo_ms = 1e-6;
  options.qerror_log_threshold = 4.0;
  options.slow_log_path =
      "/tmp/sitstats_server_test_" +
      std::to_string(reinterpret_cast<uintptr_t>(this)) + ".slow.jsonl";
  StartServer(options);
  {
    SitStatsClient client = Connect();
    ASSERT_TRUE(client.Ping().ok());
    SitStatsClient::EstimateReply est =
        client.Estimate(kSpec, 0.0, 1e6).ValueOrDie();
    // 100x off: far past the q-error logging threshold.
    ASSERT_TRUE(
        client.Accuracy(est.estimate_id, est.cardinality * 100.0).ok());
    ASSERT_TRUE(client.Sleep(1).ok());
  }
  // Snapshot only after the queues drain: Stop() joins every worker, so
  // the log is complete when read.
  server_->Stop();
  EXPECT_TRUE(server_->TakeTransportErrors().empty());
  EXPECT_TRUE(server_->ValidateCatalog().ok());
  server_.reset();

  std::string log = ReadWholeFile(options.slow_log_path);
  std::remove(options.slow_log_path.c_str());
  ASSERT_FALSE(log.empty());
  // Every request blew the SLO; both request classes are logged.
  EXPECT_GE(CountOccurrences(log, "\"kind\": \"slow_request\""), 4u) << log;
  EXPECT_NE(log.find("\"verb\": \"PING\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"verb\": \"SLEEP\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"trace_id\": \""), std::string::npos) << log;
  EXPECT_NE(log.find("\"latency_ms\": "), std::string::npos) << log;
  // The 100x-off feedback produced an inaccurate_estimate record with the
  // full reproduction context.
  EXPECT_NE(log.find("\"kind\": \"inaccurate_estimate\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"qerror\": 100"), std::string::npos) << log;
  EXPECT_NE(log.find("\"spec\": \"" + std::string(kSpec) + "\""),
            std::string::npos)
      << log;
}

TEST_F(ServerTest, ShutdownRequestStopsTheServer) {
  StartServer();
  SitStatsClient client = Connect();
  EXPECT_TRUE(client.Shutdown().ok());
  EXPECT_TRUE(server_->stop_token().WaitForCancellation(milliseconds(5'000)));
  server_->Stop();
  EXPECT_TRUE(server_->TakeTransportErrors().empty());
  EXPECT_TRUE(server_->ValidateCatalog().ok());
  server_.reset();
}

TEST(ServerOptionsTest, StartRejectsOutOfRangeWorkerThreads) {
  // Out-of-range options fail before Start binds the socket or spawns a
  // thread: cap + 1 build workers, zero estimate workers, and build
  // defaults every BUILD would fail on.
  const std::string socket_path = "/tmp/sitstats_server_threads_test.sock";
  std::remove(socket_path.c_str());
  ServerOptions too_many;
  too_many.build_threads = kMaxThreads + 1;
  ServerOptions none;
  none.estimate_threads = 0;
  std::vector<ServerOptions> rejected = {too_many, none};
  for (double rate : {0.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    ServerOptions bad_rate;
    bad_rate.build_defaults.sampling_rate = rate;
    rejected.push_back(bad_rate);
  }
  ServerOptions no_buckets;
  no_buckets.build_defaults.histogram_spec.num_buckets = 0;
  rejected.push_back(no_buckets);
  for (ServerOptions options : rejected) {
    options.socket_path = socket_path;
    TpchLiteSpec spec;
    spec.num_customers = 10;
    spec.num_orders = 20;
    SitStatsServer server(MakeTpchLiteDatabase(spec).ValueOrDie(), options);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(socket_path));
  }
}

}  // namespace
}  // namespace sitstats
