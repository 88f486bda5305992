#ifndef SITSTATS_SERVER_SERVER_H_
#define SITSTATS_SERVER_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/sync.h"
#include "server/accuracy_log.h"
#include "server/estimate_cache.h"
#include "server/protocol.h"
#include "server/request_queue.h"
#include "telemetry/structured_log.h"
#include "sit/base_stats.h"
#include "sit/creator.h"
#include "sit/sit_catalog.h"
#include "storage/catalog.h"

namespace sitstats {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket (created on
  /// Start, unlinked on Stop).
  std::string socket_path;
  /// Dedicated threads serving the read-mostly estimate class (PING /
  /// STATS / ESTIMATE / METRICS / TRACE / ACCURACY / SHUTDOWN).
  size_t estimate_threads = 2;
  /// Dedicated threads executing SIT builds (BUILD / SLEEP). Start()
  /// rejects either count outside [1, kMaxThreads].
  size_t build_threads = 2;
  /// Admission-control bounds; a full queue rejects with
  /// ResourceExhausted instead of queueing without limit.
  size_t estimate_queue_capacity = 64;
  size_t build_queue_capacity = 4;
  /// LRU capacity of the estimate-result cache.
  size_t cache_capacity = 256;
  /// Defaults for BUILD requests; per-request options override variant /
  /// rate / buckets. Start() rejects a sampling rate outside (0, 1] and a
  /// bucket count below 1.
  SitBuildOptions build_defaults;
  /// Per-verb latency SLO: requests slower than this bump the
  /// "server.slo.violations.<VERB>" counters, the burn signal a scraper
  /// alerts on. Measured from queue admission to response, so queue wait
  /// counts against the budget (it is latency the client saw).
  double slo_ms = 100.0;
  /// Width of the rolling latency windows behind the per-verb
  /// p50/p90/p99 summaries in METRICS output.
  uint64_t window_seconds = 60;
  /// JSONL sink for slow (> slo_ms) and inaccurate (q-error >
  /// qerror_log_threshold) requests; empty disables the log.
  std::string slow_log_path;
  double qerror_log_threshold = 4.0;
  /// How many recent ESTIMATE responses stay eligible for ACCURACY
  /// feedback before the oldest is evicted.
  size_t ledger_capacity = 1024;
};

/// sitstats-server: a long-running process answering cardinality-estimate
/// and SIT-build requests over a local Unix-domain socket (protocol in
/// server/protocol.h).
///
/// Architecture — one poll(2) event loop plus two request classes, each a
/// bounded queue drained by its own dedicated worker threads:
///
///   poll thread        accepts connections, reads request lines, parses,
///                      and routes each request through admission control
///                      into its class queue; never blocks on work.
///   estimate class     options.estimate_threads workers serve PING /
///                      STATS / ESTIMATE / METRICS / TRACE / ACCURACY /
///                      SHUTDOWN. Estimates take the SIT catalog's reader
///                      lock only — they run concurrently with each other
///                      and with builds.
///   build class        options.build_threads workers serve BUILD / SLEEP
///                      from a (small) queue; a completed build takes the
///                      writer lock for the few microseconds of
///                      SitCatalog::Add, then invalidates the estimate
///                      cache.
///
/// Both classes run the same worker loop, and every dequeued request goes
/// through Process(); the class only picks the queue and the metric and
/// span labels. Responses are delivered in request order per connection,
/// so a client may pipeline. Every request may carry timeout_ms=N: its
/// CancellationToken is the server stop token plus a deadline N ms after
/// a worker picks it up, and the request's own poll sites (the sweep
/// scans' batch polls, SLEEP's wait, ESTIMATE's pre-compute check) report
/// DeadlineExceeded once it passes. No thread watches the deadlines.
///
/// Fault-injection sites (exercised by the fault sweep, which asserts the
/// server survives each): "server.accept" per accepted connection,
/// "server.read" per parsed request line, "server.dispatch" per executed
/// request, "server.write" per delivered response. Transport-level
/// injected faults close the affected connection and are recorded for
/// TakeTransportErrors(); dispatch faults surface to the client as ERR.
class SitStatsServer {
 public:
  SitStatsServer(std::unique_ptr<Catalog> catalog, ServerOptions options);
  ~SitStatsServer();

  SitStatsServer(const SitStatsServer&) = delete;
  SitStatsServer& operator=(const SitStatsServer&) = delete;

  /// Loads every catalog table, binds + listens and spawns the serving
  /// threads. Errors (out-of-range options, corrupt colfile, socket in
  /// use, bad path) surface here, not in the background.
  Status Start();

  /// Asynchronous stop: stops accepting, cancels in-flight work via the
  /// server token, wakes the poll loop. Safe from any thread, including
  /// workers (SHUTDOWN requests land here). Idempotent.
  void RequestStop();

  /// RequestStop + join every thread and drain the queues. After Stop the
  /// server can be inspected but not restarted. Called by the destructor.
  void Stop();

  /// Cancelled when RequestStop has been called — what external runners
  /// wait on.
  CancellationToken stop_token() const { return stop_source_.token(); }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Seeds the SIT store (e.g. from a saved statistics file) before
  /// Start().
  void PreloadSits(SitCatalog sits);

  /// Every transport-level error (injected or real) recorded since the
  /// last call: a bounded, in-order list, empty when none. The fault sweep
  /// scans the whole list for its injected marker: under an armed fault a
  /// real peer-reset can race in first, so first-error-wins alone is not
  /// deterministic.
  std::vector<Status> TakeTransportErrors();

  /// Self-check: storage invariants plus SitCatalog::ValidateConsistency
  /// under the reader lock. The fault sweep calls this after every
  /// injected server fault.
  Status ValidateCatalog() const;

  /// The "key=value ..." payload served for STATS.
  std::string StatsPayload() const;

  size_t num_sits() const;
  EstimateCache::Stats cache_stats() const { return cache_.GetStats(); }

 private:
  /// One accepted connection. The poll thread owns reads; workers deliver
  /// responses directly under write_mu (in seq order). The fd closes when
  /// the last reference drops, so a worker never writes into a recycled
  /// descriptor.
  struct Connection {
    explicit Connection(int fd_in) : fd(fd_in) {}
    ~Connection();

    const int fd;
    /// Read buffer (poll thread only).
    std::string input;
    uint64_t next_request_seq = 0;

    Mutex write_mu;
    uint64_t next_response_seq GUARDED_BY(write_mu) = 0;
    /// Responses completed out of order, waiting for their turn.
    std::map<uint64_t, std::string> pending GUARDED_BY(write_mu);
    std::atomic<bool> closed{false};
  };

  struct WorkItem {
    std::shared_ptr<Connection> conn;
    uint64_t seq = 0;
    Request request;
    /// Minted at accept/parse time; every span the request produces
    /// (queue wait, dispatch, catalog locks, sweep scans) carries it.
    uint64_t trace_id = 0;
    /// Tracer-epoch time of queue admission, so workers can reconstruct
    /// the queue-wait span they were not running during.
    uint64_t enqueue_us = 0;
  };

  void PollLoop();
  /// Pops and processes `queue`'s requests until it is closed and drained.
  void WorkerLoop(BoundedQueue<WorkItem>* queue);

  void AcceptConnections();
  /// Reads from `conn`; false when the connection is done (EOF, error, or
  /// injected read fault) and should be dropped from the poll set.
  bool ReadConnection(const std::shared_ptr<Connection>& conn);
  void DispatchLine(const std::shared_ptr<Connection>& conn,
                    const std::string& line);

  void Respond(const WorkItem& item, const Status& status,
               const std::string& payload);
  void DeliverResponse(const std::shared_ptr<Connection>& conn, uint64_t seq,
                       std::string line);
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  /// Serves one dequeued request of either class and delivers its
  /// response.
  void Process(const WorkItem& item);
  Result<std::string> HandleEstimate(const WorkItem& item,
                                     const CancellationToken& cancel);
  Result<std::string> HandleBuild(const WorkItem& item,
                                  const CancellationToken& cancel);
  Result<std::string> HandleSleep(const WorkItem& item,
                                  const CancellationToken& cancel);
  Result<std::string> HandleMetrics();
  Result<std::string> HandleTraceCtl(const WorkItem& item);
  Result<std::string> HandleAccuracy(const WorkItem& item);

  /// Emits the queue-wait span for `item` (enqueue to now) and records
  /// per-verb latency into the lifetime + rolling histograms and the SLO
  /// burn counter once the request finishes. `class_label` is "estimate"
  /// or "build" (the queue the request rode).
  void RecordQueueWait(const WorkItem& item, const char* class_label);
  void RecordRequestLatency(const WorkItem& item, double total_ms);
  /// Appends a slow-request or inaccurate-estimate record to the
  /// structured log (no-op when options_.slow_log_path is empty).
  void LogSlowRequest(const WorkItem& item, double total_ms,
                      const Status& status);

  void RecordTransportError(const Status& status);

  const ServerOptions options_;
  std::unique_ptr<Catalog> catalog_;
  BaseStatsCache base_stats_;

  /// Guards sits_ (readers: estimates + validation; writer: completed
  /// builds and PreloadSits).
  mutable SharedMutex sit_mu_;
  SitCatalog sits_ GUARDED_BY(sit_mu_);

  EstimateCache cache_;

  CancellationSource stop_source_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  /// Open connections, keyed by fd. Poll-thread only.
  std::map<int, std::shared_ptr<Connection>> conns_;

  BoundedQueue<WorkItem> estimate_queue_;
  BoundedQueue<WorkItem> build_queue_;

  std::thread poll_thread_;
  /// The estimate-class and build-class workers, each running WorkerLoop
  /// over its class queue.
  std::vector<std::thread> workers_;

  Mutex transport_mu_;
  /// In-order, bounded (kMaxTransportErrors) record of transport-level
  /// failures since the last TakeTransportErrors call.
  std::vector<Status> transport_errors_ GUARDED_BY(transport_mu_);

  /// Recent estimates awaiting ACCURACY feedback.
  EstimateLedger ledger_;
  /// Slow/inaccurate-request JSONL sink (disabled when the configured
  /// path is empty).
  telemetry::StructuredLog slow_log_;

  /// Request counters by verb (served in STATS and mirrored to the global
  /// metrics registry).
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> builds_completed_{0};
};

}  // namespace sitstats

#endif  // SITSTATS_SERVER_SERVER_H_
