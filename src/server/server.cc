#include "server/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "estimator/accuracy.h"
#include "estimator/sit_estimator.h"
#include "query/spec_parse.h"
#include "scheduler/executor.h"
#include "telemetry/exposition.h"
#include "telemetry/sliding_window.h"
#include "telemetry/telemetry.h"

namespace sitstats {

namespace {

/// Cap on a single buffered request line; a peer that streams this much
/// without a newline is broken or hostile.
constexpr size_t kMaxLineBytes = 1 << 20;

/// Cap on the transport-error backlog between TakeTransportErrors calls;
/// a long-lived server without a caller draining the list must not
/// accumulate errors without bound.
constexpr size_t kMaxTransportErrors = 16;

Status ErrnoError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoError("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Writes all of `data`, riding out EINTR and (rare on a local socket)
/// EAGAIN. False on a dead peer.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 1000);
      continue;
    }
    return false;
  }
  return true;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

SitStatsServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

SitStatsServer::SitStatsServer(std::unique_ptr<Catalog> catalog,
                               ServerOptions options)
    : options_(std::move(options)),
      catalog_(std::move(catalog)),
      cache_(options_.cache_capacity),
      estimate_queue_(
          options_.estimate_queue_capacity, "estimate",
          &telemetry::MetricsRegistry::Global().GetGauge(
              "server.queue.estimate.depth")),
      build_queue_(options_.build_queue_capacity, "build",
                   &telemetry::MetricsRegistry::Global().GetGauge(
                       "server.queue.build.depth")),
      ledger_(options_.ledger_capacity),
      slow_log_(options_.slow_log_path) {}

SitStatsServer::~SitStatsServer() { Stop(); }

Status SitStatsServer::Start() {
  for (size_t threads : {options_.estimate_threads, options_.build_threads}) {
    if (threads == 0 || threads > kMaxThreads) {
      return Status::InvalidArgument(
          "server worker threads must be in [1, " +
          std::to_string(kMaxThreads) + "], got " + std::to_string(threads));
    }
  }
  // Every default BUILD would fail on these, so the server does not start.
  const SitBuildOptions& defaults = options_.build_defaults;
  if (!(defaults.sampling_rate > 0.0 && defaults.sampling_rate <= 1.0)) {
    return Status::InvalidArgument(
        "default sampling rate must be in (0, 1], got " +
        std::to_string(defaults.sampling_rate));
  }
  if (defaults.histogram_spec.num_buckets <= 0) {
    return Status::InvalidArgument(
        "default bucket count must be positive, got " +
        std::to_string(defaults.histogram_spec.num_buckets));
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("ServerOptions.socket_path is empty");
  }
  // Load every table before listening: a corrupt colfile fails the start,
  // and no request pays for a table's first use.
  for (const std::string& name : catalog_->TableNames()) {
    SITSTATS_RETURN_IF_ERROR(catalog_->GetTable(name).status());
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoError("socket(AF_UNIX)");
  Status setup = [&]() -> Status {
    SITSTATS_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return ErrnoError("bind(" + options_.socket_path + ")");
    }
    if (::listen(listen_fd_, 64) != 0) {
      return ErrnoError("listen(" + options_.socket_path + ")");
    }
    if (::pipe(wake_pipe_) != 0) return ErrnoError("pipe");
    SITSTATS_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[0]));
    SITSTATS_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[1]));
    return Status::OK();
  }();
  if (!setup.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    return setup;
  }

  poll_thread_ = std::thread([this] { PollLoop(); });
  auto spawn = [this](BoundedQueue<WorkItem>* queue, size_t threads) {
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this, queue] { WorkerLoop(queue); });
    }
  };
  spawn(&estimate_queue_, options_.estimate_threads);
  spawn(&build_queue_, options_.build_threads);
  SITSTATS_LOG(kInfo) << "sitstats-server listening on "
                     << options_.socket_path;
  return Status::OK();
}

void SitStatsServer::RequestStop() {
  if (stop_requested_.exchange(true)) return;
  stop_source_.Cancel();
  if (wake_pipe_[1] >= 0) {
    char byte = 1;
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
}

void SitStatsServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true)) return;
  RequestStop();
  if (poll_thread_.joinable()) poll_thread_.join();
  // Closed queues still hand out what they hold; those requests fail fast
  // via the cancelled server token.
  estimate_queue_.Close();
  build_queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ::unlink(options_.socket_path.c_str());
}

void SitStatsServer::PreloadSits(SitCatalog sits) {
  WriterLock lock(sit_mu_);
  sits_ = std::move(sits);
}

std::vector<Status> SitStatsServer::TakeTransportErrors() {
  MutexLock lock(transport_mu_);
  std::vector<Status> errors;
  errors.swap(transport_errors_);
  return errors;
}

void SitStatsServer::RecordTransportError(const Status& status) {
  SITSTATS_LOG(kWarning) << "server transport error: " << status;
  telemetry::MetricsRegistry::Global()
      .GetCounter("server.transport.errors")
      .Increment();
  MutexLock lock(transport_mu_);
  if (transport_errors_.size() < kMaxTransportErrors) {
    transport_errors_.push_back(status);
  }
}

Status SitStatsServer::ValidateCatalog() const {
  SITSTATS_RETURN_IF_ERROR(catalog_->ValidateConsistency());
  ReaderLock lock(sit_mu_);
  return sits_.ValidateConsistency();
}

size_t SitStatsServer::num_sits() const {
  ReaderLock lock(sit_mu_);
  return sits_.size();
}

std::string SitStatsServer::StatsPayload() const {
  EstimateCache::Stats cache = cache_.GetStats();
  return "sits=" + std::to_string(num_sits()) +
         " builds=" + std::to_string(builds_completed_.load()) +
         " requests=" + std::to_string(requests_total_.load()) +
         " rejected=" + std::to_string(requests_rejected_.load()) +
         " cache_hits=" + std::to_string(cache.hits) +
         " cache_misses=" + std::to_string(cache.misses) +
         " cache_entries=" + std::to_string(cache.entries) +
         " cache_invalidations=" + std::to_string(cache.invalidations) +
         " estimate_queue=" + std::to_string(estimate_queue_.size()) +
         " build_queue=" + std::to_string(build_queue_.size());
}

void SitStatsServer::PollLoop() {
  while (!stop_requested()) {
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      RecordTransportError(ErrnoError("poll"));
      break;
    }
    if (stop_requested()) break;
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if ((fds[0].revents & POLLIN) != 0) AcceptConnections();
    for (size_t i = 2; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto it = conns_.find(fds[i].fd);
      if (it == conns_.end()) continue;
      if (!ReadConnection(it->second)) conns_.erase(it);
    }
  }
  // Dropping the map closes each socket once its in-flight responses (if
  // any) release their references.
  conns_.clear();
}

void SitStatsServer::AcceptConnections() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      RecordTransportError(ErrnoError("accept"));
      return;
    }
    Status fault = SITSTATS_FAULT_CHECK("server.accept");
    if (!fault.ok()) {
      RecordTransportError(fault);
      ::close(fd);
      continue;
    }
    Status nonblocking = SetNonBlocking(fd);
    if (!nonblocking.ok()) {
      RecordTransportError(nonblocking);
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::make_shared<Connection>(fd));
  }
}

bool SitStatsServer::ReadConnection(const std::shared_ptr<Connection>& conn) {
  bool eof = false;
  char buffer[4096];
  while (true) {
    ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->input.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    RecordTransportError(ErrnoError("recv"));
    eof = true;
    break;
  }
  size_t newline;
  while ((newline = conn->input.find('\n')) != std::string::npos) {
    std::string line = conn->input.substr(0, newline);
    conn->input.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    Status fault = SITSTATS_FAULT_CHECK("server.read");
    if (!fault.ok()) {
      RecordTransportError(fault);
      CloseConnection(conn);
      return false;
    }
    DispatchLine(conn, line);
  }
  if (conn->input.size() > kMaxLineBytes) {
    RecordTransportError(
        Status::InvalidArgument("request line exceeds 1 MiB, dropping peer"));
    CloseConnection(conn);
    return false;
  }
  return !eof && !conn->closed.load(std::memory_order_acquire);
}

void SitStatsServer::DispatchLine(const std::shared_ptr<Connection>& conn,
                                  const std::string& line) {
  const uint64_t seq = conn->next_request_seq++;
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    DeliverResponse(conn, seq, FormatErrorResponse(parsed.status()));
    return;
  }
  telemetry::MetricsRegistry::Global()
      .GetCounter(std::string("server.requests.") +
                  RequestKindToString(parsed->kind))
      .Increment();
  BoundedQueue<WorkItem>& queue =
      parsed->IsEstimateClass() ? estimate_queue_ : build_queue_;
  Status admitted = queue.TryPush(
      WorkItem{conn, seq, std::move(parsed).ValueOrDie(),
               telemetry::MintTraceId(),
               telemetry::Tracer::Global().NowMicros()});
  if (!admitted.ok()) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    telemetry::MetricsRegistry::Global()
        .GetCounter("server.requests.rejected")
        .Increment();
    DeliverResponse(conn, seq, FormatErrorResponse(admitted));
  }
}

void SitStatsServer::Respond(const WorkItem& item, const Status& status,
                             const std::string& payload) {
  DeliverResponse(item.conn, item.seq,
                  status.ok() ? FormatOkResponse(payload)
                              : FormatErrorResponse(status));
}

void SitStatsServer::DeliverResponse(const std::shared_ptr<Connection>& conn,
                                     uint64_t seq, std::string line) {
  MutexLock lock(conn->write_mu);
  conn->pending.emplace(seq, std::move(line));
  while (true) {
    auto it = conn->pending.find(conn->next_response_seq);
    if (it == conn->pending.end()) return;
    std::string out = std::move(it->second);
    out.push_back('\n');
    conn->pending.erase(it);
    ++conn->next_response_seq;
    if (conn->closed.load(std::memory_order_acquire)) continue;
    Status fault = SITSTATS_FAULT_CHECK("server.write");
    if (!fault.ok()) {
      RecordTransportError(fault);
      conn->closed.store(true, std::memory_order_release);
      ::shutdown(conn->fd, SHUT_RDWR);
      continue;
    }
    if (!WriteAll(conn->fd, out)) {
      RecordTransportError(ErrnoError("send"));
      conn->closed.store(true, std::memory_order_release);
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
}

void SitStatsServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  conn->closed.store(true, std::memory_order_release);
  ::shutdown(conn->fd, SHUT_RDWR);
}

void SitStatsServer::WorkerLoop(BoundedQueue<WorkItem>* queue) {
  WorkItem item;
  while (queue->Pop(&item)) {
    Process(item);
    item = WorkItem{};  // release the connection reference while blocked
  }
}

void SitStatsServer::RecordQueueWait(const WorkItem& item,
                                     const char* class_label) {
  auto& tracer = telemetry::Tracer::Global();
  const uint64_t now_us = tracer.NowMicros();
  const uint64_t wait_us = now_us > item.enqueue_us
                               ? now_us - item.enqueue_us
                               : 0;
  telemetry::MetricsRegistry::Global()
      .GetHistogram(std::string("server.queue_wait.") + class_label + "_ms")
      .Record(static_cast<double>(wait_us) / 1000.0);
  if (!tracer.enabled()) return;
  // The worker was not running during the wait, so the span is
  // reconstructed after the fact from the admission timestamp.
  telemetry::TraceEvent event;
  event.name = "server.queue_wait";
  event.phase = 'X';
  event.ts_us = item.enqueue_us;
  event.dur_us = wait_us;
  event.tid = telemetry::CurrentTraceTid();
  event.trace_id = item.trace_id;
  event.args.emplace_back("class", class_label);
  tracer.Record(std::move(event));
}

void SitStatsServer::RecordRequestLatency(const WorkItem& item,
                                          double total_ms) {
  auto& registry = telemetry::MetricsRegistry::Global();
  const std::string verb = RequestKindToString(item.request.kind);
  registry.GetHistogram("server.request_ms." + verb).Record(total_ms);
  registry
      .GetWindowHistogram("server.request_ms." + verb + ".window",
                          options_.window_seconds * 1'000'000)
      .Record(total_ms, telemetry::Tracer::Global().NowMicros());
  if (total_ms > options_.slo_ms) {
    registry.GetCounter("server.slo.violations").Increment();
    registry.GetCounter("server.slo.violations." + verb).Increment();
  }
}

void SitStatsServer::LogSlowRequest(const WorkItem& item, double total_ms,
                                    const Status& status) {
  if (!slow_log_.enabled()) return;
  telemetry::LogRecord record;
  record.Str("kind", "slow_request")
      .Str("trace_id", telemetry::FormatTraceId(item.trace_id))
      .Str("verb", RequestKindToString(item.request.kind))
      .Str("request", FormatRequest(item.request))
      .Num("latency_ms", total_ms)
      .Num("slo_ms", options_.slo_ms)
      .Str("status", status.ok() ? "OK"
                                 : StatusCodeToString(status.code()));
  Status appended = slow_log_.Append(record);
  if (!appended.ok()) {
    SITSTATS_LOG(kWarning) << "slow log append failed: " << appended;
  }
}

void SitStatsServer::Process(const WorkItem& item) {
  const Request& request = item.request;
  const bool estimate_class = request.IsEstimateClass();
  telemetry::TraceIdScope trace_scope(item.trace_id);
  RecordQueueWait(item, estimate_class ? "estimate" : "build");
  SITSTATS_TRACE_SPAN(estimate_class ? "server.estimate_class"
                                     : "server.build_class");
  const auto start = std::chrono::steady_clock::now();
  Status fault = SITSTATS_FAULT_CHECK("server.dispatch");
  if (!fault.ok()) {
    Respond(item, fault, "");
    return;
  }
  // Only a request with a timeout pays for its own linked source, whose
  // deadline counts from `start`; the rest observe the server stop token
  // directly.
  CancellationToken cancel = stop_source_.token();
  if (request.timeout_ms > 0) {
    cancel = CancellationSource(
                 cancel, start + std::chrono::milliseconds(request.timeout_ms))
                 .token();
  }

  Result<std::string> payload = std::string();
  switch (request.kind) {
    case Request::Kind::kPing:
      payload = std::string("pong");
      break;
    case Request::Kind::kStats:
      payload = StatsPayload();
      break;
    case Request::Kind::kShutdown:
      payload = std::string("stopping");
      break;
    case Request::Kind::kEstimate:
      payload = HandleEstimate(item, cancel);
      break;
    case Request::Kind::kBuild:
      payload = HandleBuild(item, cancel);
      break;
    case Request::Kind::kSleep:
      payload = HandleSleep(item, cancel);
      break;
    case Request::Kind::kMetrics:
      payload = HandleMetrics();
      break;
    case Request::Kind::kTraceCtl:
      payload = HandleTraceCtl(item);
      break;
    case Request::Kind::kAccuracy:
      payload = HandleAccuracy(item);
      break;
  }
  const Status status = payload.ok() ? Status::OK() : payload.status();
  Respond(item, status, payload.ok() ? *payload : "");
  if (request.kind == Request::Kind::kShutdown) {
    // Answered first, so the client sees the acknowledgement.
    RequestStop();
    return;
  }
  telemetry::MetricsRegistry::Global()
      .GetHistogram(estimate_class ? "server.latency.estimate_ms"
                                   : "server.latency.build_ms")
      .Record(ElapsedMs(start));
  const double total_ms =
      static_cast<double>(telemetry::Tracer::Global().NowMicros() -
                          item.enqueue_us) /
      1000.0;
  RecordRequestLatency(item, total_ms);
  if (total_ms > options_.slo_ms) LogSlowRequest(item, total_ms, status);
}

Result<std::string> SitStatsServer::HandleEstimate(
    const WorkItem& item, const CancellationToken& cancel) {
  const Request& request = item.request;
  const std::string spec = FormatSitSpec(*request.descriptor);
  const std::string key = spec + "|" + FormatExact(request.lo) + "|" +
                          FormatExact(request.hi);

  CardinalityEstimator::Estimate estimate;
  const bool cached = cache_.Lookup(key, &estimate);
  if (!cached) {
    const uint64_t epoch = cache_.epoch();
    SITSTATS_RETURN_IF_ERROR(cancel.CheckCancelled("estimate"));
    {
      // Read-mostly path: estimates share the SIT catalog under the reader
      // lock and run concurrently with each other and with in-flight
      // builds (which only take the writer lock to register a finished
      // SIT).
      SITSTATS_TRACE_SPAN("server.catalog.read_lock");
      ReaderLock lock(sit_mu_);
      CardinalityEstimator estimator(catalog_.get(), &base_stats_, &sits_);
      SITSTATS_ASSIGN_OR_RETURN(
          estimate,
          estimator.EstimateRangeQuery(request.descriptor->query(),
                                       request.descriptor->attribute(),
                                       request.lo, request.hi));
    }
    cache_.Insert(epoch, key, estimate);
  }

  // The estimate_id is minted per response, never cached: an estimate
  // served twice must yield two distinct feedback slots, or the second
  // ACCURACY would silently target the first request's entry.
  LedgerEntry entry;
  entry.spec = spec;
  entry.lo = request.lo;
  entry.hi = request.hi;
  entry.estimate = estimate.cardinality;
  entry.provenance = ProvenanceToString(estimate.provenance);
  entry.trace_id = item.trace_id;
  const std::string payload = "cardinality=" +
                              FormatExact(estimate.cardinality) +
                              " provenance=" + entry.provenance +
                              (cached ? " cached=1" : " cached=0");
  return payload + " estimate_id=" + ledger_.Remember(std::move(entry)) +
         " trace_id=" + telemetry::FormatTraceId(item.trace_id);
}

Result<std::string> SitStatsServer::HandleMetrics() {
  SITSTATS_TRACE_SPAN("server.metrics_scrape");
  const std::string text = telemetry::ToPrometheusText(
      telemetry::MetricsRegistry::Global(),
      telemetry::Tracer::Global().NowMicros());
  // Length-prefixed framing: the exposition is multi-line, so the
  // response announces how many bytes follow its own header line.
  return "metrics_bytes=" + std::to_string(text.size()) + "\n" + text;
}

Result<std::string> SitStatsServer::HandleTraceCtl(const WorkItem& item) {
  auto& tracer = telemetry::Tracer::Global();
  const Request& request = item.request;
  if (request.trace_mode == "on") {
    tracer.SetEnabled(true);
    return std::string("trace=on");
  }
  if (request.trace_mode == "off") {
    tracer.SetEnabled(false);
    return std::string("trace=off");
  }
  SITSTATS_RETURN_IF_ERROR(tracer.WriteChromeTrace(request.trace_path));
  return "trace_written=" + request.trace_path +
         " events=" + std::to_string(tracer.num_events());
}

Result<std::string> SitStatsServer::HandleAccuracy(const WorkItem& item) {
  SITSTATS_ASSIGN_OR_RETURN(LedgerEntry entry,
                            ledger_.Take(item.request.estimate_id));
  const double qerror = QError(entry.estimate, item.request.true_card);
  RecordQError(entry.provenance.empty() ? "unknown" : entry.provenance,
               qerror);
  RecordQError("all", qerror);
  if (slow_log_.enabled() && qerror > options_.qerror_log_threshold) {
    telemetry::LogRecord record;
    record.Str("kind", "inaccurate_estimate")
        .Str("trace_id", telemetry::FormatTraceId(entry.trace_id))
        .Str("estimate_id", entry.estimate_id)
        .Str("spec", entry.spec)
        .Num("lo", entry.lo)
        .Num("hi", entry.hi)
        .Num("estimate", entry.estimate)
        .Num("true_card", item.request.true_card)
        .Num("qerror", qerror)
        .Str("provenance", entry.provenance);
    Status appended = slow_log_.Append(record);
    if (!appended.ok()) {
      SITSTATS_LOG(kWarning) << "accuracy log append failed: " << appended;
    }
  }
  return "qerror=" + FormatExact(qerror) +
         " estimate=" + FormatExact(entry.estimate) +
         " true_card=" + FormatExact(item.request.true_card) +
         " provenance=" + entry.provenance;
}

Result<std::string> SitStatsServer::HandleBuild(
    const WorkItem& item, const CancellationToken& cancel) {
  const Request& request = item.request;
  SitBuildOptions build = options_.build_defaults;
  if (request.variant.has_value()) build.variant = *request.variant;
  if (request.sampling_rate >= 0.0) {
    build.sampling_rate = request.sampling_rate;
  }
  if (request.num_buckets > 0) {
    build.histogram_spec.num_buckets = static_cast<int>(request.num_buckets);
  }
  build.cancel = cancel;
  SITSTATS_ASSIGN_OR_RETURN(
      Sit sit,
      CreateSit(catalog_.get(), &base_stats_, *request.descriptor, build));
  const std::string payload =
      "built=" + FormatSitSpec(*request.descriptor) +
      " est_cardinality=" + FormatExact(sit.estimated_cardinality) +
      " buckets=" + std::to_string(sit.histogram.num_buckets());
  size_t total;
  {
    SITSTATS_TRACE_SPAN("server.catalog.write_lock");
    WriterLock lock(sit_mu_);
    sits_.Add(std::move(sit));
    total = sits_.size();
  }
  // Invalidate after the writer lock drops: a racing estimate either saw
  // the old catalog (its insert is dropped by the epoch check) or the new
  // one (its cached answer is already correct).
  cache_.Invalidate();
  builds_completed_.fetch_add(1, std::memory_order_relaxed);
  return payload + " sits=" + std::to_string(total);
}

Result<std::string> SitStatsServer::HandleSleep(
    const WorkItem& item, const CancellationToken& cancel) {
  if (cancel.WaitForCancellation(
          std::chrono::milliseconds(item.request.sleep_ms))) {
    return cancel.CheckCancelled("sleep");
  }
  return "slept_ms=" + std::to_string(item.request.sleep_ms);
}

}  // namespace sitstats
