#include "server/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/string_util.h"

namespace sitstats {

namespace {

Status ErrnoError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Splits a "key=value key=value" payload and returns the value for `key`
/// (payload values never contain spaces).
Result<std::string> PayloadField(const std::string& payload,
                                 const std::string& key) {
  for (const std::string& token : Split(payload, ' ')) {
    if (token.rfind(key + "=", 0) == 0) {
      return token.substr(key.size() + 1);
    }
  }
  return Status::Internal("response payload missing field '" + key +
                          "': " + payload);
}

Result<double> PayloadDouble(const std::string& payload,
                             const std::string& key) {
  SITSTATS_ASSIGN_OR_RETURN(std::string text, PayloadField(payload, key));
  return ParseDouble(text);
}

/// A `key=1` flag: true for "1", false for any other value.
Result<bool> PayloadFlag(const std::string& payload, const std::string& key) {
  Result<std::string> text = PayloadField(payload, key);
  if (!text.ok()) return text.status();
  return *text == "1";
}

}  // namespace

Result<SitStatsClient> SitStatsClient::Connect(
    const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  SITSTATS_FAULT_SITE("client.connect");
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoError("socket(AF_UNIX)");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status error = ErrnoError("connect(" + socket_path + ")");
    ::close(fd);
    return error;
  }
  return SitStatsClient(fd);
}

SitStatsClient::~SitStatsClient() {
  if (fd_ >= 0) ::close(fd_);
}

SitStatsClient::SitStatsClient(SitStatsClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), input_(std::move(other.input_)) {}

SitStatsClient& SitStatsClient::operator=(SitStatsClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    input_ = std::move(other.input_);
  }
  return *this;
}

Result<std::string> SitStatsClient::ReadLine() {
  // Fault site outside the recv loop: one hit per logical read, not one
  // per kernel short-read, so sweep hit counts stay deterministic.
  SITSTATS_FAULT_SITE("client.recv");
  while (true) {
    size_t newline = input_.find('\n');
    if (newline != std::string::npos) {
      std::string line = input_.substr(0, newline);
      input_.erase(0, newline + 1);
      return line;
    }
    char buffer[4096];
    ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      input_.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IOError("server closed the connection");
    }
    if (errno == EINTR) continue;
    return ErrnoError("recv");
  }
}

Result<std::string> SitStatsClient::ReadBytes(size_t n) {
  SITSTATS_FAULT_SITE("client.recv");
  while (input_.size() < n) {
    char buffer[4096];
    ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (got > 0) {
      input_.append(buffer, static_cast<size_t>(got));
      continue;
    }
    if (got == 0) {
      return Status::IOError("server closed the connection mid-body");
    }
    if (errno == EINTR) continue;
    return ErrnoError("recv");
  }
  std::string body = input_.substr(0, n);
  input_.erase(0, n);
  return body;
}

Status SitStatsClient::Send(const std::string& request_line) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  SITSTATS_FAULT_SITE("client.send");
  std::string wire = request_line;
  wire.push_back('\n');
  size_t off = 0;
  while (off < wire.size()) {
    ssize_t n =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return ErrnoError("send");
  }
  return Status::OK();
}

Result<std::string> SitStatsClient::ReadResponse() {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  SITSTATS_ASSIGN_OR_RETURN(std::string line, ReadLine());
  SITSTATS_ASSIGN_OR_RETURN(std::string payload, ParseResponse(line));
  // METRICS framing: the header announces a multi-line body of exactly
  // <n> bytes plus the response's terminating newline. Handling it here
  // keeps pipelined Send/ReadResponse sequences framing-correct.
  if (payload.rfind("metrics_bytes=", 0) == 0) {
    SITSTATS_ASSIGN_OR_RETURN(int64_t bytes,
                              ParseInt64(payload.substr(14)));
    if (bytes < 0 || bytes > (1 << 26)) {
      return Status::Internal("implausible metrics_bytes in '" + payload +
                              "'");
    }
    SITSTATS_ASSIGN_OR_RETURN(std::string body,
                              ReadBytes(static_cast<size_t>(bytes) + 1));
    if (body.empty() || body.back() != '\n') {
      return Status::Internal("metrics body missing terminator");
    }
    body.pop_back();
    return body;
  }
  return payload;
}

Result<std::string> SitStatsClient::CallRaw(
    const std::string& request_line) {
  SITSTATS_RETURN_IF_ERROR(Send(request_line));
  return ReadResponse();
}

Result<std::string> SitStatsClient::Call(const Request& request) {
  return CallRaw(FormatRequest(request));
}

Status SitStatsClient::Ping() { return CallRaw("PING").status(); }

Result<std::string> SitStatsClient::Stats() { return CallRaw("STATS"); }

Status SitStatsClient::Shutdown() { return CallRaw("SHUTDOWN").status(); }

Result<std::string> SitStatsClient::Metrics() { return CallRaw("METRICS"); }

Result<std::string> SitStatsClient::TraceCtl(const std::string& mode,
                                             const std::string& path) {
  std::string line = "TRACE " + mode;
  if (!path.empty()) line += " path=" + path;
  return CallRaw(line);
}

Result<SitStatsClient::AccuracyReply> SitStatsClient::Accuracy(
    const std::string& estimate_id, double true_card) {
  SITSTATS_ASSIGN_OR_RETURN(
      std::string payload,
      CallRaw("ACCURACY " + estimate_id +
              " true_card=" + FormatDouble(true_card, 17)));
  AccuracyReply reply;
  SITSTATS_ASSIGN_OR_RETURN(reply.qerror, PayloadDouble(payload, "qerror"));
  SITSTATS_ASSIGN_OR_RETURN(reply.estimate,
                            PayloadDouble(payload, "estimate"));
  SITSTATS_ASSIGN_OR_RETURN(reply.true_card,
                            PayloadDouble(payload, "true_card"));
  SITSTATS_ASSIGN_OR_RETURN(reply.provenance,
                            PayloadField(payload, "provenance"));
  return reply;
}

Result<SitStatsClient::EstimateReply> SitStatsClient::Estimate(
    const std::string& spec, double lo, double hi, uint64_t timeout_ms) {
  std::string line = "ESTIMATE " + spec + " " + FormatDouble(lo, 17) + " " +
                     FormatDouble(hi, 17);
  if (timeout_ms != 0) line += " timeout_ms=" + std::to_string(timeout_ms);
  SITSTATS_ASSIGN_OR_RETURN(std::string payload, CallRaw(line));
  EstimateReply reply;
  SITSTATS_ASSIGN_OR_RETURN(reply.cardinality,
                            PayloadDouble(payload, "cardinality"));
  SITSTATS_ASSIGN_OR_RETURN(reply.provenance,
                            PayloadField(payload, "provenance"));
  SITSTATS_ASSIGN_OR_RETURN(reply.cached, PayloadFlag(payload, "cached"));
  SITSTATS_ASSIGN_OR_RETURN(reply.estimate_id,
                            PayloadField(payload, "estimate_id"));
  SITSTATS_ASSIGN_OR_RETURN(reply.trace_id,
                            PayloadField(payload, "trace_id"));
  return reply;
}

Result<SitStatsClient::BuildReply> SitStatsClient::Build(
    const std::string& spec, const std::string& variant,
    uint64_t timeout_ms) {
  std::string line = "BUILD " + spec;
  if (!variant.empty()) line += " variant=" + variant;
  if (timeout_ms != 0) line += " timeout_ms=" + std::to_string(timeout_ms);
  SITSTATS_ASSIGN_OR_RETURN(std::string payload, CallRaw(line));
  BuildReply reply;
  SITSTATS_ASSIGN_OR_RETURN(reply.estimated_cardinality,
                            PayloadDouble(payload, "est_cardinality"));
  SITSTATS_ASSIGN_OR_RETURN(double buckets,
                            PayloadDouble(payload, "buckets"));
  reply.num_buckets = static_cast<size_t>(buckets);
  SITSTATS_ASSIGN_OR_RETURN(double sits, PayloadDouble(payload, "sits"));
  reply.catalog_sits = static_cast<size_t>(sits);
  return reply;
}

Result<std::string> SitStatsClient::Sleep(uint64_t ms, uint64_t timeout_ms) {
  std::string line = "SLEEP " + std::to_string(ms);
  if (timeout_ms != 0) line += " timeout_ms=" + std::to_string(timeout_ms);
  return CallRaw(line);
}

}  // namespace sitstats
