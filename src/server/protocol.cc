#include "server/protocol.h"

#include <vector>

#include "common/string_util.h"
#include "query/spec_parse.h"
#include "sit/serialization.h"

namespace sitstats {

namespace {

/// Applies one "key=value" option token to `request`; errors on unknown
/// keys so typos fail loudly instead of silently using a default.
Status ApplyOption(const std::string& token, Request* request) {
  size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("malformed option '" + token +
                                   "', expected key=value");
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  if (key == "timeout_ms") {
    SITSTATS_ASSIGN_OR_RETURN(int64_t parsed, ParseInt64(value));
    if (parsed < 0) {
      return Status::InvalidArgument("timeout_ms must be >= 0");
    }
    request->timeout_ms = static_cast<uint64_t>(parsed);
    return Status::OK();
  }
  if (key == "variant") {
    SITSTATS_ASSIGN_OR_RETURN(SweepVariant variant,
                              SweepVariantFromString(value));
    request->variant = variant;
    return Status::OK();
  }
  if (key == "rate") {
    SITSTATS_ASSIGN_OR_RETURN(double rate, ParseDouble(value));
    if (!(rate > 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument("rate must be in (0, 1]");
    }
    request->sampling_rate = rate;
    return Status::OK();
  }
  if (key == "buckets") {
    SITSTATS_ASSIGN_OR_RETURN(request->num_buckets, ParseBucketCount(value));
    return Status::OK();
  }
  return Status::InvalidArgument("unknown request option '" + key + "'");
}

Status ApplyOptions(const std::vector<std::string>& tokens, size_t start,
                    Request* request) {
  for (size_t i = start; i < tokens.size(); ++i) {
    SITSTATS_RETURN_IF_ERROR(ApplyOption(tokens[i], request));
  }
  return Status::OK();
}

std::string FormatCommonOptions(const Request& request) {
  std::string out;
  if (request.timeout_ms != 0) {
    out += " timeout_ms=" + std::to_string(request.timeout_ms);
  }
  if (request.variant.has_value()) {
    out += std::string(" variant=") + SweepVariantToString(*request.variant);
  }
  if (request.sampling_rate >= 0.0) {
    out += " rate=" + FormatExact(request.sampling_rate);
  }
  if (request.num_buckets >= 0) {
    out += " buckets=" + std::to_string(request.num_buckets);
  }
  return out;
}

}  // namespace

const char* RequestKindToString(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kPing:
      return "PING";
    case Request::Kind::kStats:
      return "STATS";
    case Request::Kind::kShutdown:
      return "SHUTDOWN";
    case Request::Kind::kEstimate:
      return "ESTIMATE";
    case Request::Kind::kBuild:
      return "BUILD";
    case Request::Kind::kSleep:
      return "SLEEP";
    case Request::Kind::kMetrics:
      return "METRICS";
    case Request::Kind::kTraceCtl:
      return "TRACE";
    case Request::Kind::kAccuracy:
      return "ACCURACY";
  }
  return "UNKNOWN";
}

Result<Request> ParseRequest(const std::string& line) {
  std::vector<std::string> tokens = Split(line, ' ');
  if (tokens.empty() || tokens[0].empty()) {
    return Status::InvalidArgument("empty request line");
  }
  const std::string& verb = tokens[0];
  Request request;
  if (verb == "PING" || verb == "STATS" || verb == "SHUTDOWN" ||
      verb == "METRICS") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument(verb + " takes no arguments");
    }
    request.kind = verb == "PING"      ? Request::Kind::kPing
                   : verb == "STATS"   ? Request::Kind::kStats
                   : verb == "METRICS" ? Request::Kind::kMetrics
                                       : Request::Kind::kShutdown;
    return request;
  }
  if (verb == "TRACE") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("TRACE needs on|off|dump");
    }
    request.kind = Request::Kind::kTraceCtl;
    request.trace_mode = tokens[1];
    if (request.trace_mode != "on" && request.trace_mode != "off" &&
        request.trace_mode != "dump") {
      return Status::InvalidArgument("TRACE mode must be on, off or dump");
    }
    for (size_t i = 2; i < tokens.size(); ++i) {
      if (tokens[i].rfind("path=", 0) == 0 && tokens[i].size() > 5) {
        request.trace_path = tokens[i].substr(5);
        continue;
      }
      return Status::InvalidArgument("unknown TRACE option '" + tokens[i] +
                                     "'");
    }
    if (request.trace_mode == "dump" && request.trace_path.empty()) {
      return Status::InvalidArgument("TRACE dump needs path=<file>");
    }
    return request;
  }
  if (verb == "ACCURACY") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument(
          "ACCURACY needs <estimate-id> true_card=<n>");
    }
    request.kind = Request::Kind::kAccuracy;
    request.estimate_id = tokens[1];
    if (tokens[2].rfind("true_card=", 0) != 0) {
      return Status::InvalidArgument(
          "ACCURACY second argument must be true_card=<n>");
    }
    SITSTATS_ASSIGN_OR_RETURN(request.true_card,
                              ParseDouble(tokens[2].substr(10)));
    if (!(request.true_card >= 0.0)) {
      return Status::InvalidArgument("true_card must be >= 0");
    }
    return request;
  }
  if (verb == "ESTIMATE") {
    if (tokens.size() < 4) {
      return Status::InvalidArgument(
          "ESTIMATE needs <sit-spec> <lo> <hi>, got '" + line + "'");
    }
    request.kind = Request::Kind::kEstimate;
    SITSTATS_ASSIGN_OR_RETURN(SitDescriptor descriptor,
                              ParseSitSpec(tokens[1]));
    request.descriptor.emplace(std::move(descriptor));
    SITSTATS_ASSIGN_OR_RETURN(request.lo, ParseDouble(tokens[2]));
    SITSTATS_ASSIGN_OR_RETURN(request.hi, ParseDouble(tokens[3]));
    SITSTATS_RETURN_IF_ERROR(ApplyOptions(tokens, 4, &request));
    return request;
  }
  if (verb == "BUILD") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("BUILD needs <sit-spec>");
    }
    request.kind = Request::Kind::kBuild;
    SITSTATS_ASSIGN_OR_RETURN(SitDescriptor descriptor,
                              ParseSitSpec(tokens[1]));
    request.descriptor.emplace(std::move(descriptor));
    SITSTATS_RETURN_IF_ERROR(ApplyOptions(tokens, 2, &request));
    return request;
  }
  if (verb == "SLEEP") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("SLEEP needs <ms>");
    }
    request.kind = Request::Kind::kSleep;
    SITSTATS_ASSIGN_OR_RETURN(int64_t ms, ParseInt64(tokens[1]));
    if (ms < 0) return Status::InvalidArgument("SLEEP ms must be >= 0");
    request.sleep_ms = static_cast<uint64_t>(ms);
    SITSTATS_RETURN_IF_ERROR(ApplyOptions(tokens, 2, &request));
    return request;
  }
  return Status::InvalidArgument("unknown request verb '" + verb + "'");
}

std::string FormatRequest(const Request& request) {
  switch (request.kind) {
    case Request::Kind::kPing:
    case Request::Kind::kStats:
    case Request::Kind::kShutdown:
      return RequestKindToString(request.kind);
    case Request::Kind::kEstimate:
      return "ESTIMATE " + FormatSitSpec(*request.descriptor) + " " +
             FormatExact(request.lo) + " " + FormatExact(request.hi) +
             FormatCommonOptions(request);
    case Request::Kind::kBuild:
      return "BUILD " + FormatSitSpec(*request.descriptor) +
             FormatCommonOptions(request);
    case Request::Kind::kSleep:
      return "SLEEP " + std::to_string(request.sleep_ms) +
             FormatCommonOptions(request);
    case Request::Kind::kMetrics:
      return "METRICS";
    case Request::Kind::kTraceCtl:
      return "TRACE " + request.trace_mode +
             (request.trace_path.empty() ? ""
                                         : " path=" + request.trace_path);
    case Request::Kind::kAccuracy:
      return "ACCURACY " + request.estimate_id +
             " true_card=" + FormatExact(request.true_card);
  }
  return "";
}

std::string FormatOkResponse(const std::string& payload) {
  return payload.empty() ? "OK" : "OK " + payload;
}

std::string FormatErrorResponse(const Status& status) {
  return std::string("ERR ") + StatusCodeToString(status.code()) + " " +
         status.message();
}

Result<std::string> ParseResponse(const std::string& line) {
  if (line == "OK") return std::string();
  if (line.rfind("OK ", 0) == 0) return line.substr(3);
  if (line.rfind("ERR ", 0) == 0) {
    const std::string rest = line.substr(4);
    size_t space = rest.find(' ');
    const std::string code_name =
        space == std::string::npos ? rest : rest.substr(0, space);
    const std::string message =
        space == std::string::npos ? "" : rest.substr(space + 1);
    StatusCode code;
    if (!StatusCodeFromString(code_name, &code) || code == StatusCode::kOk) {
      return Status::Internal("malformed error response '" + line + "'");
    }
    return Status(code, message);
  }
  return Status::Internal("malformed response line '" + line + "'");
}

}  // namespace sitstats
