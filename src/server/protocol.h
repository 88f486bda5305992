#ifndef SITSTATS_SERVER_PROTOCOL_H_
#define SITSTATS_SERVER_PROTOCOL_H_

#include <cstdint>

#include <optional>
#include <string>

#include "common/result.h"
#include "sit/sit.h"

namespace sitstats {

/// The sitstats-server wire protocol: newline-terminated ASCII lines in
/// both directions, one request per line, one response line per request,
/// delivered in request order per connection.
///
/// Requests (tokens separated by single spaces):
///
///   PING
///   STATS
///   SHUTDOWN
///   ESTIMATE <sit-spec> <lo> <hi> [key=value ...]
///   BUILD <sit-spec> [key=value ...]
///   SLEEP <ms> [key=value ...]
///   METRICS
///   TRACE on|off|dump [path=<file>]
///   ACCURACY <estimate-id> true_card=<n>
///
/// <sit-spec> is the ParseSitSpec grammar ("T.col" or
/// "T.col:A.x=B.y;B.y=C.z") and therefore contains no spaces. Recognized
/// options: timeout_ms=N (ESTIMATE/BUILD/SLEEP), variant=<SweepVariant>,
/// rate=<sampling rate>, buckets=N (BUILD only). timeout_ms is honoured
/// on all three verbs: the deadline starts when a worker picks the
/// request up, and an expired one answers ERR DeadlineExceeded (an
/// ESTIMATE checks it before computing an uncached estimate, a BUILD or
/// SLEEP while it runs). SLEEP is a test-only endpoint that occupies a
/// build slot for <ms> milliseconds while honouring cancellation — it
/// exists to make queue-full and timeout behaviour testable without large
/// data.
///
/// METRICS scrapes the server's metrics registry; TRACE toggles runtime
/// span collection or dumps the collected trace to a server-side file;
/// ACCURACY feeds the true cardinality back for an earlier ESTIMATE (the
/// <estimate-id> from its response payload), turning it into q-error
/// telemetry. All three ride the estimate queue: they are cheap and must
/// stay responsive while builds hog the build slots.
///
/// Responses:
///
///   OK[ <payload>]
///   ERR <StatusCode> <message...>
///
/// The payload never contains newlines, with one exception: METRICS
/// responds "OK metrics_bytes=<n>\n" followed by exactly <n> bytes of
/// Prometheus text exposition (which is multi-line by nature) and a
/// final newline. ERR messages may contain spaces.

struct Request {
  enum class Kind {
    kPing,
    kStats,
    kShutdown,
    kEstimate,
    kBuild,
    kSleep,
    kMetrics,
    kTraceCtl,
    kAccuracy,
  };

  Kind kind = Kind::kPing;
  /// Set for kEstimate / kBuild.
  std::optional<SitDescriptor> descriptor;
  /// Range predicate bounds (kEstimate).
  double lo = 0.0;
  double hi = 0.0;
  /// Build knobs (kBuild); unset fields defer to server defaults.
  std::optional<SweepVariant> variant;
  double sampling_rate = -1.0;  // < 0: server default
  int64_t num_buckets = -1;     // < 0: server default
  /// 0 means "no deadline".
  uint64_t timeout_ms = 0;
  /// kSleep only.
  uint64_t sleep_ms = 0;
  /// kTraceCtl: "on", "off", or "dump".
  std::string trace_mode;
  /// kTraceCtl dump: server-side file the Chrome trace is written to.
  std::string trace_path;
  /// kAccuracy: the estimate_id echoed by an earlier ESTIMATE response.
  std::string estimate_id;
  /// kAccuracy: the observed true cardinality.
  double true_card = 0.0;

  /// True for requests served from the read-mostly estimate path; false
  /// for requests that occupy a build slot. The observability verbs are
  /// estimate-class on purpose: METRICS must answer while a long build
  /// is wedging the build queue, or it is useless for diagnosing it.
  bool IsEstimateClass() const {
    return kind != Kind::kBuild && kind != Kind::kSleep;
  }
};

const char* RequestKindToString(Request::Kind kind);

/// Parses one request line (without the trailing newline).
Result<Request> ParseRequest(const std::string& line);

/// Renders a request back into its wire form (used by the client).
std::string FormatRequest(const Request& request);

/// Response line construction / parsing. FormatErrorResponse maps a non-OK
/// Status onto "ERR <code> <message>"; ParseResponse inverts both forms,
/// returning the payload or the reconstructed Status.
std::string FormatOkResponse(const std::string& payload);
std::string FormatErrorResponse(const Status& status);
Result<std::string> ParseResponse(const std::string& line);

}  // namespace sitstats

#endif  // SITSTATS_SERVER_PROTOCOL_H_
