#include "net/toss_handler.h"

#include <utility>

#include "common/json.h"
#include "obs/telemetry.h"
#include "service/wire.h"

namespace toss::net {

namespace {

/// A wire-shaped error body, so every /v1 answer parses the same way.
HttpResponse WireError(Status status) {
  service::QueryResponse resp;
  HttpResponse out;
  out.status = HttpStatusFor(status.code());
  resp.status = std::move(status);
  out.body = service::wire::ResponseJson(resp);
  return out;
}

HttpResponse RunRequest(service::TossService* service,
                        const HttpRequest& http, bool want_mutation) {
  auto parsed = service::wire::ParseRequestText(http.body);
  if (!parsed.ok()) return WireError(parsed.status());
  service::QueryRequest request = std::move(parsed).value();
  if (request.IsMutation() != want_mutation) {
    return WireError(Status::InvalidArgument(
        want_mutation ? "/v1/mutate requires insert, replace, or remove"
                      : "mutations go to /v1/mutate, not /v1/query"));
  }
  service::QueryResponse resp = service->Run(request);
  HttpResponse out;
  out.status = HttpStatusFor(resp.status.code());
  out.body = service::wire::ResponseJson(resp, request.parallelism);
  return out;
}

HttpResponse MethodNotAllowed(const char* allow) {
  HttpResponse out;
  out.status = 405;
  out.body = std::string("{\"error\":\"method not allowed; use ") + allow +
             "\"}";
  return out;
}

}  // namespace

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kUnsupported:
      return 501;
    default:
      return 500;
  }
}

Handler MakeTossHandler(service::TossService* service) {
  return [service](const HttpRequest& http) -> HttpResponse {
    if (http.target == "/v1/query") {
      if (http.method != "POST") return MethodNotAllowed("POST");
      return RunRequest(service, http, /*want_mutation=*/false);
    }
    if (http.target == "/v1/mutate") {
      if (http.method != "POST") return MethodNotAllowed("POST");
      return RunRequest(service, http, /*want_mutation=*/true);
    }
    if (http.target == "/v1/telemetry") {
      if (http.method != "GET") return MethodNotAllowed("GET");
      HttpResponse out;
      out.body = obs::TelemetryDump();
      return out;
    }
    if (http.target == "/healthz") {
      if (http.method != "GET") return MethodNotAllowed("GET");
      HttpResponse out;
      out.body = "{\"status\":\"ok\"}";
      return out;
    }
    HttpResponse out;
    out.status = 404;
    // The target is attacker-controlled bytes; Dump() escapes them.
    common::JsonValue body = common::JsonValue::Object();
    body.Set("error",
             common::JsonValue::String("no such route: " + http.target));
    out.body = body.Dump();
    return out;
  };
}

}  // namespace toss::net
