#include "serve/Protocol.h"

#include "support/Error.h"
#include "support/SourceLocation.h"

namespace cfd::serve {

namespace {

/// One stage-"serve" error as an Expected failure.
template <typename T>
Expected<T> protocolError(std::string message) {
  return Expected<T>::failure(std::move(message), "serve");
}

const RequestKind kParsableKinds[] = {
    RequestKind::Compile, RequestKind::Sweep,  RequestKind::Tune,
    RequestKind::Status,  RequestKind::Cancel, RequestKind::Shutdown,
};

std::string validKindList() {
  std::string names;
  for (RequestKind kind : kParsableKinds) {
    if (!names.empty())
      names += ", ";
    names += requestKindName(kind);
  }
  return names;
}

/// Reads an optional member: returns fallback when absent.
std::int64_t intOr(const json::Value& object, const std::string& key,
                   std::int64_t fallback) {
  return object.contains(key) ? object.at(key).asInt() : fallback;
}

std::string stringOr(const json::Value& object, const std::string& key) {
  return object.contains(key) ? object.at(key).asString() : std::string();
}

json::Value paramsToJson(
    const std::vector<std::pair<std::string, std::string>>& params) {
  json::Value object = json::Value::object();
  for (const auto& [key, value] : params)
    object.set(key, value);
  return object;
}

json::Value stringsToJson(const std::vector<std::string>& strings) {
  json::Value array = json::Value::array();
  for (const std::string& s : strings)
    array.push(s);
  return array;
}

} // namespace

const char* requestKindName(RequestKind kind) {
  switch (kind) {
  case RequestKind::Compile: return "compile";
  case RequestKind::Sweep: return "sweep";
  case RequestKind::Tune: return "tune";
  case RequestKind::Status: return "status";
  case RequestKind::Cancel: return "cancel";
  case RequestKind::Shutdown: return "shutdown";
  case RequestKind::Invalid: return "error";
  }
  return "?";
}

json::Value Request::toJson() const {
  json::Value object = json::Value::object();
  object.set(kVersionKey, kProtocolVersion);
  object.set("id", id);
  object.set("kind", requestKindName(kind));
  if (!source.empty())
    object.set("source", source);
  if (!params.empty())
    object.set("params", paramsToJson(params));
  if (!artifacts.empty())
    object.set("artifacts", stringsToJson(artifacts));
  if (!axes.empty()) {
    json::Value array = json::Value::array();
    for (const AxisSpec& axis : axes) {
      json::Value entry = json::Value::object();
      entry.set("key", axis.key);
      entry.set("values", stringsToJson(axis.values));
      array.push(std::move(entry));
    }
    object.set("axes", std::move(array));
  }
  if (kind == RequestKind::Tune) {
    if (!strategy.empty())
      object.set("strategy", strategy);
    if (seed != 1)
      object.set("seed", static_cast<std::int64_t>(seed));
    if (samples != 16)
      object.set("samples", samples);
    if (maxSteps != 32)
      object.set("max_steps", maxSteps);
    if (!objectives.empty())
      object.set("objectives", stringsToJson(objectives));
  }
  if (!priority.empty())
    object.set("priority", priority);
  if (deadlineMillis > 0)
    object.set("deadline_ms", deadlineMillis);
  if (kind == RequestKind::Cancel)
    object.set("target", target);
  return object;
}

std::string Request::encode() const { return toJson().dump(-1); }

Expected<Request> Request::parse(const std::string& line,
                                 std::int64_t* echoId) {
  if (echoId != nullptr)
    *echoId = 0;
  json::Value document;
  try {
    document = json::Value::parse(line);
  } catch (const FlowError& e) {
    return protocolError<Request>(std::string("malformed request: ") +
                                  e.what());
  }
  try {
    if (!document.isObject())
      return protocolError<Request>(
          "malformed request: expected a JSON object");
    if (!document.contains(kVersionKey))
      return protocolError<Request>(
          "not a cfd-serve message (missing 'cfd_serve' version member)");
    // The id is echoed on error responses whenever it is readable, so
    // extract it before any further validation can fail.
    if (document.contains("id") && document.at("id").isNumber() &&
        echoId != nullptr)
      *echoId = document.at("id").asInt();
    const std::int64_t version = document.at(kVersionKey).asInt();
    if (version != kProtocolVersion)
      return protocolError<Request>(
          "protocol version mismatch: peer speaks v" +
          std::to_string(version) + ", this build speaks v" +
          std::to_string(kProtocolVersion));

    Request request;
    const std::string kindName = stringOr(document, "kind");
    bool known = false;
    for (RequestKind kind : kParsableKinds)
      if (kindName == requestKindName(kind)) {
        request.kind = kind;
        known = true;
      }
    if (!known)
      return protocolError<Request>("unknown request kind '" + kindName +
                                    "' (valid: " + validKindList() + ")");
    request.id = intOr(document, "id", 0);
    if (request.id <= 0)
      return protocolError<Request>(
          "request needs a positive 'id' to address the response");

    request.source = stringOr(document, "source");
    const bool needsSource = request.kind == RequestKind::Compile ||
                             request.kind == RequestKind::Sweep ||
                             request.kind == RequestKind::Tune;
    if (needsSource && request.source.empty())
      return protocolError<Request>(std::string("'") +
                                    requestKindName(request.kind) +
                                    "' request has no 'source'");
    if (document.contains("params"))
      for (const auto& [key, value] : document.at("params").members())
        request.params.emplace_back(key, value.asString());
    if (document.contains("artifacts")) {
      const json::Value& array = document.at("artifacts");
      for (std::size_t i = 0; i < array.size(); ++i)
        request.artifacts.push_back(array.at(i).asString());
    }
    if (document.contains("axes")) {
      const json::Value& array = document.at("axes");
      for (std::size_t i = 0; i < array.size(); ++i) {
        const json::Value& entry = array.at(i);
        AxisSpec axis;
        axis.key = entry.at("key").asString();
        const json::Value& values = entry.at("values");
        for (std::size_t j = 0; j < values.size(); ++j)
          axis.values.push_back(values.at(j).asString());
        request.axes.push_back(std::move(axis));
      }
    }
    request.strategy = stringOr(document, "strategy");
    request.seed =
        static_cast<std::uint64_t>(intOr(document, "seed", 1));
    request.samples =
        static_cast<std::size_t>(intOr(document, "samples", 16));
    request.maxSteps =
        static_cast<std::size_t>(intOr(document, "max_steps", 32));
    if (document.contains("objectives")) {
      const json::Value& array = document.at("objectives");
      for (std::size_t i = 0; i < array.size(); ++i)
        request.objectives.push_back(array.at(i).asString());
    }
    request.priority = stringOr(document, "priority");
    if (!request.priority.empty() && request.priority != "low" &&
        request.priority != "normal" && request.priority != "high")
      return protocolError<Request>("unknown priority '" + request.priority +
                                    "' (valid: low, normal, high)");
    if (document.contains("deadline_ms"))
      request.deadlineMillis = document.at("deadline_ms").asDouble();
    request.target = intOr(document, "target", 0);
    if (request.kind == RequestKind::Cancel && request.target <= 0)
      return protocolError<Request>(
          "'cancel' request has no 'target' request id");
    return request;
  } catch (const FlowError& e) {
    // A member with the wrong JSON kind (asString on a number, a
    // missing nested key, ...) lands here.
    return protocolError<Request>(std::string("malformed request: ") +
                                  e.what());
  }
}

json::Value Response::toJson() const {
  json::Value object = json::Value::object();
  object.set(kVersionKey, kProtocolVersion);
  object.set("id", id);
  object.set("kind", requestKindName(kind));
  object.set("ok", ok);
  if (cancelled)
    object.set("cancelled", true);
  if (ok)
    object.set("result", result);
  else
    object.set("diagnostics", diagnostics.toJson());
  return object;
}

std::string Response::encode() const { return toJson().dump(-1); }

Expected<Response> Response::parse(const std::string& line) {
  json::Value document;
  try {
    document = json::Value::parse(line);
  } catch (const FlowError& e) {
    return protocolError<Response>(std::string("malformed response: ") +
                                   e.what());
  }
  try {
    if (!document.isObject())
      return protocolError<Response>(
          "malformed response: expected a JSON object");
    if (!document.contains(kVersionKey))
      return protocolError<Response>(
          "not a cfd-serve message (missing 'cfd_serve' version member)");
    const std::int64_t version = document.at(kVersionKey).asInt();
    if (version != kProtocolVersion)
      return protocolError<Response>(
          "protocol version mismatch: peer speaks v" +
          std::to_string(version) + ", this build speaks v" +
          std::to_string(kProtocolVersion));

    Response response;
    response.id = intOr(document, "id", 0);
    const std::string kindName = stringOr(document, "kind");
    response.kind = RequestKind::Invalid;
    for (RequestKind kind : kParsableKinds)
      if (kindName == requestKindName(kind))
        response.kind = kind;
    response.ok = document.contains("ok") && document.at("ok").asBool();
    response.cancelled =
        document.contains("cancelled") && document.at("cancelled").asBool();
    if (response.ok) {
      response.result = document.at("result");
    } else if (document.contains("diagnostics")) {
      const json::Value& array = document.at("diagnostics");
      for (std::size_t i = 0; i < array.size(); ++i) {
        const json::Value& entry = array.at(i);
        Diagnostic diagnostic;
        const std::string severity = stringOr(entry, "severity");
        diagnostic.severity = severity == "warning" ? Severity::Warning
                              : severity == "note" ? Severity::Note
                                                   : Severity::Error;
        diagnostic.message = stringOr(entry, "message");
        diagnostic.stage = stringOr(entry, "stage");
        if (entry.contains("line")) {
          diagnostic.location.line =
              static_cast<int>(entry.at("line").asInt());
          diagnostic.location.column =
              static_cast<int>(intOr(entry, "column", 0));
        }
        response.diagnostics.add(std::move(diagnostic));
      }
    }
    return response;
  } catch (const FlowError& e) {
    return protocolError<Response>(std::string("malformed response: ") +
                                   e.what());
  }
}

Response errorResponse(std::int64_t id, RequestKind kind,
                       DiagnosticList diagnostics, bool cancelled) {
  CFD_ASSERT(diagnostics.hasErrors(),
             "an error response needs an error diagnostic");
  Response response;
  response.id = id;
  response.kind = kind;
  response.ok = false;
  response.cancelled = cancelled;
  response.diagnostics = std::move(diagnostics);
  return response;
}

} // namespace cfd::serve
