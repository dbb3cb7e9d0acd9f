#include "serve/session.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>
#include <vector>

#include "scenario/parameters.hpp"
#include "util/config.hpp"
#include "util/json.hpp"

namespace p2p::serve {

namespace {

std::string error_json(std::string_view code, std::string_view message) {
  std::string out = "{\"type\":\"error\",\"code\":";
  util::append_json_string(&out, code);
  out += ",\"error\":";
  util::append_json_string(&out, message);
  out += "}";
  return out;
}

std::string seed_error_json(std::uint64_t seed, std::string_view code,
                            std::string_view message) {
  std::string out = "{\"type\":\"error\",\"seed\":" + std::to_string(seed) +
                    ",\"code\":";
  util::append_json_string(&out, code);
  out += ",\"error\":";
  util::append_json_string(&out, message);
  out += "}";
  return out;
}

/// Project a served seed line onto the requested fields, splicing each
/// value's raw source span so projected output is byte-faithful to the
/// full line. Unknown fields are skipped (the "done" trailer still
/// reports the seed as served). Falls back to the full line if it ever
/// fails to parse — it is our own serializer's output.
std::string project_fields(const std::string& line,
                           const std::vector<std::string>& fields) {
  if (fields.empty()) return line;
  util::JsonValue doc;
  std::string error;
  if (!util::parse_json(line, &doc, &error) || !doc.is_object()) return line;
  std::string out = "{";
  bool first = true;
  for (const auto& field : fields) {
    const util::JsonValue* v = doc.find(field);
    if (!v || v->raw.empty()) continue;
    if (!first) out += ",";
    first = false;
    util::append_json_string(&out, field);
    out += ":";
    out += v->raw;
  }
  out += "}";
  return out;
}

}  // namespace

Session::Session(Scheduler* scheduler, Metrics* metrics, SessionLimits limits,
                 WriteFn write)
    : scheduler_(scheduler),
      metrics_(metrics),
      limits_(limits),
      write_(std::move(write)),
      requests_(metrics->counter("requests")),
      stats_requests_(metrics->counter("stats_requests")),
      seed_results_(metrics->counter("seed_results")),
      request_errors_(metrics->counter("request_errors")) {}

bool Session::emit_error(std::string_view code, std::string_view message) {
  request_errors_.add();
  return write_(error_json(code, message));
}

bool Session::reject_oversized_line() {
  return emit_error("too_large",
                    "request line exceeds " +
                        std::to_string(limits_.max_line) + " bytes");
}

bool Session::handle_line(std::string_view line) {
  while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
    line.remove_suffix(1);
  }
  if (line.empty()) return true;
  if (line == "STATS") {
    stats_requests_.add();
    return write_(metrics_->to_json());
  }

  util::JsonValue req;
  std::string parse_error;
  if (!util::parse_json(line, &req, &parse_error)) {
    return emit_error("bad_json", parse_error);
  }
  if (!req.is_object()) {
    return emit_error("bad_request", "request must be a JSON object");
  }
  for (const auto& [key, value] : req.object) {
    (void)value;
    if (key != "config" && key != "seeds" && key != "fields") {
      return emit_error("bad_request", "unknown request key: " + key);
    }
  }

  // Flatten the "config" object into the same stringly-typed Config the
  // CLI and INI front ends produce, so one validator (Parameters::apply)
  // guards every entry point. Numbers pass through as their raw source
  // text — no double round-trip between client and validator.
  util::Config config;
  if (const util::JsonValue* c = req.find("config")) {
    if (!c->is_object()) {
      return emit_error("bad_request", "\"config\" must be an object");
    }
    for (const auto& [key, value] : c->object) {
      switch (value.kind) {
        case util::JsonValue::Kind::kString:
          config.set(key, value.string);
          break;
        case util::JsonValue::Kind::kNumber:
          config.set(key, value.raw);
          break;
        case util::JsonValue::Kind::kBool:
          config.set(key, value.boolean ? "true" : "false");
          break;
        default:
          return emit_error("bad_request",
                            "config value for '" + key + "' must be scalar");
      }
    }
  }

  scenario::Parameters base;
  if (std::string err = base.apply(config); !err.empty()) {
    return emit_error("bad_config", err);
  }

  std::vector<std::uint64_t> seeds;
  if (const util::JsonValue* s = req.find("seeds")) {
    if (!s->is_array()) {
      return emit_error("bad_request", "\"seeds\" must be an array");
    }
    if (s->array.size() > limits_.max_seeds) {
      return emit_error("bad_request",
                        "too many seeds (max " +
                            std::to_string(limits_.max_seeds) + ")");
    }
    seeds.reserve(s->array.size());
    for (const auto& v : s->array) {
      const auto u = v.as_uint();
      if (!u) {
        return emit_error("bad_request",
                          "seeds must be non-negative integers");
      }
      seeds.push_back(*u);
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  }
  if (seeds.empty()) seeds.push_back(base.seed);

  std::vector<std::string> fields;
  if (const util::JsonValue* f = req.find("fields")) {
    if (!f->is_array()) {
      return emit_error("bad_request", "\"fields\" must be an array");
    }
    for (const auto& v : f->array) {
      if (!v.is_string()) {
        return emit_error("bad_request", "fields must be strings");
      }
      fields.push_back(v.string);
    }
  }

  requests_.add();

  // Submit every seed before waiting on any: with workers > 1 the units
  // compute concurrently, and duplicates across concurrent sessions land
  // in the in-flight table before either session starts draining.
  std::vector<std::shared_future<SeedOutcome>> futures;
  futures.reserve(seeds.size());
  for (std::uint64_t seed : seeds) {
    scenario::Parameters p = base;
    p.seed = seed;
    futures.push_back(scheduler_->submit(p));
  }

  std::size_t served = 0;
  std::size_t errors = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SeedOutcome& out = futures[i].get();
    if (out.ok) {
      if (!write_(project_fields(out.line, fields))) return false;
      seed_results_.add();
      ++served;
    } else {
      if (!write_(seed_error_json(seeds[i], out.code, out.line))) return false;
      ++errors;
    }
  }
  return write_("{\"type\":\"done\",\"requested\":" +
                std::to_string(seeds.size()) +
                ",\"served\":" + std::to_string(served) +
                ",\"errors\":" + std::to_string(errors) + "}");
}

void run_session(int fd, Scheduler* scheduler, Metrics* metrics,
                 const SessionLimits& limits) {
  const auto write_line = [fd](std::string_view line) {
    std::string out(line);
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // peer gone (SIGPIPE is ignored daemon-wide)
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  };

  Session session(scheduler, metrics, limits, write_line);
  std::string buffer;
  bool draining = false;  // discarding the rest of an over-long line
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) return;  // EOF
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      if (draining) {
        draining = false;  // tail of the oversized line — discard
      } else if (nl - start + 1 > limits.max_line) {
        // Over the limit but complete within one read: the partial-line
        // check below never saw it, so answer it here.
        if (!session.reject_oversized_line()) return;
      } else if (!session.handle_line(
                     std::string_view(buffer).substr(start, nl - start))) {
        return;
      }
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (!draining && buffer.size() > limits.max_line) {
      if (!session.reject_oversized_line()) return;
      buffer.clear();
      draining = true;
    } else if (draining) {
      buffer.clear();  // keep discarding until a newline shows up
    }
  }
}

}  // namespace p2p::serve
