#include "obs/trace.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "obs/json.hpp"

namespace easched::obs {

namespace {

bool is_wall_arg(const std::string& key) {
  return key.rfind("wall_", 0) == 0;
}

}  // namespace

TraceEvent& Tracer::emit(sim::SimTime t, EventKind kind) {
  TraceEvent e;
  e.t = t;
  e.seq = next_seq_++;
  e.kind = kind;
  events_.push_back(std::move(e));
  return events_.back();
}

TraceEvent& Tracer::span(sim::SimTime start, sim::SimTime end,
                         EventKind kind) {
  TraceEvent& e = emit(start, kind);
  e.dur = std::max(0.0, end - start);
  return e;
}

std::vector<std::size_t> Tracer::sorted_order() const {
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable by sim-time: ties keep emission (seq) order, which is exactly
  // the deterministic (t, seq) total order the header promises.
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return events_[a].t < events_[b].t;
                   });
  return order;
}

void Tracer::write_jsonl(std::ostream& os, bool include_wall) const {
  for (std::size_t i : sorted_order()) {
    const TraceEvent& e = events_[i];
    os << "{\"t\":";
    write_json_number(os, e.t);
    if (e.dur > 0) {
      os << ",\"dur\":";
      write_json_number(os, e.dur);
    }
    os << ",\"seq\":" << e.seq << ",\"kind\":\"" << to_string(e.kind) << '"';
    if (e.vm >= 0) os << ",\"vm\":" << e.vm;
    if (e.host >= 0) os << ",\"host\":" << e.host;
    if (e.host2 >= 0) os << ",\"host2\":" << e.host2;
    if (!e.label.empty()) {
      os << ",\"label\":";
      write_json_string(os, e.label);
    }
    bool any = false;
    for (const auto& [key, value] : e.args) {
      if (!include_wall && is_wall_arg(key)) continue;
      os << (any ? "," : ",\"args\":{");
      write_json_string(os, key);
      os << ':';
      write_json_number(os, value);
      any = true;
    }
    if (any) os << '}';
    os << "}\n";
  }
}

void Tracer::write_chrome(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"easched\"}},\n";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"scheduler\"}}";
  for (std::size_t i : sorted_order()) {
    const TraceEvent& e = events_[i];
    os << ",\n{\"name\":\"" << to_string(e.kind) << "\",\"cat\":\""
       << row(e.kind).category << "\",\"ph\":\"" << (e.dur > 0 ? 'X' : 'i')
       << "\",\"ts\":";
    // trace_event timestamps are microseconds.
    write_json_number(os, e.t * 1e6);
    if (e.dur > 0) {
      os << ",\"dur\":";
      write_json_number(os, e.dur * 1e6);
    }
    // Host-scoped events render as one Perfetto track per host (tid =
    // host + 1); everything else lands on the scheduler track (tid 0).
    os << ",\"pid\":0,\"tid\":" << (e.host >= 0 ? e.host + 1 : 0);
    if (e.dur <= 0) os << ",\"s\":\"t\"";  // instant scope: thread
    os << ",\"args\":{\"seq\":" << e.seq;
    if (e.vm >= 0) os << ",\"vm\":" << e.vm;
    if (e.host2 >= 0) os << ",\"host2\":" << e.host2;
    if (!e.label.empty()) {
      os << ",\"label\":";
      write_json_string(os, e.label);
    }
    for (const auto& [key, value] : e.args) {
      os << ',';
      write_json_string(os, key);
      os << ':';
      write_json_number(os, value);
    }
    os << "}}";
  }
  os << "\n]}\n";
}

// ---- Chrome trace_event structural validation ------------------------------

bool validate_chrome_trace(const std::string& json, std::string* error) {
  std::string problem;
  const auto report = [&problem](std::string what) {
    problem = std::move(what);
    return false;
  };

  // The direct members of the traceEvents element being read: an element
  // is checked when it closes, so memory stays one event deep.
  struct Member {
    std::string key;
    JsonType type;
    std::string text;
  };
  std::vector<Member> members;
  bool in_events = false;
  bool saw_trace_events = false;
  std::size_t index = 0;

  const auto check_event = [&]() {
    const auto find = [&members](const char* key) -> const Member* {
      for (const Member& m : members) {
        if (m.key == key) return &m;
      }
      return nullptr;
    };
    const std::string where = "event " + std::to_string(index) + ": ";
    const auto require = [&](const char* key, JsonType type) {
      const Member* m = find(key);
      if (m == nullptr) return report(where + "missing \"" + key + "\"");
      if (m->type != type) {
        return report(where + "\"" + key + "\" has the wrong type");
      }
      return true;
    };
    if (!require("name", JsonType::kString) ||
        !require("ph", JsonType::kString) ||
        !require("pid", JsonType::kNumber) ||
        !require("tid", JsonType::kNumber)) {
      return false;
    }
    // The phase letters chrome://tracing / Perfetto understand (the subset
    // any producer may emit; ours uses X, i and M).
    static const std::string kPhases = "BEXiIMCbensfPSTpFOND";
    const std::string& ph = find("ph")->text;
    if (ph.size() != 1 || kPhases.find(ph[0]) == std::string::npos) {
      return report(where + "unknown phase \"" + ph + "\"");
    }
    if (ph[0] == 'M') return true;
    // Every timed phase needs a timestamp; complete events also carry
    // their duration. Metadata ("M") events need neither.
    return require("ts", JsonType::kNumber) &&
           (ph[0] != 'X' || require("dur", JsonType::kNumber));
  };

  const bool ok = read_json(
      json,
      [&](const JsonNode& n) {
        if (n.depth == 0) {
          return n.type == JsonType::kObject || report("expected '{'");
        }
        if (n.depth == 1) {
          if (n.key != "traceEvents") return true;
          if (n.type != JsonType::kArray) {
            return report("\"traceEvents\" is not an array");
          }
          saw_trace_events = true;
          in_events = !n.close;
          return true;
        }
        if (!in_events) return true;
        if (n.depth == 2) {
          if (n.type != JsonType::kObject) {
            return report("event " + std::to_string(index) +
                          ": not an object");
          }
          if (!n.close) {
            members.clear();
            return true;
          }
          if (!check_event()) return false;
          ++index;
          return true;
        }
        if (n.depth == 3 && !n.close) {
          members.push_back({std::string(n.key), n.type,
                             std::string(n.type == JsonType::kString
                                             ? n.text
                                             : std::string_view())});
        }
        return true;
      },
      &problem);
  if (ok && !saw_trace_events) report("missing \"traceEvents\" array");
  if (!problem.empty() && error != nullptr) *error = problem;
  return problem.empty();
}

}  // namespace easched::obs
