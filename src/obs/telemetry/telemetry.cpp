#include "obs/telemetry/telemetry.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "datacenter/datacenter.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "resilience/resilience.hpp"
#include "sched/driver.hpp"

namespace easched::obs {

void write_snapshot_jsonl(std::ostream& os, const TelemetrySnapshot& snap) {
  char sep = '{';
  for (const SnapshotField& f : kSnapshotFields) {
    os << sep << '"' << f.key << "\":";
    sep = ',';
    std::visit(
        [&](auto m) {
          if constexpr (std::is_same_v<decltype(m),
                                       double TelemetrySnapshot::*>) {
            write_json_number(os, snap.*m);
          } else {
            os << snap.*m;
          }
        },
        f.member);
  }
  os << ",\"alerts\":[";
  for (std::size_t i = 0; i < snap.active_alerts.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, snap.active_alerts[i]);
  }
  os << "],\"hosts\":[";
  for (std::size_t i = 0; i < snap.hosts.size(); ++i) {
    const HostSample& h = snap.hosts[i];
    if (i > 0) os << ',';
    os << '[' << static_cast<int>(h.state) << ','
       << static_cast<int>(h.health) << ',';
    write_json_number(os, h.util_pct);
    os << ',';
    write_json_number(os, h.power_w);
    os << ']';
  }
  os << "]}";
}

namespace {

/// Stores `v` into `field` when it converts without overflow. Telemetry
/// lines come from files, so an out-of-range number rejects the line.
template <typename T>
bool store(T& field, double v) {
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::lowest());
  constexpr double hi = static_cast<double>(std::numeric_limits<T>::max());
  if (!(v >= lo && (std::is_integral_v<T> ? v < hi + 1.0 : v <= hi))) {
    return false;
  }
  field = static_cast<T>(v);
  return true;
}

}  // namespace

bool parse_snapshot_jsonl(const std::string& line, TelemetrySnapshot* out) {
  if (out == nullptr) return false;
  TelemetrySnapshot snap;
  std::map<std::string, double, std::less<>> fields;  // top-level numbers
  std::string section;  // the top-level member being read
  bool alerts = false;
  bool hosts = false;
  const bool ok = read_json(line, [&](const JsonNode& n) {
    if (n.depth == 0) return n.type == JsonType::kObject;
    if (n.close) return true;
    if (n.depth == 1) {
      section = n.key;
      if (n.type == JsonType::kNumber) fields.emplace(n.key, n.number);
      alerts = alerts || (n.key == "alerts" && n.type == JsonType::kArray);
      hosts = hosts || (n.key == "hosts" && n.type == JsonType::kArray);
      return true;
    }
    if (section == "alerts" && n.depth == 2 && n.type == JsonType::kString) {
      snap.active_alerts.emplace_back(n.text);
    } else if (section == "hosts" && n.depth == 2) {
      snap.hosts.emplace_back();
    } else if (section == "hosts" && n.depth == 3 && !snap.hosts.empty() &&
               n.type == JsonType::kNumber) {
      // Host tuples are [state, health, util_pct, power_w].
      HostSample& h = snap.hosts.back();
      if (n.key == "0") return store(h.state, n.number);
      if (n.key == "1") return store(h.health, n.number);
      if (n.key == "2") return store(h.util_pct, n.number);
      if (n.key == "3") return store(h.power_w, n.number);
    }
    return true;
  });
  if (!ok || !alerts || !hosts) return false;

  for (const SnapshotField& f : kSnapshotFields) {
    const auto it = fields.find(f.key);
    if (it == fields.end() ||
        !std::visit([&](auto m) { return store(snap.*m, it->second); },
                    f.member)) {
      return false;
    }
  }
  *out = std::move(snap);
  return true;
}

namespace {

void prom_family(std::ostream& os, const char* name, const char* help,
                 const char* type) {
  os << "# HELP " << name << ' ' << help << "\n# TYPE " << name << ' '
     << type << '\n';
}

void prom_value(std::ostream& os, const char* name, double v,
                const std::string& labels = "") {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ';
  write_json_number(os, v);
  os << '\n';
}

}  // namespace

void write_snapshot_prom(std::ostream& os, const TelemetrySnapshot& snap) {
  std::string_view family;
  for (const SnapshotField& f : kSnapshotFields) {
    if (f.family != family) prom_family(os, f.family, f.help, f.type);
    family = f.family;
    prom_value(os, f.family, f.value(snap), f.label);
  }

  prom_family(os, "easched_alert_active", "Alert rules currently firing",
              "gauge");
  for (const std::string& name : snap.active_alerts) {
    std::string label = "rule=\"";
    for (char c : name) {
      if (c == '"' || c == '\\') label += '\\';
      label += c;
    }
    label += '"';
    prom_value(os, "easched_alert_active", 1, label);
  }

  prom_family(os, "easched_host_state",
              "Per-host power state (datacenter::HostState value)", "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_state", snap.hosts[h].state,
               "host=\"" + std::to_string(h) + "\"");
  }
  prom_family(os, "easched_host_health",
              "Per-host breaker health (resilience::HostHealth value)",
              "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_health", snap.hosts[h].health,
               "host=\"" + std::to_string(h) + "\"");
  }
  prom_family(os, "easched_host_util_pct",
              "Per-host allocated CPU as % of capacity", "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_util_pct", snap.hosts[h].util_pct,
               "host=\"" + std::to_string(h) + "\"");
  }
  prom_family(os, "easched_host_power_watts", "Per-host electrical draw",
              "gauge");
  for (std::size_t h = 0; h < snap.hosts.size(); ++h) {
    prom_value(os, "easched_host_power_watts", snap.hosts[h].power_w,
               "host=\"" + std::to_string(h) + "\"");
  }
}

// ---- SnapshotRing ----------------------------------------------------------

SnapshotRing::SnapshotRing(std::size_t capacity) : capacity_(capacity) {
  buf_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

void SnapshotRing::push(TelemetrySnapshot snap) {
  ++total_;
  if (capacity_ == 0) return;
  if (buf_.size() < capacity_) {
    buf_.push_back(std::move(snap));
    return;
  }
  buf_[head_] = std::move(snap);
  head_ = (head_ + 1) % capacity_;
}

void SnapshotRing::clear() {
  buf_.clear();
  head_ = 0;
  total_ = 0;
}

const TelemetrySnapshot& SnapshotRing::at(std::size_t i) const {
  return buf_[(head_ + i) % buf_.size()];
}

const TelemetrySnapshot& SnapshotRing::latest() const {
  return at(buf_.size() - 1);
}

// ---- sinks -----------------------------------------------------------------

struct JsonlSink::Impl {
  std::ofstream out;
};

JsonlSink::JsonlSink(const std::string& path) : impl_(new Impl) {
  impl_->out.open(path, std::ios::trunc);
}

JsonlSink::~JsonlSink() = default;

bool JsonlSink::ok() const noexcept { return impl_->out.is_open(); }

void JsonlSink::on_sample(const TelemetrySnapshot& snap) {
  if (!impl_->out.is_open()) return;
  write_snapshot_jsonl(impl_->out, snap);
  impl_->out << '\n';
}

void JsonlSink::finish() {
  if (impl_->out.is_open()) impl_->out.flush();
}

PromSink::PromSink(std::string path) : path_(std::move(path)) {}

void PromSink::on_sample(const TelemetrySnapshot& snap) {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return;
    write_snapshot_prom(out, snap);
  }
  std::rename(tmp.c_str(), path_.c_str());
}

// ---- TelemetryPlane --------------------------------------------------------

TelemetryPlane::TelemetryPlane() : ring_(TelemetryConfig{}.ring_capacity) {}

void TelemetryPlane::enable(TelemetryConfig config) {
  enabled_ = true;
  config_ = config;
  if (config_.period_s <= 0) config_.period_s = 60;
  ring_ = SnapshotRing(config_.ring_capacity);
}

TelemetrySink* TelemetryPlane::add_sink(std::unique_ptr<TelemetrySink> sink) {
  sinks_.push_back(std::move(sink));
  return sinks_.back().get();
}

void TelemetryPlane::set_alert_rules(std::vector<AlertRule> rules) {
  alerts_.configure(std::move(rules));
}

TelemetrySnapshot TelemetryPlane::capture(sim::SimTime now,
                                          const Sources& sources) const {
  TelemetrySnapshot snap;
  snap.t = now;
  snap.lambda_min = sources.lambda_min;
  snap.lambda_max = sources.lambda_max;

  const resilience::ResilienceController* ctrl =
      sources.recorder != nullptr ? resilience::controller(*sources.recorder)
                                  : nullptr;

  if (sources.dc != nullptr) {
    const datacenter::Datacenter& dc = *sources.dc;
    snap.hosts.reserve(dc.num_hosts());
    for (std::size_t h = 0; h < dc.num_hosts(); ++h) {
      const datacenter::Host& host =
          dc.host(static_cast<datacenter::HostId>(h));
      HostSample hs;
      hs.state = static_cast<std::uint8_t>(host.state);
      if (ctrl != nullptr) {
        hs.health = static_cast<std::uint8_t>(
            ctrl->health(static_cast<datacenter::HostId>(h)));
      }
      const double cap = host.spec.cpu_capacity_pct;
      hs.util_pct = static_cast<float>(
          cap > 0 ? 100.0 * host.used_cpu_pct / cap : 0.0);
      if (sources.recorder != nullptr) {
        hs.power_w =
            static_cast<float>(sources.recorder->watts.host_current(h));
      }
      snap.hosts.push_back(hs);

      switch (host.state) {
        case datacenter::HostState::kOn:
          ++snap.hosts_on;
          break;
        case datacenter::HostState::kBooting:
          ++snap.hosts_booting;
          break;
        case datacenter::HostState::kFailed:
          ++snap.hosts_failed;
          break;
        // ShuttingDown is rolled into "off" — it no longer serves load; the
        // per-host state field keeps the exact value.
        case datacenter::HostState::kOff:
        case datacenter::HostState::kShuttingDown:
          ++snap.hosts_off;
          break;
      }
      if (host.is_working()) ++snap.working;
      if (host.is_online()) ++snap.online;
      snap.running += host.vm_count();
    }
    snap.ratio = snap.online > 0
                     ? static_cast<double>(snap.working) / snap.online
                     : 0.0;
  }

  if (sources.recorder != nullptr) {
    const metrics::Recorder& rec = *sources.recorder;
    snap.power_w = rec.watts.total_current();
    snap.energy_kwh = rec.energy_kwh(now);
    snap.deferred = rec.counts.jobs_deferred;
    snap.shed = rec.counts.jobs_shed;
    snap.sla = rec.jobs.mean_satisfaction();
  }
  if (sources.driver != nullptr) {
    snap.queue = sources.driver->queue().size();
    snap.backoff = sources.driver->backoff_count();
  }
  if (ctrl != nullptr) {
    snap.rung = static_cast<int>(ctrl->ladder());
    snap.breakers_open = ctrl->breakers_not_healthy();
  }
  return snap;
}

std::uint64_t TelemetryPlane::sample(sim::SimTime now,
                                     const Sources& sources) {
  TelemetrySnapshot snap = capture(now, sources);
  snap.seq = next_seq_++;
  if (alerts_.enabled()) {
    snap.active_alerts = alerts_.evaluate(snap, ring_, sources.recorder);
  }
  const std::uint64_t seq = snap.seq;
  // Sinks see the alert-annotated record even with a zero-capacity ring.
  for (auto& sink : sinks_) sink->on_sample(snap);
  ring_.push(std::move(snap));
  return seq;
}

void TelemetryPlane::finish(sim::SimTime now, const Sources& sources) {
  if (next_seq_ == 0 || (!ring_.empty() && ring_.latest().t < now)) {
    sample(now, sources);
  }
  for (auto& sink : sinks_) sink->finish();
}

}  // namespace easched::obs
