#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/json.hpp"

namespace easched::obs {
namespace {

std::string full_name(const std::string& name, const std::string& label) {
  if (label.empty()) return name;
  return name + "{" + label + "}";
}

// RFC 4180 quoting: names/labels are free-form, so a comma or quote in a
// label (e.g. `op={a,b}`) must not split or corrupt the CSV row.
void write_csv_field(std::ostream& os, const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    os << field;
    return;
  }
  os << '"';
  for (char ch : field) {
    if (ch == '"') os << '"';
    os << ch;
  }
  os << '"';
}

}  // namespace

const char* to_string(InstrumentKind kind) noexcept {
  switch (kind) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += v;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& label) {
  return fetch(name, label, InstrumentKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& label) {
  return fetch(name, label, InstrumentKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& label) {
  Instrument& ins = fetch(name, label, InstrumentKind::kHistogram);
  if (ins.histogram.empty()) ins.histogram.emplace_back(std::move(bounds));
  return ins.histogram.front();
}

MetricsRegistry::Instrument& MetricsRegistry::fetch(const std::string& name,
                                                    const std::string& label,
                                                    InstrumentKind kind) {
  auto [it, inserted] = instruments_.try_emplace(full_name(name, label));
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    std::fprintf(stderr,
                 "obs: instrument '%s' re-registered as %s (was %s)\n",
                 it->first.c_str(), to_string(kind),
                 to_string(it->second.kind));
    std::abort();
  }
  return it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.sample_seq = next_sample_seq_++;
  snap.sim_time_s = sim_time_s_;
  snap.rows.reserve(instruments_.size());
  for (const auto& [name, ins] : instruments_) {  // std::map: name-sorted
    SnapshotRow row;
    row.name = name;
    row.kind = ins.kind;
    switch (ins.kind) {
      case InstrumentKind::kCounter:
        row.value = static_cast<double>(ins.counter.value());
        break;
      case InstrumentKind::kGauge:
        row.value = ins.gauge.value();
        break;
      case InstrumentKind::kHistogram:
        if (!ins.histogram.empty()) {
          const Histogram& h = ins.histogram.front();
          row.bounds = h.bounds();
          row.buckets = h.buckets();
          row.count = h.count();
          row.sum = h.sum();
          row.value = h.count() > 0
                          ? h.sum() / static_cast<double>(h.count())
                          : 0.0;
        }
        break;
    }
    snap.rows.push_back(std::move(row));
  }
  return snap;
}

const SnapshotRow* MetricsSnapshot::find(const std::string& name) const {
  auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const SnapshotRow& r, const std::string& n) { return r.name < n; });
  if (it == rows.end() || it->name != name) return nullptr;
  return &*it;
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  os << "# sample_seq=" << sample_seq << " sim_time_s=";
  write_json_number(os, sim_time_s);
  os << "\nname,kind,value,count,sum,buckets\n";
  for (const SnapshotRow& row : rows) {
    write_csv_field(os, row.name);
    os << ',' << to_string(row.kind) << ',';
    write_json_number(os, row.value);
    os << ',' << row.count << ',';
    write_json_number(os, row.sum);
    os << ',';
    if (row.kind == InstrumentKind::kHistogram) {
      for (std::size_t i = 0; i < row.buckets.size(); ++i) {
        if (i > 0) os << '|';
        os << "le=";
        if (i < row.bounds.size()) {
          write_json_number(os, row.bounds[i]);
        } else {
          os << "inf";
        }
        os << ':' << row.buckets[i];
      }
    }
    os << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"sample_seq\":" << sample_seq << ",\"sim_time_s\":";
  write_json_number(os, sim_time_s);
  os << ",\"metrics\":[";
  bool first = true;
  for (const SnapshotRow& row : rows) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    write_json_string(os, row.name);  // names are free-form
    os << ",\"kind\":\""
       << to_string(row.kind) << "\",\"value\":";
    write_json_number(os, row.value);
    if (row.kind == InstrumentKind::kHistogram) {
      os << ",\"count\":" << row.count << ",\"sum\":";
      write_json_number(os, row.sum);
      os << ",\"bounds\":[";
      for (std::size_t i = 0; i < row.bounds.size(); ++i) {
        if (i > 0) os << ',';
        write_json_number(os, row.bounds[i]);
      }
      os << "],\"buckets\":[";
      for (std::size_t i = 0; i < row.buckets.size(); ++i) {
        if (i > 0) os << ',';
        os << row.buckets[i];
      }
      os << ']';
    }
    os << '}';
  }
  os << "]}\n";
  return os.str();
}

}  // namespace easched::obs
