#include "experiments/repro.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "support/key_table.hpp"

namespace easched::experiments {
namespace {

using support::at;
using datacenter::HostSpec;
using Dc = datacenter::DatacenterConfig;
using Ckpt = datacenter::CheckpointPolicy;
using Driver = sched::DriverConfig;
using Power = sched::PowerControllerConfig;
using V = RunValidation;
using Checker = validate::CheckerConfig;

constexpr const char* kSpec = "repro bundle";
constexpr const char* kHeader = "# easched repro bundle v2";
constexpr const char* kJobsSeparator = "--- jobs ---";
constexpr std::string_view kHostPrefix = "host.";

bool read_hosts(RunConfig& c, std::string_view value) {
  std::vector<std::string> classes;
  support::for_each_item(value,
                         [&](std::string_view k) { classes.emplace_back(k); });
  c.datacenter.hosts = specs_for(classes);
  return true;
}

std::optional<std::string> write_hosts(const RunConfig& c,
                                       const RunConfig&) {
  if (c.datacenter.hosts.empty()) return std::nullopt;
  std::string out;
  for (const auto& spec : c.datacenter.hosts) out += "," + spec.klass;
  return out.substr(1);
}

bool read_faults(RunConfig& c, std::string_view value) {
  c.faults = faults::parse_fault_plan(std::string(value));
  return true;
}

std::optional<std::string> write_faults(const RunConfig& c,
                                        const RunConfig&) {
  if (!c.faults.enabled) return std::nullopt;
  return c.faults.to_string();
}

bool read_resilience(RunConfig& c, std::string_view value) {
  c.resilience = resilience::parse_resilience_spec(std::string(value));
  return true;
}

std::optional<std::string> write_resilience(const RunConfig& c,
                                            const RunConfig&) {
  if (!c.resilience.enabled) return std::nullopt;
  return resilience::to_string(c.resilience);
}

constexpr support::KeyRow<RunConfig> kRunKeys[] = {
    {"policy", at<&RunConfig::policy>},
    {"dc_seed", at<&RunConfig::datacenter, &Dc::seed>},
    {"hosts", read_hosts, write_hosts},
    {"initially_on", at<&RunConfig::datacenter, &Dc::initially_on>},
    {"inject_failures", at<&RunConfig::datacenter, &Dc::inject_failures>},
    {"mean_repair_s", at<&RunConfig::datacenter, &Dc::mean_repair_s>},
    {"checkpoint_enabled",
     at<&RunConfig::datacenter, &Dc::checkpoint, &Ckpt::enabled>},
    {"checkpoint_period_s",
     at<&RunConfig::datacenter, &Dc::checkpoint, &Ckpt::period_s>},
    {"lambda_min", at<&RunConfig::driver, &Driver::power, &Power::lambda_min>},
    {"lambda_max", at<&RunConfig::driver, &Driver::power, &Power::lambda_max>},
    {"driver_seed", at<&RunConfig::driver, &Driver::seed>},
    {"horizon_s", at<&RunConfig::horizon_s>},
    {"faults", read_faults, write_faults},
    {"resilience", read_resilience, write_resilience},
    {"validate", at<&RunConfig::validate, &V::enabled>},
    {"checker.abort_on_violation", at<&RunConfig::validate, &V::checker,
                                      &Checker::abort_on_violation>},
    {"checker.allow_cpu_oversubscription",
     at<&RunConfig::validate, &V::checker,
        &Checker::allow_cpu_oversubscription>},
    {"checker.max_violations",
     at<&RunConfig::validate, &V::checker, &Checker::max_violations>},
};

/// `host.<index>.<key>`, for each scalar field of a host's spec that
/// differs from its class's nominal spec (its PowerModel is not carried).
constexpr support::KeyRow<HostSpec> kHostKeys[] = {
    {"cpu_capacity_pct", at<&HostSpec::cpu_capacity_pct>},
    {"mem_mb", at<&HostSpec::mem_mb>},
    {"creation_cost_s", at<&HostSpec::creation_cost_s>},
    {"migration_cost_s", at<&HostSpec::migration_cost_s>},
    {"boot_time_s", at<&HostSpec::boot_time_s>},
    {"shutdown_time_s", at<&HostSpec::shutdown_time_s>},
    {"dom0_io_channels", at<&HostSpec::dom0_io_channels>},
    {"reliability", at<&HostSpec::reliability>},
    {"arch", at<&HostSpec::arch>},
    {"software", at<&HostSpec::software>},
};

std::string host_prefix(std::size_t i) {
  return std::string(kHostPrefix) + support::format_value(i) + '.';
}

/// Reads a `host.<index>.<key>` key into that host's spec (after `hosts=`
/// has sized the list); false when `key` names no such field.
bool read_host_key(RunConfig& c, std::string_view key,
                   std::string_view value) {
  if (key.substr(0, kHostPrefix.size()) != kHostPrefix) return false;
  const std::size_t dot = key.find('.', kHostPrefix.size());
  std::size_t i = 0;
  if (dot == std::string_view::npos ||
      !support::parse_value(
          key.substr(kHostPrefix.size(), dot - kHostPrefix.size()), i) ||
      i >= c.datacenter.hosts.size()) {
    return false;
  }
  return support::read_key(kHostKeys, c.datacenter.hosts[i], key, value,
                           kSpec, key.substr(0, dot + 1));
}

constexpr support::KeyRow<ReproViolation> kViolationKeys[] = {
    {"violation", at<&ReproViolation::what>},
    {"violation_t", at<&ReproViolation::t>},
};

workload::Job parse_job(const std::string& line) {
  std::istringstream fields(line);
  workload::Job job;
  int arch = 0;
  if (!(fields >> job.id >> job.submit >> job.dedicated_seconds >>
        job.cpu_pct >> job.mem_mb >> job.deadline_factor >> arch >>
        job.software >> job.fault_tolerance >> job.weight) ||
      !(fields >> std::ws).eof()) {
    throw std::runtime_error("malformed repro bundle job line: " + line);
  }
  job.arch = static_cast<workload::Arch>(arch);
  return job;
}

}  // namespace

std::vector<datacenter::HostSpec> specs_for(
    const std::vector<std::string>& classes) {
  std::vector<datacenter::HostSpec> specs;
  for (const auto& klass : classes) {
    specs.push_back(datacenter::HostSpec::medium());
    for (auto make : {&datacenter::HostSpec::fast, &datacenter::HostSpec::slow,
                      &datacenter::HostSpec::low_power}) {
      if (make().klass == klass) specs.back() = make();
    }
  }
  return specs;
}

void write_repro_bundle(std::ostream& out, const RunConfig& config,
                        const ReproViolation& violation,
                        const workload::Workload& jobs) {
  std::string keys;
  support::write_keys(keys, kRunKeys, config, '\n');
  const auto& hosts = config.datacenter.hosts;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    support::write_keys(keys, kHostKeys, hosts[i], '\n', host_prefix(i),
                        specs_for({hosts[i].klass}).front());
  }
  support::write_keys(keys, kViolationKeys, violation, '\n');
  out << kHeader << '\n' << keys << '\n' << kJobsSeparator << '\n';
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& job : jobs) {
    if (job.submit > violation.t) continue;
    out << job.id << ' ' << job.submit << ' ' << job.dedicated_seconds << ' '
        << job.cpu_pct << ' ' << job.mem_mb << ' ' << job.deadline_factor
        << ' ' << static_cast<int>(job.arch) << ' ' << job.software << ' '
        << job.fault_tolerance << ' ' << job.weight << '\n';
  }
}

void write_repro_bundle_file(const std::string& path, const RunConfig& config,
                             const ReproViolation& violation,
                             const workload::Workload& jobs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write repro bundle: " + path);
  write_repro_bundle(out, config, violation, jobs);
}

ReproBundle read_repro_bundle(std::istream& in) {
  ReproBundle bundle;
  bool in_jobs = false;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (line == kJobsSeparator) {
      in_jobs = true;
    } else if (in_jobs) {
      bundle.jobs.push_back(parse_job(line));
    } else {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("malformed repro bundle line: " + line);
      }
      const std::string_view key(line.data(), eq);
      const std::string_view value = std::string_view(line).substr(eq + 1);
      try {
        if (!support::read_key(kRunKeys, bundle.config, key, value, kSpec) &&
            !read_host_key(bundle.config, key, value) &&
            !support::read_key(kViolationKeys, bundle.violation, key, value,
                               kSpec)) {
          support::unknown_key(kSpec, key);
        }
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error(e.what());
      }
    }
  }
  if (!in_jobs) throw std::runtime_error("repro bundle has no job section");
  return bundle;
}

ReproBundle read_repro_bundle_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read repro bundle: " + path);
  return read_repro_bundle(in);
}

}  // namespace easched::experiments
