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
using Dc = datacenter::DatacenterConfig;
using Ckpt = datacenter::CheckpointPolicy;
using Driver = sched::DriverConfig;
using Power = sched::PowerControllerConfig;
using V = RunValidation;
using Checker = validate::CheckerConfig;

constexpr const char* kSpec = "repro bundle";
constexpr const char* kHeader = "# easched repro bundle v2";
constexpr const char* kJobsSeparator = "--- jobs ---";

bool read_hosts(RunConfig& c, std::string_view value) {
  std::vector<std::string> classes;
  support::for_each_item(value,
                         [&](std::string_view k) { classes.emplace_back(k); });
  c.datacenter.hosts = specs_for(classes);
  return true;
}

std::optional<std::string> write_hosts(const RunConfig& c) {
  if (c.datacenter.hosts.empty()) return std::nullopt;
  std::string out;
  for (const auto& spec : c.datacenter.hosts) out += "," + spec.klass;
  return out.substr(1);
}

bool read_faults(RunConfig& c, std::string_view value) {
  c.faults = faults::parse_fault_plan(std::string(value));
  return true;
}

std::optional<std::string> write_faults(const RunConfig& c) {
  if (!c.faults.enabled) return std::nullopt;
  return c.faults.to_string();
}

bool read_resilience(RunConfig& c, std::string_view value) {
  c.resilience = resilience::parse_resilience_spec(std::string(value));
  return true;
}

std::optional<std::string> write_resilience(const RunConfig& c) {
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
