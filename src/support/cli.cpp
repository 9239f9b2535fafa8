#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace easched::support {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      key = std::move(arg);
      value = argv[++i];
    } else {
      key = std::move(arg);
      value = "true";  // bare flag
    }
    // Deterministic last-one-wins on repeats, with a warning — a duplicated
    // flag is usually an edited command line where the stale copy survived.
    const auto it = values_.find(key);
    if (it != values_.end()) {
      ++duplicates_;
      std::fprintf(stderr,
                   "easched: warning: --%s given more than once; using "
                   "'%s' (was '%s')\n",
                   key.c_str(), value.c_str(), it->second.c_str());
      it->second = std::move(value);
    } else {
      values_.emplace(std::move(key), std::move(value));
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  seen_.insert(key);
  return values_.count(key) != 0;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  seen_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  seen_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(key);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "easched: bad numeric value for --%s: '%s'\n",
                 key.c_str(), it->second.c_str());
    std::exit(2);
  }
}

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  seen_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(key);
    return v;
  } catch (const std::exception&) {
    std::fprintf(stderr, "easched: bad integer value for --%s: '%s'\n",
                 key.c_str(), it->second.c_str());
    std::exit(2);
  }
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  seen_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  std::fprintf(stderr, "easched: bad boolean value for --%s: '%s'\n",
               key.c_str(), v.c_str());
  std::exit(2);
}

std::size_t CliArgs::warn_unrecognized() const {
  std::size_t unknown = 0;
  for (const auto& [key, value] : values_) {
    if (seen_.count(key) != 0) continue;
    ++unknown;
    std::fprintf(stderr, "easched: warning: unrecognized option --%s%s%s\n",
                 key.c_str(), value == "true" ? "" : "=",
                 value == "true" ? "" : value.c_str());
  }
  return unknown;
}

int run_guarded(int argc, char** argv, int (*body)(int argc, char** argv)) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace easched::support
