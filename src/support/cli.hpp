// Tiny command-line option parser shared by the examples and bench
// binaries: `--key value` and `--key=value` pairs plus `--flag` booleans.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace easched::support {

/// Parses argv into a key->value map. Unrecognised positional arguments are
/// collected in `positional()`. Lookup helpers return the supplied default
/// when the option is absent and abort with a message when a value fails to
/// parse, so misspelled numeric options never silently run a wrong config.
///
/// Every lookup (has/get/...) marks its key as recognised; after all
/// options have been read, call warn_unrecognized() to flag typos like
/// `--trce=` that would otherwise be ignored silently.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Prints a stderr warning for each option that was supplied but never
  /// looked up. Call after the last get*(); returns the number of unknown
  /// options so callers can choose to make the typo fatal.
  std::size_t warn_unrecognized() const;

  /// Options that appeared more than once on the command line (each repeat
  /// warned at parse time; the last value deterministically wins).
  [[nodiscard]] std::size_t duplicate_count() const noexcept {
    return duplicates_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::size_t duplicates_ = 0;
  /// Keys the program has looked up — i.e. options it understands.
  mutable std::set<std::string> seen_;
};

/// Runs a command-line program's `body` and turns a rejected argument into
/// a usage error: a std::invalid_argument that escapes it (a malformed
/// --faults=, --resilience= or --alerts= spec, an observability flag
/// obs::options_from_cli rejects, or a run config that run_experiment
/// refuses, such as two different breaker policies) prints `error: <what>`
/// on stderr and returns exit status 2. Anything else propagates. Use it as `int main(int argc, char** argv) { return
/// run_guarded(argc, argv, run); }`.
int run_guarded(int argc, char** argv, int (*body)(int argc, char** argv));

}  // namespace easched::support
