#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // The rank in exact integer arithmetic on hundredths of a percent, as in
  // tail_percentile(): p / 100 * n in doubles rounds 999 up to 1000 for
  // p99.9 of 1000 samples.
  const std::uint64_t n = samples.size();
  const auto p_hundredths =
      static_cast<std::uint64_t>(std::llround(std::clamp(p, 0.0, 100.0) * 100));
  const std::uint64_t rank =
      std::clamp<std::uint64_t>((n * p_hundredths + 9999) / 10000, 1, n);
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::size_t n) {
  // Percentiles in hundredths of a percent, so the rank is exact integer
  // arithmetic: 10000 samples leave exactly ten beyond p99.9.
  constexpr std::uint64_t kLadder[] = {9999, 9990, 9900, 9500, 9000, 5000};
  for (const std::uint64_t p : kLadder) {
    const std::uint64_t rank = (n * p + 9999) / 10000;
    if (n - rank >= 10) return static_cast<double>(p) / 100.0;
  }
  return std::nullopt;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
