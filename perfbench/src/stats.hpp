// Small numeric and reporting helpers of the benchmark: nearest-rank
// percentiles, the tail-percentile rule, the FNV-1a decision digest and
// the metric-name character set of the result line.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Median of `samples` (mean of the middle pair for even counts); 0 when
/// empty.
double median(std::vector<double> samples);

/// The highest percentile of the ladder 99.99, 99.9, 99, 95, 90, 50 that
/// has at least ten samples beyond it when `n` samples are ranked by
/// nearest rank, or nullopt when even the median has fewer than ten.
std::optional<double> tail_percentile(std::size_t n);

/// True when `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);

/// True when `unit` is a valid unit: 1 to 16 letters, digits, '_', '/',
/// '%', '.' and '-'.
bool valid_unit(const std::string& unit);

/// 64-bit FNV-1a over whatever the decision digest is fed.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  /// Doubles are hashed by bit pattern: the digest demands bit-identical
  /// results, not merely close ones.
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
