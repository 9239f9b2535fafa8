#include "pace.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Operations of one slice: about 25 ms on a quiet host. Slices of a tenth
/// of that, or on containers kept warm between slices, slowed by a third
/// as much as the program did and corrected little.
constexpr int kOpsPerSlice = 60000;
constexpr std::uint64_t kHashKeys = 40000;
constexpr std::uint64_t kOrderedKeys = 20000;
constexpr std::size_t kQueueLen = 5000;
constexpr std::size_t kBatch = 2000;

}  // namespace

Pace::Pace() {
  slice();
  slice();
  slices_ms_.clear();
}

void Pace::slice() {
  const Clock::time_point t0 = Clock::now();
  // The same work every slice: the same keys, from empty containers.
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 17;
  };
  std::unordered_map<std::uint64_t, double> counts;
  std::map<std::uint64_t, std::uint64_t> ordered;
  std::priority_queue<std::pair<double, std::uint64_t>> events;
  std::vector<double> batch;
  for (int i = 0; i < kOpsPerSlice; ++i) {
    const std::uint64_t k = next();
    counts[k % kHashKeys] += 1.0;
    const auto it = ordered.find(k % kOrderedKeys);
    if (it == ordered.end()) {
      ordered.emplace(k % kOrderedKeys, k);
    } else if ((k & 1) != 0) {
      ordered.erase(it);
    }
    events.emplace(static_cast<double>(next() % 100000), k);
    if (events.size() > kQueueLen) {
      sink_ += events.top().first;
      events.pop();
    }
    batch.push_back(static_cast<double>(next() % 1000));
    if (batch.size() == kBatch) {
      std::sort(batch.begin(), batch.end());
      sink_ += batch[kBatch / 2];
      batch.clear();
    }
  }
  sink_ += static_cast<double>(counts.size() + ordered.size());
  last_ = Clock::now();
  slices_ms_.push_back(
      std::chrono::duration<double, std::milli>(last_ - t0).count());
}

void Pace::take_if_due() {
  if (Clock::now() - last_ >= kInterval) slice();
}

}  // namespace perfbench
