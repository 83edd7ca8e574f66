#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

/// One run: 40 Bellman-Ford relaxations to a fixed point over a fixed
/// pseudo-random graph with weights 3 - k*d.  Returns a value that
/// depends on every sweep so none can be elided.  Kept out of line and
/// 64-byte aligned: a tight loop's speed shifts with its code alignment,
/// and the kernel must not read differently when other code moves.
[[gnu::noinline, gnu::aligned(64)]] long long kernel() {
  constexpr std::size_t kNodes = 64;
  std::vector<std::array<std::size_t, 3>> edges;
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::size_t i = 0; i < 4 * kNodes; ++i)
    edges.push_back({next() % kNodes, next() % kNodes, next() % 3});
  long long total = 0;
  for (long long k = 0; k < 40; ++k) {
    std::vector<long long> dist(kNodes, 0);
    for (std::size_t round = 0; round < kNodes; ++round) {
      for (const auto& [from, to, delay] : edges) {
        const long long w = 3 - (k % 4) * static_cast<long long>(delay);
        const long long via = std::min(dist[from] + w, 1000000LL);
        if (via > dist[to]) dist[to] = via;
      }
    }
    total += dist[0] + dist[kNodes - 1];
  }
  return total;
}

}  // namespace

double reference_kernel_ms() {
  std::array<double, 5> times{};
  volatile long long sink = 0;
  for (double& t : times) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + kernel();
    t = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace perfbench
