#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  Rng a(seed);
  Rng b(a.next() ^ (index * 0xd1b54a32d192ed03ULL));
  return b.next();
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Percentile percentile(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the data at or below it.
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  p.ok = v.size() - rank >= Percentile::kMinBeyond;
  if (!p.ok && v.size() > Percentile::kMinBeyond) rank = v.size() - Percentile::kMinBeyond;
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  p.q = static_cast<double>(rank) / static_cast<double>(v.size());
  return p;
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= bytes[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
