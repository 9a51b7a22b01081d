// Corpus: rng-stateful must fire on a stateful generator anywhere under a
// sampling layer's path (src/ssta/, src/variation/), and stay silent on the
// counter-keyed draws.
#include <cstdint>
#include <random>

#include "util/rng.h"

namespace statsizer::ssta {

double stateful_draw(std::uint64_t seed) {
  util::Rng rng(seed);  // expect-lint: rng-stateful
  return rng.normal();
}

double stateful_engine(std::uint64_t seed) {
  std::mt19937_64 engine(seed);  // expect-lint: rng-stateful
  return static_cast<double>(engine());
}

double keyed_draw(std::uint64_t seed, std::uint64_t s, std::uint64_t key) {
  return util::keyed_normal(util::stream_seed(seed, s), key);
}

}  // namespace statsizer::ssta
