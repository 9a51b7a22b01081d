// Corpus: rng-stray must fire on every wall-clock / unseeded randomness
// pattern and on every standard distribution, and the waiver syntax must
// silence a justified use.
#include <cstdlib>
#include <ctime>
#include <random>

int stray_rand() {
  return std::rand();  // expect-lint: rng-stray
}

void stray_srand() {
  srand(42);  // expect-lint: rng-stray
}

unsigned stray_device() {
  std::random_device rd;  // expect-lint: rng-stray
  return rd();
}

long stray_time_seed() {
  return time(nullptr);  // expect-lint: rng-stray
}

long stray_std_time_seed() {
  return std::time(0);  // expect-lint: rng-stray
}

double stray_distribution(std::mt19937_64& engine) {
  return std::normal_distribution<double>(0.0, 1.0)(engine);  // expect-lint: rng-stray
}

// A justified waiver stays silent (e.g. a one-off tool that intentionally
// wants an OS entropy source).
unsigned waived_device() {
  std::random_device rd;  // lint-ok: rng-stray corpus example of a justified waiver
  return rd();
}

// Comments and strings never fire: std::rand() inside this comment is fine,
// and so is the literal below.
const char* kDoc = "call std::rand() and srand( time(NULL) ) at your peril";
