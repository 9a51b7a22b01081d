#include "opt/confirm.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace statsizer::opt {

Confirmed confirm(
    std::size_t threads, std::size_t count,
    const std::function<std::unique_ptr<timing::Speculation>(std::size_t)>& propose,
    const std::function<bool(std::size_t, const timing::Summary&)>& judge,
    const std::function<std::size_t(std::size_t, const std::function<void()>& commit)>&
        on_commit) {
  // One candidate per worker: an acceptance discards the rest of its window,
  // and acceptances land early in the optimizer's orders.
  const std::size_t window = util::region_threads(threads);
  Confirmed out;
  std::vector<std::unique_ptr<timing::Speculation>> wave;
  for (std::size_t next = 0; next < count;) {
    const std::size_t width = std::min(count - next, window);
    wave.clear();
    wave.resize(width);
    for (std::size_t i = 0; i < width; ++i) wave[i] = propose(next + i);
    if (width > 1) {
      // Chunk 1: each score is a whole fanout-cone replay.
      util::parallel_for(width, 1, window, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          if (wave[i] != nullptr) (void)wave[i]->score();
        }
      });
    }
    std::size_t hit = 0;
    for (; hit < width; ++hit) {
      if (wave[hit] == nullptr) continue;
      ++out.judged;
      if (judge(next + hit, wave[hit]->score())) break;
      wave[hit].reset();  // a rejected overlay is never reread
    }
    if (hit == width) {
      next += width;
      continue;
    }
    const std::unique_ptr<timing::Speculation> accepted = std::move(wave[hit]);
    wave.clear();  // scored against the base this commit replaces
    next = on_commit(next + hit, [&] { accepted->commit(); });
    accepted->commit();  // a no-op when the hook committed
    ++out.committed;
  }
  return out;
}

}  // namespace statsizer::opt
