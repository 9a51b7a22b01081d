#include "opt/confirm.h"

namespace statsizer::opt {

Confirmed confirm(
    std::size_t count,
    const std::function<std::unique_ptr<timing::Speculation>(std::size_t)>& propose,
    const std::function<bool(std::size_t, const timing::Summary&)>& judge,
    const std::function<std::size_t(std::size_t, const std::function<void()>& commit)>&
        on_commit) {
  Confirmed out;
  for (std::size_t next = 0; next < count;) {
    const std::unique_ptr<timing::Speculation> spec = propose(next);
    if (spec != nullptr) ++out.judged;
    if (spec == nullptr || !judge(next, spec->score())) {
      ++next;
      continue;
    }
    next = on_commit(next, [&] { spec->commit(); });
    spec->commit();  // a no-op when the hook committed
    ++out.committed;
  }
  return out;
}

}  // namespace statsizer::opt
