#include "src/detect/lockset.hpp"

namespace home::detect {

bool is_potential_lockset_race(const trace::Event& a, const trace::Event& b) {
  if (a.tid == b.tid) return false;
  if (a.obj != b.obj) return false;
  if (!a.is_access() || !b.is_access()) return false;
  if (!a.is_write() && !b.is_write()) return false;
  return trace::locksets_disjoint(a.locks_held, b.locks_held);
}

}  // namespace home::detect
