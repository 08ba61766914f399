#include "src/util/thread_name.hpp"

#include <utility>

namespace home::util {
namespace {

struct ThreadName {
  std::string name;
  std::uint64_t version = 0;
};

ThreadName& thread_name_slot() {
  thread_local ThreadName slot;
  return slot;
}

}  // namespace

void set_current_thread_name(std::string name) {
  ThreadName& slot = thread_name_slot();
  slot.name = std::move(name);
  ++slot.version;
}

const std::string& current_thread_name() { return thread_name_slot().name; }

std::uint64_t current_thread_name_version() {
  return thread_name_slot().version;
}

}  // namespace home::util
