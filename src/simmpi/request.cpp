#include "src/simmpi/request.hpp"

#include <chrono>

#include "src/simmpi/abort.hpp"

namespace home::simmpi {

void RequestState::complete(Status status, Err err) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    status_ = status;
    err_ = err;
  }
  cv_.notify_all();
}

Err RequestState::wait(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!abortable_wait(cv_, lock, timeout_ms, [this] { return done_; })) {
    throw TimeoutError("MPI_Wait timed out (possible deadlock), request " +
                       std::to_string(id_));
  }
  return err_;
}

bool RequestState::test(Status* status_out, Err* err_out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!done_) return false;
  if (status_out) *status_out = status_;
  if (err_out) *err_out = err_;
  return true;
}

void RequestState::reset_for_restart() {
  std::lock_guard<std::mutex> lock(mu_);
  done_ = false;
  status_ = Status{};
  err_ = Err::kOk;
}

bool RequestState::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

Status RequestState::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

Err RequestState::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return err_;
}

}  // namespace home::simmpi
