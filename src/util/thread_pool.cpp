#include "src/util/thread_pool.hpp"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/thread_name.hpp"

namespace home::util {

namespace internal {

/// One pooled OS thread.  Never freed, and the thread never joined: it
/// serves jobs until the process exits, and handles keep pointers to it
/// after their job ended.  All but `thread` is guarded by the pool mutex.
struct PoolWorker {
  std::condition_variable wake;      ///< a job was handed over.
  std::condition_variable finished;  ///< a job ended.
  std::function<void()> job;         ///< the job handed over, not yet taken.
  std::uint64_t started = 0;         ///< jobs handed to this thread.
  std::uint64_t done = 0;            ///< jobs it finished.
  std::thread thread;
};

}  // namespace internal

namespace {

using internal::PoolWorker;

struct Pool {
  std::mutex mu;
  std::vector<PoolWorker*> parked;  ///< most recently parked last.
  std::size_t threads = 0;
};

Pool& pool() {
  // Leaked: parked threads wait on its mutex until the process exits.
  static Pool* p = new Pool();
  return *p;
}

/// A job that throws ends the process, as it would from a std::thread.
void run_job(const std::function<void()>& job) noexcept { job(); }

void serve(PoolWorker* w) {
  Pool& p = pool();
  std::unique_lock<std::mutex> lock(p.mu);
  for (;;) {
    w->wake.wait(lock, [w] { return w->started != w->done; });
    std::function<void()> job = std::move(w->job);
    w->job = nullptr;
    lock.unlock();
    ++internal::tls_job_id;
    run_job(job);
    job = nullptr;  // its captures die before the joiner wakes.
    set_current_thread_name({});
    lock.lock();
    ++w->done;
    p.parked.push_back(w);
    w->finished.notify_all();
  }
}

}  // namespace

PooledThread::PooledThread(std::function<void()> job) {
  Pool& p = pool();
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.parked.empty()) {
      worker_ = p.parked.back();
      p.parked.pop_back();
      worker_->job = std::move(job);
      ticket_ = ++worker_->started;
    } else {
      ++p.threads;
    }
  }
  if (worker_ != nullptr) {
    worker_->wake.notify_one();
    return;
  }
  // Nothing parked: start a thread (outside the lock, it is the slow path).
  auto* w = new PoolWorker();
  w->job = std::move(job);
  w->started = 1;
  try {
    w->thread = std::thread(serve, w);
  } catch (...) {
    delete w;
    std::lock_guard<std::mutex> lock(p.mu);
    --p.threads;
    throw;
  }
  worker_ = w;
  ticket_ = 1;
}

PooledThread::~PooledThread() {
  if (joinable()) std::terminate();
}

PooledThread::PooledThread(PooledThread&& other) noexcept
    : worker_(std::exchange(other.worker_, nullptr)),
      ticket_(other.ticket_) {}

PooledThread& PooledThread::operator=(PooledThread&& other) noexcept {
  if (joinable()) std::terminate();
  worker_ = std::exchange(other.worker_, nullptr);
  ticket_ = other.ticket_;
  return *this;
}

void PooledThread::join() {
  if (!joinable()) {
    throw std::system_error(std::make_error_code(std::errc::invalid_argument),
                            "PooledThread::join: no job");
  }
  Pool& p = pool();
  std::unique_lock<std::mutex> lock(p.mu);
  worker_->finished.wait(lock, [this] { return worker_->done >= ticket_; });
  worker_ = nullptr;
}

std::size_t pooled_thread_count() {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.threads;
}

namespace internal {

void run_pooled_jobs(std::size_t n,
                     const std::function<void(std::size_t)>& job) {
  std::vector<std::exception_ptr> errors(n);
  const auto guarded = [&job, &errors](std::size_t k) {
    try {
      job(k);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  std::vector<PooledThread> workers;
  workers.reserve(n - 1);
  for (std::size_t k = 1; k < n; ++k) {
    try {
      workers.emplace_back([&guarded, k] { guarded(k); });
    } catch (...) {
      errors[k] = std::current_exception();
      break;
    }
  }
  guarded(0);
  for (PooledThread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace internal

}  // namespace home::util
