#include "src/baselines/marmot.hpp"

#include <functional>
#include <sstream>
#include <thread>

#include "src/simmpi/universe.hpp"

namespace home::baselines {
namespace {

using trace::MpiCallType;

bool args_equal_overlap(int a, int b) { return a == b || a < 0 || b < 0; }

/// Simulated per-call processing cost of the global analysis (busy
/// iterations, run while holding the central lock so all ranks serialize
/// through it — Marmot's debug-server bottleneck).
constexpr int kAgentCheckIterations = 1100;

}  // namespace

int MarmotChecker::current_tid_key() {
  return static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffff);
}

void MarmotChecker::on_call_begin(const simmpi::CallDesc& desc) {
  // Every call funnels through the central analysis: all ranks serialize on
  // the checker's lock while the global analysis runs — the debug-server
  // bottleneck that makes Marmot's overhead grow with total call volume.
  check_against_active(desc, current_tid_key());
}

void MarmotChecker::on_call_end(const simmpi::CallDesc& desc) {
  const int tid = current_tid_key();
  std::lock_guard<std::mutex> lock(mu_);
  auto& calls = active_[desc.rank];
  for (auto it = calls.begin(); it != calls.end(); ++it) {
    if (it->tid == tid && it->type == desc.type && it->request == desc.request &&
        it->tag == desc.tag && it->peer == desc.peer) {
      calls.erase(it);
      return;
    }
  }
}

void MarmotChecker::add_violation(spec::Violation v) {
  const std::string key = violation_key(v);
  if (seen_.insert(key).second) violations_.push_back(std::move(v));
}

void MarmotChecker::check_against_active(const simmpi::CallDesc& desc, int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  ++calls_checked_;

  // Simulated global-analysis work, performed inside the critical section so
  // concurrent ranks queue behind it.
  volatile std::uint64_t sink = 1;
  for (int i = 0; i < kAgentCheckIterations; ++i) sink = sink * 31 + 7;

  auto make = [&](spec::ViolationType type, const ActiveCall* other,
                  const std::string& detail) {
    spec::Violation v;
    v.type = type;
    v.rank = desc.rank;
    v.callsite1 = desc.callsite ? desc.callsite : "";
    if (other && other->callsite) v.callsite2 = other->callsite;
    v.detail = detail + " [manifest overlap]";
    return v;
  };

  // Thread-level checks that need no overlap (Marmot does these reliably).
  if (!desc.on_main_thread) {
    if (desc.provided == simmpi::ThreadLevel::kFunneled ||
        desc.provided == simmpi::ThreadLevel::kSingle) {
      add_violation(make(spec::ViolationType::kInitialization, nullptr,
                         std::string(trace::routine_of(desc.type).name) +
                             " off the main thread under " +
                             simmpi::thread_level_name(desc.provided)));
    }
    if (desc.type == MpiCallType::kFinalize) {
      add_violation(make(spec::ViolationType::kFinalization, nullptr,
                         "MPI_Finalize off the main thread"));
    }
  }

  // Overlap checks against this rank's currently executing calls.
  const trace::MpiRoutine& mine = trace::routine_of(desc.type);
  const auto& calls = active_[desc.rank];
  for (const ActiveCall& other : calls) {
    if (other.tid == tid) continue;
    const trace::MpiRoutine& theirs = trace::routine_of(other.type);

    if (desc.provided == simmpi::ThreadLevel::kSerialized) {
      add_violation(make(spec::ViolationType::kInitialization, &other,
                         "two MPI calls overlap under MPI_THREAD_SERIALIZED"));
    }
    if (desc.type == MpiCallType::kFinalize ||
        other.type == MpiCallType::kFinalize) {
      add_violation(make(spec::ViolationType::kFinalization, &other,
                         "MPI_Finalize overlaps another MPI call"));
    }
    const bool recv1 = mine.receives();
    const bool recv2 = theirs.receives();
    if (recv1 && recv2 && desc.comm == other.comm &&
        args_equal_overlap(desc.peer, other.peer) &&
        args_equal_overlap(desc.tag, other.tag)) {
      add_violation(make(spec::ViolationType::kConcurrentRecv, &other,
                         "overlapping receives with same (source, tag, comm)"));
    }
    const bool probe1 = mine.probes();
    const bool probe2 = theirs.probes();
    if (((probe1 && (probe2 || recv2)) || (probe2 && recv1)) &&
        desc.comm == other.comm && args_equal_overlap(desc.peer, other.peer) &&
        args_equal_overlap(desc.tag, other.tag)) {
      add_violation(make(spec::ViolationType::kProbe, &other,
                         "probe overlaps probe/recv with same (source, tag)"));
    }
    if (mine.completes_request() && theirs.completes_request() &&
        desc.request == other.request && desc.request != 0) {
      add_violation(make(spec::ViolationType::kConcurrentRequest, &other,
                         "overlapping Wait/Test on one request"));
    }
    if (mine.collective() && theirs.collective() && desc.comm == other.comm) {
      add_violation(make(spec::ViolationType::kCollectiveCall, &other,
                         "overlapping collectives on one communicator"));
    }
  }

  // Register this call as active until its end hook runs.
  ActiveCall entry;
  entry.type = desc.type;
  entry.tid = tid;
  entry.peer = desc.peer;
  entry.tag = desc.tag;
  entry.comm = desc.comm;
  entry.request = desc.request;
  entry.on_main_thread = desc.on_main_thread;
  entry.callsite = desc.callsite;
  entry.token = next_token_++;
  active_[desc.rank].push_back(entry);
}

std::vector<spec::Violation> MarmotChecker::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::size_t MarmotChecker::calls_checked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_checked_;
}

MarmotSession::MarmotSession()
    : checker_(std::make_unique<MarmotChecker>()) {}

void MarmotSession::configure(simmpi::UniverseConfig& ucfg) {
  ucfg.registry = &registry_;  // needed for on_main_thread attribution.
}

void MarmotSession::attach(simmpi::Universe& universe) {
  universe.hooks().add(checker_.get());
  universe.run_context().registry = &registry_;  // thread ids, no trace.
}

void MarmotSession::detach(simmpi::Universe& universe) {
  universe.hooks().remove(checker_.get());
  universe.run_context().registry = nullptr;
}

Report MarmotSession::analyze() {
  ReportStats stats;
  stats.instrumented_calls = checker_->calls_checked();
  return Report(checker_->violations(), stats);
}

}  // namespace home::baselines
