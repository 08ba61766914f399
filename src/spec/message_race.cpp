#include "src/spec/message_race.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/spec/matcher.hpp"

namespace home::spec {
namespace {

using detect::HbIndex;
using trace::Event;

bool is_send_call(const Event& e) {
  return e.kind == trace::EventKind::kMpiCall && e.mpi &&
         trace::routine_of(e.mpi->type).sends();
}

bool is_wildcard_recv(const Event& e) {
  return e.kind == trace::EventKind::kMpiCall && e.mpi &&
         trace::routine_of(e.mpi->type).receives() && e.mpi->peer < 0;
}

}  // namespace

std::string MessageRace::to_string() const {
  std::ostringstream os;
  os << "MessageRace @ rank " << rank << ": wildcard receive";
  if (!recv_site.empty()) os << " (" << recv_site << ")";
  os << " with tag=" << tag << " can match concurrent sends from ranks {";
  for (std::size_t i = 0; i < sender_ranks.size(); ++i) {
    if (i) os << ", ";
    os << sender_ranks[i];
  }
  os << "}";
  return os.str();
}

std::vector<MessageRace> find_message_races(
    const detect::ConcurrencyReport& report, const trace::StringTable* strings) {
  const HbIndex& hb = report.hb();
  const auto& events = hb.events();

  // Collect send call sites once.
  std::vector<std::size_t> sends;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (is_send_call(events[i])) sends.push_back(i);
  }

  std::vector<MessageRace> races;
  std::set<std::string> seen;  // dedupe by (rank, site, senders).

  for (std::size_t r = 0; r < events.size(); ++r) {
    const Event& recv = events[r];
    if (!is_wildcard_recv(recv)) continue;

    // Candidate senders: different rank, destination = receiving rank (exact
    // on COMM_WORLD), same communicator, overlapping tag, and the send is not
    // ordered *after* the receive (a send that can only happen after the
    // receive completed cannot be matched by it).
    std::vector<std::size_t> candidates;
    for (std::size_t s : sends) {
      const Event& send = events[s];
      if (send.rank == recv.rank) continue;
      if (send.mpi->comm != recv.mpi->comm) continue;
      if (send.mpi->peer != recv.rank) continue;
      if (!args_overlap(send.mpi->tag, recv.mpi->tag)) continue;
      if (hb.ordered(r, s)) continue;  // send strictly after the receive.
      candidates.push_back(s);
    }

    // A race needs two candidates from different ranks that are mutually
    // concurrent (neither send is forced to arrive first).
    std::set<int> racy_ranks;
    for (std::size_t a = 0; a < candidates.size(); ++a) {
      for (std::size_t b = a + 1; b < candidates.size(); ++b) {
        const Event& s1 = events[candidates[a]];
        const Event& s2 = events[candidates[b]];
        if (s1.rank == s2.rank) continue;
        if (!hb.concurrent(candidates[a], candidates[b])) continue;
        racy_ranks.insert(s1.rank);
        racy_ranks.insert(s2.rank);
      }
    }
    if (racy_ranks.size() < 2) continue;

    MessageRace race;
    race.recv_call = recv.seq;
    race.rank = recv.rank;
    race.tag = recv.mpi->tag;
    if (strings && recv.mpi->callsite != 0) {
      race.recv_site = strings->lookup(recv.mpi->callsite);
    }
    race.sender_ranks.assign(racy_ranks.begin(), racy_ranks.end());

    std::ostringstream key;
    key << race.rank << "|" << race.recv_site << "|";
    for (int rank : race.sender_ranks) key << rank << ",";
    if (seen.insert(key.str()).second) races.push_back(std::move(race));
  }
  return races;
}

}  // namespace home::spec
