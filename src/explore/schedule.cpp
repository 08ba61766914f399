#include "src/explore/schedule.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace home::explore {

namespace {

constexpr const char* kHookNames[kHookKindCount] = {
    "barrier",        "critical",  "lock",       "chunk_claim",
    "mpi_call",       "wait_test", "probe",      "collective_arrive",
    "recv_match",     "wildcard_pick",
};

constexpr const char* kHeader = "# home explore schedule v2";

}  // namespace

const char* hook_kind_name(HookKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kHookKindCount ? kHookNames[i] : "?";
}

bool parse_hook_kind(const std::string& name, HookKind* out) {
  for (int i = 0; i < kHookKindCount; ++i) {
    if (name == kHookNames[i]) {
      *out = static_cast<HookKind>(i);
      return true;
    }
  }
  return false;
}

std::string decision_key(HookKind kind, int rank, int lane,
                         const std::string& site) {
  std::string key;
  key.reserve(site.size() + 16);
  key += hook_kind_name(kind);
  key += '|';
  key += std::to_string(rank);
  key += '|';
  key += std::to_string(lane);
  key += '|';
  key += site;
  return key;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  os << kHeader << "\n";
  os << "strategy " << (strategy.empty() ? "?" : strategy) << "\n";
  os << "seed " << seed << "\n";
  if (fault_spec) {
    os << "fault_spec " << fault_spec->to_string() << "\n";
    os << "fault_seed " << fault_seed << "\n";
  }
  for (const Decision& d : decisions) {
    os << (d.is_pick ? "pick" : "yield") << ' ' << hook_kind_name(d.kind) << ' '
       << d.rank << ' ' << d.lane << ' '
       << (d.site.empty() ? "-" : d.site) << ' ' << d.occurrence << ' '
       << d.value << "\n";
  }
  for (const faults::FaultDecision& f : faults) {
    os << "fault " << faults::fault_kind_name(f.kind) << ' ' << f.rank << ' '
       << (f.site.empty() ? "-" : f.site) << ' ' << f.occurrence << ' '
       << f.value << "\n";
  }
  return os.str();
}

bool Schedule::parse(const std::string& text, Schedule* out) {
  Schedule parsed;
  std::istringstream is(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      saw_header = true;
      continue;
    }
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "strategy") {
      ls >> parsed.strategy;
    } else if (word == "seed") {
      ls >> parsed.seed;
    } else if (word == "pick" || word == "yield") {
      Decision d;
      d.is_pick = (word == "pick");
      std::string kind;
      ls >> kind >> d.rank >> d.lane >> d.site >> d.occurrence >> d.value;
      if (ls.fail() || !parse_hook_kind(kind, &d.kind)) return false;
      if (d.site == "-") d.site.clear();
      parsed.decisions.push_back(std::move(d));
    } else if (word == "fault_spec") {
      std::string spec;
      ls >> spec;
      parsed.fault_spec.emplace();
      if (ls.fail() || !faults::FaultSpec::parse(spec, &*parsed.fault_spec)) {
        return false;
      }
    } else if (word == "fault_seed") {
      ls >> parsed.fault_seed;
      if (ls.fail()) return false;
    } else if (word == "fault") {
      faults::FaultDecision f;
      std::string kind;
      ls >> kind >> f.rank >> f.site >> f.occurrence >> f.value;
      if (ls.fail() || !faults::parse_fault_kind(kind, &f.kind)) return false;
      if (f.site == "-") f.site.clear();
      parsed.faults.push_back(std::move(f));
    } else {
      return false;  // unknown directive.
    }
  }
  if (!saw_header && parsed.decisions.empty() && parsed.strategy.empty()) {
    return false;
  }
  if (!parsed.faults.empty() && !parsed.fault_spec) return false;
  *out = std::move(parsed);
  return true;
}

bool Schedule::save(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << to_string();
  return static_cast<bool>(os);
}

bool Schedule::load(const std::string& path, Schedule* out) {
  std::ifstream is(path);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str(), out);
}

}  // namespace home::explore
