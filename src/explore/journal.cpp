#include "src/explore/journal.hpp"

#include <sstream>

namespace home::explore {

namespace {

constexpr const char* kHeader = "# home sweep journal v1";

std::string meta_line(const JournalMeta& meta) {
  std::ostringstream os;
  os << "meta schedules=" << meta.schedules << " base_seed=" << meta.base_seed
     << " strategy=" << meta.strategy;
  return os.str();
}

}  // namespace

SweepJournal::SweepJournal(const std::string& path, const JournalMeta& meta)
    : path_(path) {
  // Peek whether the file already has content (a resume appends; a fresh
  // journal gets the header).
  bool empty = true;
  {
    std::ifstream in(path);
    std::string first;
    if (in && std::getline(in, first) && !first.empty()) empty = false;
  }
  out_.open(path, std::ios::app);
  if (!out_) return;
  if (empty) {
    out_ << kHeader << "\n" << meta_line(meta) << "\n";
    out_.flush();
  }
}

void SweepJournal::record(const JournalEntry& entry) {
  if (!ok()) return;
  out_ << "run " << entry.index << " " << entry.seed << " " << entry.signature
       << " " << entry.hook_hits << " " << entry.status << " " << entry.retries
       << "\n";
  for (const std::string& key : entry.keys) {
    out_ << "key " << entry.index << " " << key << "\n";
  }
  for (const std::string& err : entry.errors) {
    out_ << "err " << entry.index << " " << err << "\n";
  }
  if (!entry.schedule_path.empty()) {
    out_ << "sched " << entry.index << " " << entry.schedule_path << "\n";
  }
  if (entry.certificates != 0 || entry.certificates_verified != 0) {
    out_ << "cert " << entry.index << " " << entry.certificates << " "
         << entry.certificates_verified << "\n";
  }
  out_ << "end " << entry.index << "\n";
  // The flush is the checkpoint: everything before it survives a kill.
  out_.flush();
}

bool SweepJournal::load(const std::string& path, const JournalMeta& expect,
                        std::map<int, JournalEntry>* out,
                        std::size_t* torn_blocks) {
  out->clear();
  if (torn_blocks != nullptr) *torn_blocks = 0;
  std::ifstream in(path);
  if (!in) return false;

  std::string line;
  if (!std::getline(in, line) || line != kHeader) return false;
  if (!std::getline(in, line) || line != meta_line(expect)) return false;

  JournalEntry open;     // block being accumulated.
  bool block_open = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "run") {
      if (block_open && torn_blocks != nullptr) ++*torn_blocks;
      open = JournalEntry{};
      if (!(is >> open.index >> open.seed >> open.signature >> open.hook_hits >>
            open.status >> open.retries)) {
        block_open = false;  // torn `run` line: skip until the next block.
        continue;
      }
      block_open = true;
    } else if (!block_open) {
      continue;  // orphan line after a torn block.
    } else if (tag == "key" || tag == "err" || tag == "sched") {
      int index = 0;
      is >> index;
      if (is.fail() || index != open.index) continue;
      std::string rest;
      std::getline(is, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      if (rest.empty()) continue;
      if (tag == "key") open.keys.insert(rest);
      else if (tag == "err") open.errors.push_back(rest);
      else open.schedule_path = rest;
    } else if (tag == "cert") {
      int index = 0;
      is >> index >> open.certificates >> open.certificates_verified;
      if (is.fail() || index != open.index) {
        open.certificates = 0;
        open.certificates_verified = 0;
      }
    } else if (tag == "end") {
      int index = 0;
      is >> index;
      if (!is.fail() && index == open.index) {
        (*out)[open.index] = open;
      } else if (torn_blocks != nullptr) {
        ++*torn_blocks;
      }
      block_open = false;
    }
    // Unknown tags are skipped (forward compatibility).
  }
  if (block_open && torn_blocks != nullptr) ++*torn_blocks;
  return true;
}

}  // namespace home::explore
