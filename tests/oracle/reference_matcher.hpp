// The reference thread-safety matcher: an independent batch scan of a
// ConcurrencyReport.  It shares the rule builders (src/spec/rules.hpp) and
// the HbIndex stamps with spec::Matcher but none of its premise tracking: it
// collects per-rank facts in one scan, then checks V1 per rank and V2 with
// full-clock HB queries instead of epochs.  Its record for each key is the
// one Matcher::match must report.
#pragma once

#include <vector>

#include "src/detect/race_detector.hpp"
#include "src/spec/violations.hpp"
#include "src/trace/trace_log.hpp"

namespace home::oracle {

/// One record per violation key, in the batch scan's order: V3–V6 by
/// verdict, then V1 per rank, then V2 per rank.
std::vector<spec::Violation> reference_match(
    const detect::ConcurrencyReport& report, const trace::StringTable* strings);

}  // namespace home::oracle
