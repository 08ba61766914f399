// The provenance engine (ISSUE-9 tentpole): builds one explanation
// certificate per reported violation, optionally re-verifies each through
// the independent replay oracle (--paranoid), links the two endpoints as
// Chrome-trace flow events, and serializes everything as provenance.json.
//
// Wired through home::Session (SessionConfig::diagnose) for both the
// post-mortem and the online analysis paths, and through explore::Sweeper,
// which additionally attaches ddmin-minimized reproduction schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/detect/happens_before.hpp"
#include "src/diagnose/certificate.hpp"
#include "src/explore/schedule.hpp"
#include "src/spec/violations.hpp"

namespace home::diagnose {

/// Session-level knobs (home::SessionConfig::diagnose).
struct Options {
  bool enabled = false;
  /// Re-validate every certificate at build time via verify_certificate()'s
  /// independent HB replay; failures are counted, logged and surfaced in
  /// the report (the runtime self-check mode).
  bool paranoid = false;
  /// Emit Chrome-trace flow events ("s"/"f") linking the two endpoints of
  /// every paired certificate (visible in the --trace-out timeline).
  bool emit_flows = true;
};

struct ProvenanceReport {
  std::vector<Certificate> certificates;
  bool paranoid = false;
  std::size_t verified = 0;                  ///< paranoid passes.
  std::vector<std::string> verify_failures;  ///< paranoid failures, reasons.
  double build_seconds = 0.0;

  bool empty() const { return certificates.empty(); }
  const Certificate* find(const std::string& key) const;
  /// Human rendering: every certificate's "Causal chain" block.
  std::string to_string() const;
};

/// Build certificates for every violation against a finished HB index.
/// `schedule` (may be null) is the run's recorded decision log; its picks on
/// the causal path are attached to each certificate.
ProvenanceReport diagnose_violations(
    const detect::HbIndex& hb, const std::vector<spec::Violation>& violations,
    const trace::StringTable* strings,
    const detect::HappensBeforeConfig& hb_cfg, const Options& opts,
    const explore::Schedule* schedule = nullptr);

/// Structured export: {"provenance":{...,"certificates":[...]}}.
std::string provenance_json(const ProvenanceReport& report);
/// Write provenance_json to `path` (throws on I/O failure, mirroring the
/// other obs exporters).
void write_provenance_json(const std::string& path,
                           const ProvenanceReport& report);

/// Stable flow id shared by the "s"/"f" pair of one violation key (FNV-1a).
std::uint64_t flow_id_for_key(const std::string& key);

}  // namespace home::diagnose
