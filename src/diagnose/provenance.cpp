#include "src/diagnose/provenance.hpp"

#include <chrono>
#include <set>
#include <sstream>

#include "src/obs/export.hpp"
#include "src/obs/span.hpp"
#include "src/obs/telemetry.hpp"
#include "src/trace/event.hpp"

namespace home::diagnose {

namespace {

using detect::HbIndex;

/// Ranks on the certificate's causal path: the two endpoints plus every
/// event a witness chain passes through.
std::set<int> causal_ranks(const HbIndex& hb, const Certificate& cert) {
  std::set<int> ranks;
  const auto add_seq = [&](trace::Seq seq) {
    if (seq == 0) return;
    const std::size_t idx = hb.index_of_seq(seq);
    if (idx != HbIndex::npos) ranks.insert(hb.events()[idx].rank);
  };
  add_seq(cert.e1.seq);
  add_seq(cert.e2.seq);
  for (const NonOrderWitness* w : {&cert.w12, &cert.w21}) {
    add_seq(w->frontier);
    for (const ChainLink& link : w->chain) {
      add_seq(link.from);
      add_seq(link.to);
    }
  }
  return ranks;
}

void emit_flow_pair(const Certificate& cert) {
  const std::uint64_t id = flow_id_for_key(cert.key);
  const std::string name =
      std::string("causal: ") + spec::violation_type_name(cert.violation.type);
  obs::flow_start(name, id, "endpoint A seq " + std::to_string(cert.e1.seq));
  obs::flow_finish(name, id, "endpoint B seq " + std::to_string(cert.e2.seq));
}

}  // namespace

std::uint64_t flow_id_for_key(const std::string& key) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  // Chrome-trace ids of 0 merge with unrelated flows; keep them nonzero.
  return h != 0 ? h : 1;
}

const Certificate* ProvenanceReport::find(const std::string& key) const {
  for (const Certificate& c : certificates) {
    if (c.key == key) return &c;
  }
  return nullptr;
}

std::string ProvenanceReport::to_string() const {
  std::ostringstream os;
  os << "--- provenance: " << certificates.size() << " certificate(s)";
  if (paranoid) {
    os << ", " << verified << " verified, " << verify_failures.size()
       << " failed";
  }
  os << " ---\n";
  for (const Certificate& c : certificates) os << c.to_string();
  for (const std::string& f : verify_failures) {
    os << "  VERIFY FAILED: " << f << "\n";
  }
  return os.str();
}

ProvenanceReport diagnose_violations(
    const detect::HbIndex& hb, const std::vector<spec::Violation>& violations,
    const trace::StringTable* strings,
    const detect::HappensBeforeConfig& hb_cfg, const Options& opts,
    const explore::Schedule* schedule) {
  ProvenanceReport report;
  report.paranoid = opts.paranoid;
  if (!opts.enabled || violations.empty()) return report;

  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span("diagnose.provenance");

  obs::Counter& built = obs::Registry::global().counter("diagnose.certificates");
  obs::Counter& ok = obs::Registry::global().counter("diagnose.verified");
  obs::Counter& bad =
      obs::Registry::global().counter("diagnose.verify_failures");

  report.certificates.reserve(violations.size());
  for (const spec::Violation& v : violations) {
    Certificate cert = build_certificate(hb, v, strings);
    built.add(1);

    if (schedule != nullptr && !schedule->decisions.empty()) {
      const std::set<int> ranks = causal_ranks(hb, cert);
      for (const explore::Decision& d : schedule->decisions) {
        if (d.is_pick && ranks.count(d.rank) != 0) {
          cert.causal_picks.push_back(d);
        }
      }
    }

    if (opts.paranoid) {
      std::string why;
      if (verify_certificate(cert, hb.events(), strings, hb_cfg, &why)) {
        ++report.verified;
        ok.add(1);
      } else {
        report.verify_failures.push_back(cert.key + ": " + why);
        bad.add(1);
      }
    }

    if (opts.emit_flows && cert.has_pair) emit_flow_pair(cert);
    report.certificates.push_back(std::move(cert));
  }

  report.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

namespace {

void json_endpoint(std::ostringstream& os, const Endpoint& ep) {
  os << "{\"seq\":" << ep.seq << ",\"tid\":" << ep.tid
     << ",\"rank\":" << ep.rank << ",\"mpi_call\":\""
     << obs::json_escape(ep.mpi_call) << "\",\"callsite\":\""
     << obs::json_escape(ep.callsite) << "\",\"locks\":[";
  for (std::size_t i = 0; i < ep.locks.size(); ++i) {
    if (i > 0) os << ",";
    os << ep.locks[i];
  }
  os << "],\"barrier_phase\":" << ep.barrier_phase
     << ",\"stamp_own\":" << ep.stamp_own << "}";
}

void json_witness(std::ostringstream& os, const NonOrderWitness& w) {
  os << "{\"src\":" << w.src << ",\"dst\":" << w.dst
     << ",\"src_own\":" << w.src_own << ",\"dst_view\":" << w.dst_view
     << ",\"frontier\":" << w.frontier << ",\"chain\":[";
  for (std::size_t i = 0; i < w.chain.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"from\":" << w.chain[i].from << ",\"to\":" << w.chain[i].to
       << ",\"edge\":\"" << edge_kind_name(w.chain[i].edge) << "\"}";
  }
  os << "]}";
}

void json_context(std::ostringstream& os,
                  const std::vector<ContextEvent>& ctx) {
  os << "[";
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"seq\":" << ctx[i].seq << ",\"endpoint\":"
       << (ctx[i].is_endpoint ? "true" : "false") << ",\"text\":\""
       << obs::json_escape(ctx[i].text) << "\"}";
  }
  os << "]";
}

void json_certificate(std::ostringstream& os, const Certificate& c) {
  const spec::Violation& v = c.violation;
  os << "{\"key\":\"" << obs::json_escape(c.key) << "\",\"violation\":{"
     << "\"type\":\"" << spec::violation_type_name(v.type)
     << "\",\"rank\":" << v.rank << ",\"tid1\":" << v.tid1
     << ",\"tid2\":" << v.tid2 << ",\"call1\":" << v.call1
     << ",\"call2\":" << v.call2 << ",\"callsite1\":\""
     << obs::json_escape(v.callsite1) << "\",\"callsite2\":\""
     << obs::json_escape(v.callsite2) << "\",\"comm\":" << v.comm
     << ",\"request\":" << v.request << ",\"detail\":\""
     << obs::json_escape(v.detail) << "\"}";
  os << ",\"has_pair\":" << (c.has_pair ? "true" : "false")
     << ",\"hb_unordered\":" << (c.hb_unordered ? "true" : "false")
     << ",\"disjoint_locks\":" << (c.disjoint_locks ? "true" : "false");
  os << ",\"endpoints\":[";
  json_endpoint(os, c.e1);
  os << ",";
  json_endpoint(os, c.e2);
  os << "]";
  if (c.hb_unordered) {
    os << ",\"witnesses\":[";
    json_witness(os, c.w12);
    os << ",";
    json_witness(os, c.w21);
    os << "]";
  }
  os << ",\"context\":[";
  json_context(os, c.context1);
  os << ",";
  json_context(os, c.context2);
  os << "]";
  os << ",\"causal_picks\":[";
  for (std::size_t i = 0; i < c.causal_picks.size(); ++i) {
    const explore::Decision& d = c.causal_picks[i];
    if (i > 0) os << ",";
    os << "{\"kind\":\"" << explore::hook_kind_name(d.kind)
       << "\",\"rank\":" << d.rank << ",\"lane\":" << d.lane << ",\"site\":\""
       << obs::json_escape(d.site) << "\",\"occurrence\":" << d.occurrence
       << ",\"value\":" << d.value << "}";
  }
  os << "]";
  if (!c.minimized.empty() || c.minimized_verified) {
    os << ",\"minimized\":{\"decisions\":" << c.minimized.decisions.size()
       << ",\"verified\":" << (c.minimized_verified ? "true" : "false")
       << ",\"text\":\"" << obs::json_escape(c.minimized.to_string()) << "\"}";
  }
  os << "}";
}

}  // namespace

std::string provenance_json(const ProvenanceReport& report) {
  // Certificates are built only over a session's own live log, never over a
  // salvaged trace, so their verdict is always exact.
  std::ostringstream os;
  os << "{\"provenance\":{\"count\":" << report.certificates.size()
     << ",\"paranoid\":" << (report.paranoid ? "true" : "false")
     << ",\"verified\":" << report.verified << ",\"build_seconds\":"
     << report.build_seconds
     << ",\"verdict\":\"exact\",\"verify_failures\":[";
  for (std::size_t i = 0; i < report.verify_failures.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << obs::json_escape(report.verify_failures[i]) << "\"";
  }
  os << "],\"certificates\":[";
  for (std::size_t i = 0; i < report.certificates.size(); ++i) {
    if (i > 0) os << ",";
    json_certificate(os, report.certificates[i]);
  }
  os << "]}}";
  return os.str();
}

void write_provenance_json(const std::string& path,
                           const ProvenanceReport& report) {
  obs::write_json_file(path, provenance_json(report));
}

}  // namespace home::diagnose
