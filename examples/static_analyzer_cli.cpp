// The compile-time half of HOME as a standalone command-line tool: parse a
// hybrid MPI/OpenMP C source, print the control-flow graphs, the MPI call
// sites with their dataflow facts (MHP position, locks, one-thread
// constructs), the instrumentation plan with prune reasons, the static
// warnings, and the rewritten (HMPI_-wrapped) source.
//
//   ./static_analyzer_cli [file.c] [--dot] [--json] [--lint]
//                         [--no-rewrite] [--emit-plan=FILE] [--sarif=FILE]
//                         [--emit-guidance=FILE]
//
// Without a file argument, the paper's Figure 2 case study is analyzed.
// --emit-plan writes the instrumentation plan to FILE for a later dynamic
// run (home::SessionConfig with InstrumentFilter::kPlan).
// --json emits a machine-readable report (sites, plan, warnings) instead of
// the human-readable dump.
// --lint prints only the warnings and exits nonzero when any warning is
// classified definite — suitable as a CI gate.
// --sarif writes the warnings as SARIF 2.1.0 so CI can annotate PRs.
// --emit-guidance writes the commstat StaticGuidance artifact (ambiguous
// wildcard sites + statically-ordered pairs) for guided exploration.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "src/sast/analysis.hpp"
#include "src/sast/commstat.hpp"
#include "src/sast/diagnostics.hpp"
#include "src/sast/rewriter.hpp"
#include "src/util/flags.hpp"
#include "src/util/strings.hpp"

namespace {

constexpr const char* kDefaultSource = R"(#include <mpi.h>
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &provided);
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  int tag = 0;
  omp_set_num_threads(2);
  #pragma omp parallel for private(i)
  for (j = 0; j < 2; j++) {
    if (rank == 0) {
      MPI_Send(&a, 1, MPI_INT, 1, tag, MPI_COMM_WORLD);
      MPI_Recv(&a, 1, MPI_INT, 1, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    if (rank == 1) {
      MPI_Recv(&a, 1, MPI_INT, 0, tag, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Send(&a, 1, MPI_INT, 0, tag, MPI_COMM_WORLD);
    }
  }
  MPI_Finalize();
  return 0;
}
)";

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const std::string& name,
                const home::sast::AnalysisResult& analysis,
                const std::vector<home::sast::StaticWarning>& warnings) {
  using home::sast::Severity;
  std::ostringstream os;
  os << "{\n  \"source\": \"" << json_escape(name) << "\",\n";
  os << "  \"calls\": [\n";
  for (std::size_t i = 0; i < analysis.calls.size(); ++i) {
    const auto& s = analysis.calls[i];
    os << "    {\"label\": \"" << json_escape(s.label) << "\", \"line\": "
       << s.line << ", \"parallel\": " << (s.in_parallel ? "true" : "false")
       << ", \"master\": " << (s.in_master ? "true" : "false")
       << ", \"single\": " << (s.in_single ? "true" : "false")
       << ", \"section\": " << (s.in_section ? "true" : "false")
       << ", \"pruned\": " << (s.pruned ? "true" : "false");
    if (s.pruned) {
      os << ", \"prune_reason\": \"" << json_escape(s.prune_reason) << "\"";
    }
    os << ", \"locks\": [";
    std::size_t k = 0;
    for (const auto& lock : s.locks) {
      os << (k++ ? ", " : "") << "\"" << json_escape(lock) << "\"";
    }
    os << "]}" << (i + 1 < analysis.calls.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"plan\": {\"total\": " << analysis.plan.total_calls
     << ", \"instrumented\": " << analysis.plan.instrumented_calls
     << ", \"filtered\": " << analysis.plan.filtered_calls
     << ", \"pruned\": " << analysis.plan.pruned_calls << "},\n";
  os << "  \"warnings\": [\n";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    const auto& w = warnings[i];
    os << "    {\"class\": \"" << home::sast::warning_class_name(w.cls)
       << "\", \"severity\": \"" << home::sast::severity_name(w.severity)
       << "\", \"line\": " << w.line << ", \"site\": \""
       << json_escape(w.site) << "\", \"site2\": \"" << json_escape(w.site2)
       << "\", \"witness\": \"" << json_escape(w.witness)
       << "\", \"message\": \"" << json_escape(w.message) << "\"}"
       << (i + 1 < warnings.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::fputs(os.str().c_str(), stdout);
}

/// SARIF 2.1.0: one run, one rule per warning class, one result per warning.
/// Definite findings map to level "error", possible ones to "warning".
bool write_sarif(const std::string& path, const std::string& name,
                 const std::vector<home::sast::StaticWarning>& warnings) {
  using home::sast::Severity;
  std::set<std::string> rule_ids;
  for (const auto& w : warnings) {
    rule_ids.insert(home::sast::warning_class_name(w.cls));
  }
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [{\n"
     << "    \"tool\": {\"driver\": {\"name\": \"home-sast\", "
     << "\"rules\": [\n";
  std::size_t k = 0;
  for (const auto& id : rule_ids) {
    os << "      {\"id\": \"" << id << "\"}"
       << (++k < rule_ids.size() ? "," : "") << "\n";
  }
  os << "    ]}},\n"
     << "    \"results\": [\n";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    const auto& w = warnings[i];
    os << "      {\"ruleId\": \"" << home::sast::warning_class_name(w.cls)
       << "\", \"level\": \""
       << (w.severity == Severity::kDefinite ? "error" : "warning")
       << "\", \"message\": {\"text\": \"" << json_escape(w.message)
       << (w.site.empty() ? "" : " (" + json_escape(w.site) + ")")
       << "\"}, \"locations\": [{\"physicalLocation\": "
       << "{\"artifactLocation\": {\"uri\": \"" << json_escape(name)
       << "\"}, \"region\": {\"startLine\": " << (w.line > 0 ? w.line : 1)
       << "}}}]}" << (i + 1 < warnings.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }]\n}\n";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << os.str();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace home::sast;
  const auto flags = home::util::Flags::parse(argc, argv);

  std::string source = kDefaultSource;
  std::string name = "<figure2>";
  if (!flags.positional().empty()) {
    name = flags.positional()[0];
    std::ifstream in(name);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", name.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  const bool json = flags.get_bool("json", false);
  const bool lint = flags.get_bool("lint", false);

  TranslationUnit unit = parse(source);
  AnalysisResult analysis = analyze(unit);
  auto warnings = diagnose(analysis);

  // Communication matching/deadlock pass; its warnings join the report and
  // its guidance artifact feeds guided exploration.
  const CommstatResult comm = analyze_comm(unit, analysis);
  warnings.insert(warnings.end(), comm.warnings.begin(), comm.warnings.end());

  const std::string sarif_path = flags.get("sarif", "");
  if (!sarif_path.empty()) {
    if (!write_sarif(sarif_path, name, warnings)) {
      std::fprintf(stderr, "cannot write SARIF to %s\n", sarif_path.c_str());
      return 1;
    }
  }
  const std::string guidance_path = flags.get("emit-guidance", "");
  if (!guidance_path.empty()) {
    if (!comm.guidance.save(guidance_path)) {
      std::fprintf(stderr, "cannot write guidance to %s\n",
                   guidance_path.c_str());
      return 1;
    }
  }

  if (json) {
    print_json(name, analysis, warnings);
    bool definite = false;
    for (const auto& w : warnings) {
      if (w.severity == Severity::kDefinite) definite = true;
    }
    return lint && definite ? 2 : 0;
  }

  if (lint) {
    bool definite = false;
    for (const auto& w : warnings) {
      std::printf("%s\n", w.to_string().c_str());
      if (w.severity == Severity::kDefinite) definite = true;
    }
    std::printf("%s: %zu warning(s)%s\n", name.c_str(), warnings.size(),
                definite ? ", definite violations found" : "");
    return definite ? 2 : 0;
  }

  std::printf("=== static analysis of %s ===\n\n", name.c_str());
  if (!unit.errors.empty()) {
    std::printf("parse diagnostics:\n");
    for (const auto& e : unit.errors) std::printf("  %s\n", e.c_str());
  }

  if (flags.get_bool("dot", false)) {
    for (std::size_t i = 0; i < unit.functions.size(); ++i) {
      std::printf("%s\n", analysis.cfgs[i].to_dot(unit.functions[i].name).c_str());
    }
  }

  std::printf("MPI call sites (%zu):\n", analysis.calls.size());
  for (const auto& site : analysis.calls) {
    const std::string pruned_tag =
        site.pruned ? "[pruned: " + site.prune_reason + "]" : "";
    std::printf("  %-40s line %-4d %s%s%s%s\n", site.label.c_str(), site.line,
                site.in_parallel ? "[parallel] " : "[serial]   ",
                site.locks.empty() ? "" : "[locked] ",
                site.in_master || site.in_single ? "[master/single] " : "",
                pruned_tag.c_str());
  }

  std::printf("\ninstrumentation plan: %zu of %zu calls instrumented, %zu "
              "filtered as serial, %zu pruned as statically safe\n",
              analysis.plan.instrumented_calls, analysis.plan.total_calls,
              analysis.plan.filtered_calls, analysis.plan.pruned_calls);
  for (const auto& label : analysis.plan.instrument) {
    std::printf("  wrap  %s\n", label.c_str());
  }
  for (const auto& [label, reason] : analysis.plan.pruned) {
    std::printf("  prune %s (%s)\n", label.c_str(), reason.c_str());
  }

  const std::string plan_path = flags.get("emit-plan", "");
  if (!plan_path.empty()) {
    save_plan_file(plan_path, analysis.plan);
    std::printf("\nplan written to %s\n", plan_path.c_str());
  }

  std::printf("\nstatic warnings (%zu):\n", warnings.size());
  for (const auto& w : warnings) std::printf("  %s\n", w.to_string().c_str());

  std::printf("\n%s\n", comm.to_string().c_str());
  for (const auto& site : comm.guidance.ambiguous) {
    std::printf("  ambiguous %s (%zu alternatives, phase %d)\n",
                site.site.c_str(), site.alternatives, site.phase);
  }
  for (const auto& why : comm.imprecision) {
    std::printf("  imprecision: %s\n", why.c_str());
  }

  if (flags.get_bool("rewrite", true)) {
    const RewriteResult rewritten = rewrite(source, analysis);
    std::printf("\n=== rewritten source (%zu wrapper substitutions) ===\n%s\n",
                rewritten.replaced, rewritten.source.c_str());
  }
  return 0;
}
