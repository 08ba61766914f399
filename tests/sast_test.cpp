#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/sast/analysis.hpp"
#include "src/sast/cfg.hpp"
#include "src/sast/diagnostics.hpp"
#include "src/sast/lexer.hpp"
#include "src/sast/parser.hpp"
#include "src/sast/rewriter.hpp"
#include "src/sast/static_lockset.hpp"
#include "src/util/strings.hpp"

namespace home::sast {
namespace {

// The paper's Figure 1 case study, verbatim shape.
constexpr const char* kCaseStudy1 = R"(
#include <mpi.h>
int main() {
  MPI_Init();
  omp_set_num_threads(2);
  #pragma omp parallel
  {
    #pragma omp sections
    {
      #pragma omp section
      if (rank == 0)
        MPI_Send(rank1);
      #pragma omp section
      if (rank == 0)
        MPI_Recv(rank1);
    }
  }
  return 0;
}
)";

// The paper's Figure 2 case study.
constexpr const char* kCaseStudy2 = R"(
#include <mpi.h>
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
}
)";

// ----------------------------------------------------------------------- lexer

TEST(Lexer, TokenizesIdentifiersNumbersPunct) {
  auto result = lex("int x = 42 + y;");
  ASSERT_GE(result.tokens.size(), 8u);
  EXPECT_TRUE(result.tokens[0].is_ident("int"));
  EXPECT_TRUE(result.tokens[2].is_punct("="));
  EXPECT_EQ(result.tokens[3].kind, TokenKind::kNumber);
  EXPECT_TRUE(result.errors.empty());
}

TEST(Lexer, PragmaBecomesSingleToken) {
  auto result = lex("#pragma omp parallel for num_threads(2)\nx = 1;");
  ASSERT_FALSE(result.tokens.empty());
  EXPECT_EQ(result.tokens[0].kind, TokenKind::kPragma);
  EXPECT_EQ(result.tokens[0].text, "omp parallel for num_threads(2)");
}

TEST(Lexer, IncludesCollectedNotTokenized) {
  auto result = lex("#include <mpi.h>\nint x;");
  ASSERT_EQ(result.includes.size(), 1u);
  EXPECT_EQ(result.includes[0], "#include <mpi.h>");
  EXPECT_TRUE(result.tokens[0].is_ident("int"));
}

TEST(Lexer, CommentsSkipped) {
  auto result = lex("a; // line comment\n/* block\ncomment */ b;");
  ASSERT_GE(result.tokens.size(), 4u);
  EXPECT_TRUE(result.tokens[0].is_ident("a"));
  EXPECT_TRUE(result.tokens[2].is_ident("b"));
}

TEST(Lexer, StringAndCharLiterals) {
  auto result = lex(R"(x = "he//llo"; c = 'y';)");
  bool found_string = false;
  for (const auto& t : result.tokens) {
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.text, "\"he//llo\"");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(Lexer, TracksLineNumbers) {
  auto result = lex("a;\nb;\n\nc;");
  EXPECT_EQ(result.tokens[0].line, 1);
  EXPECT_EQ(result.tokens[2].line, 2);
  EXPECT_EQ(result.tokens[4].line, 4);
}

TEST(Lexer, MultiCharPunct) {
  auto result = lex("a && b -> c");
  EXPECT_TRUE(result.tokens[1].is_punct("&&"));
  EXPECT_TRUE(result.tokens[3].is_punct("->"));
}

// ---------------------------------------------------------------------- parser

TEST(Parser, CaseStudy1Structure) {
  TranslationUnit unit = parse(kCaseStudy1);
  EXPECT_TRUE(unit.errors.empty()) << util::join(unit.errors, "; ");
  ASSERT_EQ(unit.functions.size(), 1u);
  EXPECT_EQ(unit.functions[0].name, "main");
  ASSERT_TRUE(unit.functions[0].body != nullptr);
}

TEST(Parser, ExtractsMpiCallsWithArgs) {
  TranslationUnit unit = parse(kCaseStudy2);
  ASSERT_EQ(unit.functions.size(), 1u);
  int sends = 0, recvs = 0;
  visit_stmts(*unit.functions[0].body, [&](const Stmt& s) {
    for (const CallExpr& c : s.calls) {
      if (c.callee == "MPI_Send") {
        ++sends;
        ASSERT_EQ(c.args.size(), 6u);
        EXPECT_EQ(c.args[4], "tag");
      }
      if (c.callee == "MPI_Recv") ++recvs;
    }
  });
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(recvs, 2);
}

TEST(Parser, OmpDirectivesRecognized) {
  TranslationUnit unit = parse(R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp critical(update)
    { x = 1; }
    #pragma omp barrier
    #pragma omp single
    { y = 2; }
  }
}
)");
  int parallel = 0, critical = 0, barrier = 0, single = 0;
  std::string critical_name;
  visit_stmts(*unit.functions[0].body, [&](const Stmt& s) {
    if (s.kind != StmtKind::kOmp) return;
    switch (s.directive) {
      case OmpDirective::kParallel: ++parallel; break;
      case OmpDirective::kCritical:
        ++critical;
        critical_name = s.critical_name;
        break;
      case OmpDirective::kBarrier: ++barrier; break;
      case OmpDirective::kSingle: ++single; break;
      default: break;
    }
  });
  EXPECT_EQ(parallel, 1);
  EXPECT_EQ(critical, 1);
  EXPECT_EQ(critical_name, "update");
  EXPECT_EQ(barrier, 1);
  EXPECT_EQ(single, 1);
}

TEST(Parser, ClausesParsed) {
  TranslationUnit unit = parse(R"(
void f() {
  #pragma omp parallel for private(i, j) num_threads(4)
  for (i = 0; i < n; i++) { work(i); }
}
)");
  bool found = false;
  visit_stmts(*unit.functions[0].body, [&](const Stmt& s) {
    if (s.kind == StmtKind::kOmp && s.directive == OmpDirective::kParallelFor) {
      found = true;
      EXPECT_EQ(s.clauses.at("num_threads"), "4");
      EXPECT_NE(s.clauses.at("private").find("i"), std::string::npos);
    }
  });
  EXPECT_TRUE(found);
}

TEST(Parser, GlobalSetupCallRecorded) {
  TranslationUnit unit = parse(R"(
#include <mympi.h>
MPI_MonitorVariableSetup(srctmp, tagtmp);
int main() { return 0; }
)");
  ASSERT_EQ(unit.globals.size(), 1u);
  ASSERT_FALSE(unit.globals[0]->calls.empty());
  EXPECT_EQ(unit.globals[0]->calls[0].callee, "MPI_MonitorVariableSetup");
}

TEST(Parser, IfElseChains) {
  TranslationUnit unit = parse(R"(
void f() {
  if (a) { x(); } else if (b) { y(); } else { z(); }
}
)");
  EXPECT_TRUE(unit.errors.empty()) << util::join(unit.errors, "; ");
  const Stmt& block = *unit.functions[0].body;
  ASSERT_EQ(block.children.size(), 1u);
  const Stmt& if_stmt = *block.children[0];
  EXPECT_EQ(if_stmt.kind, StmtKind::kIf);
  ASSERT_TRUE(if_stmt.else_body != nullptr);
  EXPECT_EQ(if_stmt.else_body->kind, StmtKind::kIf);
}

TEST(Parser, RecoversFromErrors) {
  TranslationUnit unit = parse(R"(
void f() {
  @@@ garbage here
  MPI_Barrier(MPI_COMM_WORLD);
}
)");
  // The MPI call after the garbage is still visible.
  bool found = false;
  visit_stmts(*unit.functions[0].body, [&](const Stmt& s) {
    for (const auto& c : s.calls) {
      if (c.callee == "MPI_Barrier") found = true;
    }
  });
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------------------- CFG

TEST(Cfg, HasEntryAndExit) {
  TranslationUnit unit = parse("void f() { a(); b(); }");
  Cfg cfg = build_cfg(unit.functions[0]);
  EXPECT_GE(cfg.nodes().size(), 4u);
  EXPECT_EQ(cfg.node(cfg.entry()).kind, CfgNodeKind::kEntry);
  EXPECT_EQ(cfg.node(cfg.exit()).kind, CfgNodeKind::kExit);
}

TEST(Cfg, ParallelRegionGetsBeginEndMarkers) {
  TranslationUnit unit = parse(R"(
void f() {
  #pragma omp parallel
  { MPI_Barrier(MPI_COMM_WORLD); }
}
)");
  Cfg cfg = build_cfg(unit.functions[0]);
  int begins = 0, ends = 0;
  for (const CfgNode& n : cfg.nodes()) {
    if (n.kind == CfgNodeKind::kOmpParallelBegin) ++begins;
    if (n.kind == CfgNodeKind::kOmpParallelEnd) ++ends;
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

TEST(Cfg, LoopHasBackEdge) {
  TranslationUnit unit = parse("void f() { while (x) { a(); } b(); }");
  Cfg cfg = build_cfg(unit.functions[0]);
  // Find the condition node and check one successor reaches back.
  bool has_back_edge = false;
  for (const CfgNode& n : cfg.nodes()) {
    for (int succ : n.succs) {
      if (succ < n.id) has_back_edge = true;
    }
  }
  EXPECT_TRUE(has_back_edge);
}

TEST(Cfg, DotOutputRenders) {
  TranslationUnit unit = parse("void f() { if (x) a(); }");
  Cfg cfg = build_cfg(unit.functions[0]);
  const std::string dot = cfg.to_dot("f");
  EXPECT_NE(dot.find("digraph f"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// -------------------------------------------------------------------- analysis

TEST(Analysis, CaseStudy1PlanSelectsParallelCalls) {
  AnalysisResult result = analyze_source(kCaseStudy1);
  EXPECT_TRUE(result.uses_plain_init);
  EXPECT_FALSE(result.uses_init_thread);
  // MPI_Init is serial; MPI_Send/MPI_Recv are inside the parallel region.
  EXPECT_EQ(result.plan.total_calls, 3u);
  EXPECT_EQ(result.plan.instrumented_calls, 2u);
  EXPECT_EQ(result.plan.filtered_calls, 1u);
}

TEST(Analysis, CaseStudy2DetectsRequestedLevel) {
  AnalysisResult result = analyze_source(kCaseStudy2);
  EXPECT_TRUE(result.uses_init_thread);
  EXPECT_EQ(result.requested_level, "MPI_THREAD_MULTIPLE");
  // 4 calls inside parallel for; Init_thread and Comm_rank serial.
  EXPECT_EQ(result.plan.instrumented_calls, 4u);
}

TEST(Analysis, CriticalStackTracked) {
  AnalysisResult result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp critical(mpi)
    { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
    MPI_Recv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, st);
  }
}
)");
  ASSERT_EQ(result.calls.size(), 2u);
  const auto& send = result.calls[0];
  const auto& recv = result.calls[1];
  EXPECT_EQ(send.routine, "MPI_Send");
  EXPECT_EQ(send.locks, std::set<std::string>{"mpi"});
  EXPECT_TRUE(recv.locks.empty());
}

TEST(Analysis, UnnamedCriticalsShareOneGlobalLock) {
  // Per the OpenMP spec every unnamed `omp critical` maps to one global
  // lock: two lexically distinct unnamed regions mutually exclude, so the
  // guarded calls are serialized (and prunable under MPI_THREAD_MULTIPLE).
  AnalysisResult result = analyze_source(R"(
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &provided);
  #pragma omp parallel
  {
    #pragma omp critical
    { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
    #pragma omp critical
    { MPI_Recv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, st); }
  }
  MPI_Finalize();
  return 0;
}
)");
  const MpiCallSite* send = nullptr;
  const MpiCallSite* recv = nullptr;
  for (const auto& site : result.calls) {
    if (site.routine == "MPI_Send") send = &site;
    if (site.routine == "MPI_Recv") recv = &site;
  }
  ASSERT_NE(send, nullptr);
  ASSERT_NE(recv, nullptr);
  EXPECT_EQ(send->locks, std::set<std::string>{kUnnamedCriticalLock});
  EXPECT_EQ(send->locks, recv->locks);
  EXPECT_EQ(send->locks.count(kUnnamedCriticalLock), 1u);
  EXPECT_TRUE(send->pruned);
  EXPECT_TRUE(recv->pruned);
  EXPECT_EQ(result.plan.instrumented_calls, 0u);
}

TEST(Analysis, InterproceduralParallelCallees) {
  AnalysisResult result = analyze_source(R"(
void halo() { MPI_Recv(&a, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, st); }
void main2() {
  #pragma omp parallel
  { halo(); }
  halo();
}
)");
  // halo is called from a parallel region, so its MPI_Recv must be planned.
  ASSERT_EQ(result.calls.size(), 1u);
  EXPECT_TRUE(result.calls[0].in_parallel);
  EXPECT_EQ(result.plan.instrumented_calls, 1u);
}

TEST(Analysis, SerialOnlyProgramHasEmptyPlan) {
  AnalysisResult result = analyze_source(R"(
int main() {
  MPI_Init();
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_EQ(result.plan.instrumented_calls, 0u);
  EXPECT_EQ(result.plan.filtered_calls, 3u);
}

TEST(Analysis, MasterSingleMarked) {
  AnalysisResult result = analyze_source(R"(
void f() {
  #pragma omp parallel
  {
    #pragma omp master
    { MPI_Allreduce(&x, &y, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD); }
  }
}
)");
  ASSERT_EQ(result.calls.size(), 1u);
  EXPECT_TRUE(result.calls[0].in_master || result.calls[0].in_single);
}

TEST(ParallelSections, CombinedDirectiveIsAParallelRegion) {
  const auto analysis = sast::analyze_source(R"(
void f() {
  #pragma omp parallel sections
  {
    #pragma omp section
    { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
    #pragma omp section
    { MPI_Recv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, st); }
  }
  MPI_Barrier(MPI_COMM_WORLD);
}
)");
  EXPECT_EQ(analysis.plan.instrumented_calls, 2u);
  EXPECT_EQ(analysis.plan.filtered_calls, 1u);
}

// -------------------------------------------------------------------- rewriter

TEST(Rewriter, ReplacesOnlyPlannedCalls) {
  AnalysisResult analysis = analyze_source(kCaseStudy1);
  RewriteResult out = rewrite(kCaseStudy1, analysis);
  EXPECT_EQ(out.replaced, 2u);
  EXPECT_NE(out.source.find("HMPI_Send"), std::string::npos);
  EXPECT_NE(out.source.find("HMPI_Recv"), std::string::npos);
  // The serial MPI_Init stays unwrapped.
  EXPECT_NE(out.source.find("MPI_Init()"), std::string::npos);
  EXPECT_EQ(out.source.find("HMPI_Init"), std::string::npos);
}

TEST(Rewriter, SwapsHeaderAndInsertsSetup) {
  AnalysisResult analysis = analyze_source(kCaseStudy1);
  RewriteResult out = rewrite(kCaseStudy1, analysis);
  EXPECT_TRUE(out.header_swapped);
  EXPECT_TRUE(out.setup_inserted);
  EXPECT_NE(out.source.find("#include <mympi.h>"), std::string::npos);
  EXPECT_NE(out.source.find("MPI_MonitorVariableSetup"), std::string::npos);
}

TEST(Rewriter, IdempotentOnAlreadyWrappedCalls) {
  const std::string once = rewrite(kCaseStudy1, analyze_source(kCaseStudy1)).source;
  RewriteResult twice = rewrite(once, analyze_source(once));
  EXPECT_EQ(twice.replaced, 0u);  // HMPI_ sites are not MPI_ sites.
}

// ----------------------------------------------------------------- diagnostics

TEST(Diagnostics, CaseStudy1WarnsInitialization) {
  auto warnings = diagnose_source(kCaseStudy1);
  bool found = false;
  for (const auto& w : warnings) {
    if (w.cls == WarningClass::kInitialization) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Diagnostics, CaseStudy2WarnsConcurrentRecv) {
  auto warnings = diagnose_source(kCaseStudy2);
  bool found = false;
  for (const auto& w : warnings) {
    if (w.cls == WarningClass::kConcurrentRecv) found = true;
  }
  EXPECT_TRUE(found) << "case study 2 receives share tag/comm across threads";
}

TEST(Diagnostics, CriticalGuardSuppressesPairWarning) {
  auto warnings = diagnose_source(R"(
void f() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &p);
  #pragma omp parallel
  {
    #pragma omp critical(mpi)
    { MPI_Recv(&a, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, st); }
  }
}
)");
  for (const auto& w : warnings) {
    EXPECT_NE(w.cls, WarningClass::kConcurrentRecv) << w.to_string();
  }
}

TEST(Diagnostics, FinalizeInParallelWarns) {
  auto warnings = diagnose_source(R"(
void f() {
  #pragma omp parallel
  { MPI_Finalize(); }
}
)");
  bool found = false;
  for (const auto& w : warnings) {
    if (w.cls == WarningClass::kFinalization) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Diagnostics, WaitOnSharedRequestWarns) {
  auto warnings = diagnose_source(R"(
void f() {
  #pragma omp parallel
  { MPI_Wait(&req, st); }
}
)");
  bool found = false;
  for (const auto& w : warnings) {
    if (w.cls == WarningClass::kConcurrentRequest) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Diagnostics, CollectiveOnSharedCommWarns) {
  auto warnings = diagnose_source(R"(
void f() {
  #pragma omp parallel
  { MPI_Barrier(MPI_COMM_WORLD); }
}
)");
  bool found = false;
  for (const auto& w : warnings) {
    if (w.cls == WarningClass::kCollectiveCall) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Diagnostics, FunneledOffMainWarns) {
  auto warnings = diagnose_source(R"(
void f() {
  MPI_Init_thread(0, 0, MPI_THREAD_FUNNELED, &p);
  #pragma omp parallel
  { MPI_Send(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD); }
}
)");
  bool found = false;
  for (const auto& w : warnings) {
    if (w.cls == WarningClass::kInitialization) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Diagnostics, CleanSerialProgramSilent) {
  auto warnings = diagnose_source(R"(
int main() {
  MPI_Init_thread(0, 0, MPI_THREAD_MULTIPLE, &p);
  MPI_Barrier(MPI_COMM_WORLD);
  MPI_Finalize();
  return 0;
}
)");
  EXPECT_TRUE(warnings.empty());
}

}  // namespace
}  // namespace home::sast
