/**
 * @file
 * Include-graph extraction, module mapping, cycle detection, and the
 * layering rule end-to-end through analyzeTree() — including the
 * acceptance fixture: a src/graph file including src/analysis must
 * produce a layering finding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/include_graph.h"
#include "analyzer/lexer.h"

namespace gral::analyzer
{
namespace
{

std::vector<IncludeDirective>
includesOf(const std::string &text)
{
    LexedFile lexed = lexCpp(text);
    std::vector<std::string> original;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == '\n') {
            original.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return extractIncludes(lexed.lines, original);
}

bool
hasFinding(const AnalysisResult &result, const std::string &path,
           const std::string &rule)
{
    return std::any_of(result.results.begin(), result.results.end(),
                       [&](const SarifResult &r) {
                           return r.finding.path == path &&
                                  r.finding.rule == rule;
                       });
}

TEST(IncludeGraph, ExtractsQuotedIncludesWithLines)
{
    std::vector<IncludeDirective> incs = includesOf(
        "#include \"graph/csr.h\"\n"
        "#include <vector>\n"
        "// #include \"obs/log.h\"\n"
        "#include \"common/check.h\"\n");
    ASSERT_EQ(incs.size(), 2u);
    EXPECT_EQ(incs[0].target, "graph/csr.h");
    EXPECT_EQ(incs[0].line, 1);
    EXPECT_EQ(incs[1].target, "common/check.h");
    EXPECT_EQ(incs[1].line, 4);
}

TEST(IncludeGraph, IgnoresIncludeInsideStringLiteral)
{
    std::vector<IncludeDirective> incs =
        includesOf("auto s = \"#include \\\"x.h\\\"\";\n");
    EXPECT_TRUE(incs.empty());
}

TEST(IncludeGraph, ModuleOf)
{
    EXPECT_EQ(moduleOf("src/graph/csr.h"), "graph");
    EXPECT_EQ(moduleOf("src/cachesim/cache.cc"), "cachesim");
    EXPECT_EQ(moduleOf("tools/gral_cli.cc"), "tools");
    EXPECT_EQ(moduleOf("bench/bench_main.cc"), "bench");
    // The perf sublayer is its own DAG node; obs core stays "obs".
    EXPECT_EQ(moduleOf("src/obs/perf/counters.h"), "obs/perf");
    EXPECT_EQ(moduleOf("src/obs/perf/syscall.cc"), "obs/perf");
    EXPECT_EQ(moduleOf("src/obs/metrics.h"), "obs");
    EXPECT_EQ(moduleOf("src/obs/span.cc"), "obs");
    // Likewise the storage sublayer; graph core stays "graph".
    EXPECT_EQ(moduleOf("src/graph/storage/gralb.h"), "graph/storage");
    EXPECT_EQ(moduleOf("src/graph/storage/varint.cc"),
              "graph/storage");
    EXPECT_EQ(moduleOf("src/graph/view.h"), "graph");
    EXPECT_EQ(moduleOf("src/exec/thread_pool.h"), "exec");
}

TEST(IncludeGraph, AllowedIncludesMatchTheDag)
{
    const std::set<std::string> *graph = allowedIncludes("graph");
    ASSERT_NE(graph, nullptr);
    EXPECT_TRUE(graph->count("common"));
    EXPECT_TRUE(graph->count("obs"));
    EXPECT_FALSE(graph->count("analysis"));
    EXPECT_FALSE(graph->count("cachesim"));

    const std::set<std::string> *analysis =
        allowedIncludes("analysis");
    ASSERT_NE(analysis, nullptr);
    EXPECT_TRUE(analysis->count("graph"));
    EXPECT_TRUE(analysis->count("metrics"));
    EXPECT_TRUE(analysis->count("kernels"));

    // Every kernel (SpMV, BFS, PageRank, CC) lives in kernels/
    // itself; the algorithms and spmv modules they came from are
    // gone, so the DAG has no entry for either. kernels inherits
    // spmv's grants: the pool (exec), storage and obs/perf.
    EXPECT_EQ(allowedIncludes("algorithms"), nullptr);
    EXPECT_EQ(allowedIncludes("spmv"), nullptr);
    const std::set<std::string> *kernels = allowedIncludes("kernels");
    ASSERT_NE(kernels, nullptr);
    EXPECT_FALSE(kernels->count("spmv"));
    EXPECT_TRUE(kernels->count("cachesim"));
    EXPECT_TRUE(kernels->count("exec"));
    EXPECT_FALSE(kernels->count("metrics"));
    EXPECT_FALSE(kernels->count("analysis"));

    // De-welded: the metrics layer is kernel-agnostic and may not
    // reach back into any workload module.
    const std::set<std::string> *metrics = allowedIncludes("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_TRUE(metrics->count("cachesim"));
    EXPECT_FALSE(metrics->count("kernels"));

    // obs core must stay syscall-free: it may not include obs/perf,
    // while obs/perf may use obs (metrics, spans). Only the modules
    // that measure (the pool, the kernels' parallel SpMV, the
    // experiment runner) get the sublayer.
    const std::set<std::string> *obs = allowedIncludes("obs");
    ASSERT_NE(obs, nullptr);
    EXPECT_FALSE(obs->count("obs/perf"));
    const std::set<std::string> *perf = allowedIncludes("obs/perf");
    ASSERT_NE(perf, nullptr);
    EXPECT_TRUE(perf->count("obs"));
    EXPECT_TRUE(perf->count("common"));
    EXPECT_FALSE(perf->count("graph"));
    EXPECT_TRUE(kernels->count("obs/perf"));
    EXPECT_TRUE(allowedIncludes("analysis")->count("obs/perf"));
    EXPECT_FALSE(allowedIncludes("cachesim")->count("obs/perf"));

    // graph core stays format- and syscall-free: it may use the
    // execution substrate (parallel builder) but never reach up into
    // its own storage sublayer; storage may use graph (views, types)
    // but not exec. Consumers above (kernels, analysis) get the
    // sublayer; reorder and cachesim do not.
    const std::set<std::string> *graphDeps = allowedIncludes("graph");
    ASSERT_NE(graphDeps, nullptr);
    EXPECT_TRUE(graphDeps->count("exec"));
    EXPECT_FALSE(graphDeps->count("graph/storage"));
    const std::set<std::string> *storage =
        allowedIncludes("graph/storage");
    ASSERT_NE(storage, nullptr);
    EXPECT_TRUE(storage->count("graph"));
    EXPECT_TRUE(storage->count("common"));
    EXPECT_FALSE(storage->count("exec"));
    EXPECT_FALSE(storage->count("kernels"));
    const std::set<std::string> *exec = allowedIncludes("exec");
    ASSERT_NE(exec, nullptr);
    EXPECT_TRUE(exec->count("obs"));
    EXPECT_FALSE(exec->count("graph"));
    EXPECT_TRUE(kernels->count("graph/storage"));
    EXPECT_TRUE(allowedIncludes("analysis")->count("graph/storage"));
    EXPECT_FALSE(allowedIncludes("reorder")->count("graph/storage"));
    EXPECT_FALSE(allowedIncludes("cachesim")->count("graph/storage"));
}

TEST(IncludeGraph, ResolvesSrcPrefixedTargets)
{
    std::vector<std::string> files = {"src/graph/a.h",
                                      "src/common/b.h"};
    std::vector<std::vector<IncludeDirective>> incs = {
        {{"common/b.h", 1}}, {}};
    IncludeGraph graph(files, incs);
    ASSERT_EQ(graph.edges().size(), 1u);
    EXPECT_EQ(graph.edges()[0].from, "src/graph/a.h");
    EXPECT_EQ(graph.edges()[0].to, "src/common/b.h");
}

TEST(IncludeGraph, FindsTwoFileCycle)
{
    std::vector<std::string> files = {"src/graph/a.h",
                                      "src/graph/b.h"};
    std::vector<std::vector<IncludeDirective>> incs = {
        {{"graph/b.h", 1}}, {{"graph/a.h", 1}}};
    IncludeGraph graph(files, incs);
    std::vector<std::vector<std::string>> cycles =
        graph.findCycles();
    ASSERT_EQ(cycles.size(), 1u);
    // Closed walk: first element repeated at the end.
    EXPECT_EQ(cycles[0].front(), cycles[0].back());
    EXPECT_NE(std::find(cycles[0].begin(), cycles[0].end(),
                        "src/graph/a.h"),
              cycles[0].end());
    EXPECT_NE(std::find(cycles[0].begin(), cycles[0].end(),
                        "src/graph/b.h"),
              cycles[0].end());
}

TEST(IncludeGraph, DagHasNoCycles)
{
    std::vector<std::string> files = {"src/graph/a.h",
                                      "src/common/b.h"};
    std::vector<std::vector<IncludeDirective>> incs = {
        {{"common/b.h", 1}}, {}};
    IncludeGraph graph(files, incs);
    EXPECT_TRUE(graph.findCycles().empty());
}

// ----------------------------------------------- layering end-to-end

/**
 * Acceptance fixture from the issue: the layering rule must
 * demonstrably fail on a file that includes src/analysis from
 * src/graph.
 */
TEST(Layering, GraphIncludingAnalysisFails)
{
    SourceTree tree = {
        {"src/analysis/report.h", "#pragma once\nint report();\n"},
        {"src/graph/evil.h",
         "#pragma once\n#include \"analysis/report.h\"\n"},
    };
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_TRUE(hasFinding(result, "src/graph/evil.h", "layering"))
        << "layering finding missing";
    ASSERT_FALSE(result.newFindings().empty());
    const Finding *f = result.newFindings().front();
    EXPECT_EQ(f->line, 2);
}

TEST(Layering, DownwardIncludeIsClean)
{
    SourceTree tree = {
        {"src/common/util.h", "#pragma once\nint util();\n"},
        {"src/graph/fine.h",
         "#pragma once\n#include \"common/util.h\"\n"},
    };
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_FALSE(hasFinding(result, "src/graph/fine.h", "layering"));
}

TEST(Layering, SrcMustNotIncludeBench)
{
    SourceTree tree = {
        {"bench/harness.h", "#pragma once\nint bench();\n"},
        {"src/graph/uses_bench.h",
         "#pragma once\n#include \"bench/harness.h\"\n"},
    };
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_TRUE(
        hasFinding(result, "src/graph/uses_bench.h", "layering"));
}

TEST(Layering, CycleReported)
{
    SourceTree tree = {
        {"src/graph/a.h", "#pragma once\n#include \"graph/b.h\"\n"},
        {"src/graph/b.h", "#pragma once\n#include \"graph/a.h\"\n"},
    };
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    bool cycle_found =
        hasFinding(result, "src/graph/a.h", "include-cycle") ||
        hasFinding(result, "src/graph/b.h", "include-cycle");
    EXPECT_TRUE(cycle_found);
}

TEST(Layering, ObsCoreMayNotIncludePerfSublayer)
{
    SourceTree tree = {
        {"src/obs/perf/counters.h", "#pragma once\nint read();\n"},
        {"src/obs/export.h",
         "#pragma once\n#include \"obs/perf/counters.h\"\n"},
    };
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_TRUE(hasFinding(result, "src/obs/export.h", "layering"));
}

TEST(Layering, PerfSublayerMayUseObsCore)
{
    SourceTree tree = {
        {"src/obs/metrics.h", "#pragma once\nint metrics();\n"},
        {"src/obs/perf/scope.h",
         "#pragma once\n#include \"obs/metrics.h\"\n"},
    };
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_FALSE(
        hasFinding(result, "src/obs/perf/scope.h", "layering"));
}

TEST(Layering, SuppressionSilencesTheFinding)
{
    SourceTree tree = {
        {"src/analysis/report.h", "#pragma once\nint report();\n"},
        {"src/graph/evil.h",
         "#pragma once\n"
         "// gral-analyzer: off(layering)\n"
         "#include \"analysis/report.h\"\n"},
    };
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_FALSE(hasFinding(result, "src/graph/evil.h", "layering"));
}

} // namespace
} // namespace gral::analyzer
