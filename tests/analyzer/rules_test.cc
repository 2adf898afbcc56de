/**
 * @file
 * Rule-engine fixtures. The convention-rule table descends from the
 * SELF_TEST_CASES of the retired Python linter (an equivalence ctest
 * proved the two implementations agreed before the shim was
 * removed); this file unit-tests the analyzer directly, plus the
 * rules that only ever existed here: hot-path-*, check-side-effect,
 * raw-new.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "analyzer/lexer.h"
#include "analyzer/rules.h"

namespace gral::analyzer
{
namespace
{

std::vector<Finding>
runOn(const std::string &path, const std::string &text)
{
    std::vector<Finding> findings;
    runFileRules(path, lexCpp(text), findings);
    return findings;
}

int
countRule(const std::vector<Finding> &findings,
          const std::string &rule)
{
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [&](const Finding &f) { return f.rule == rule; }));
}

// -------------------------------------------- convention-rule table

struct ConventionCase
{
    const char *name;
    const char *path;
    const char *text;
    const char *rule;   // rule expected to fire (or checked absent)
    int expected;       // number of findings for that rule
};

const ConventionCase kConventionCases[] = {
    {"raw assert fires", "src/graph/a.cc", "assert(x > 0);\n",
     "raw-assert", 1},
    {"static_assert is fine", "src/graph/a.cc",
     "static_assert(sizeof(int) == 4);\n", "raw-assert", 0},
    {"cassert include fires", "src/graph/a.cc",
     "#include <cassert>\n", "raw-assert", 1},
    {"GRAL_CHECK is fine", "src/graph/a.cc",
     "GRAL_CHECK(x > 0);\n", "raw-assert", 0},
    {"assert in comment ignored", "src/graph/a.cc",
     "// assert(x);\nint y;\n", "raw-assert", 0},
    {"assert in string ignored", "src/graph/a.cc",
     "auto s = \"assert(x)\";\n", "raw-assert", 0},
    {"assert in raw string ignored", "src/graph/a.cc",
     "auto s = R\"(assert(x))\";\n", "raw-assert", 0},
    {"assert after raw string still caught", "src/graph/a.cc",
     "auto s = R\"(\")\";\nassert(broken);\n", "raw-assert", 1},
    {"my_assert is fine", "src/graph/a.cc", "my_assert(x);\n",
     "raw-assert", 0},

    {"uint32_t loop over numVertices fires", "src/metrics/m.cc",
     "for (uint32_t v = 0; v < g.numVertices(); ++v) {}\n",
     "vertex-id-type", 1},
    {"std::size_t loop over numVertices fires", "src/metrics/m.cc",
     "for (std::size_t v = 0; v < numVertices(); ++v) {}\n",
     "vertex-id-type", 1},
    {"VertexId loop is fine", "src/metrics/m.cc",
     "for (VertexId v = 0; v < g.numVertices(); ++v) {}\n",
     "vertex-id-type", 0},
    {"size_t loop over parts is fine", "src/metrics/m.cc",
     "for (size_t i = 0; i < parts.size(); ++i) {}\n",
     "vertex-id-type", 0},

    {"std::endl fires in src", "src/obs/o.cc",
     "out << \"x\" << std::endl;\n", "std-endl", 1},
    {"std::endl fires in tools", "tools/t.cc",
     "out << std::endl;\n", "std-endl", 1},
    {"newline char is fine", "src/obs/o.cc",
     "out << \"x\\n\";\n", "std-endl", 0},

    {"std::cerr fires in src", "src/graph/g.cc",
     "std::cerr << \"oops\";\n", "raw-cerr", 1},
    {"std::clog is fine", "src/graph/g.cc",
     "std::clog << \"note\";\n", "raw-cerr", 0},
    {"cerr in raw string ignored but code use caught",
     "src/graph/g.cc",
     "auto s = R\"x(std::cerr << \"oops\")x\";\nstd::cerr << s;\n",
     "raw-cerr", 1},

    {"pragma once is fine", "src/graph/h.h",
     "#pragma once\nint x;\n", "include-guard", 0},
    {"matching guard is fine", "src/graph/csr.h",
     "#ifndef GRAL_GRAPH_CSR_H\n#define GRAL_GRAPH_CSR_H\n"
     "#endif\n",
     "include-guard", 0},
    {"missing guard fires", "src/graph/h.h", "int x;\n",
     "include-guard", 1},
    {"wrong guard name fires", "src/graph/csr.h",
     "#ifndef WRONG_NAME_H\n#define WRONG_NAME_H\n#endif\n",
     "include-guard", 1},
    {"ifndef without define fires", "src/graph/csr.h",
     "#ifndef GRAL_GRAPH_CSR_H\nint x;\n#endif\n", "include-guard",
     1},
    {"guard not required for .cc", "src/graph/csr.cc", "int x;\n",
     "include-guard", 0},
};

class ConventionRules
    : public ::testing::TestWithParam<ConventionCase>
{
};

TEST_P(ConventionRules, TableCase)
{
    const ConventionCase &c = GetParam();
    std::vector<Finding> findings = runOn(c.path, c.text);
    EXPECT_EQ(countRule(findings, c.rule), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, ConventionRules, ::testing::ValuesIn(kConventionCases),
    [](const ::testing::TestParamInfo<ConventionCase> &info) {
        std::string name = info.param.name;
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

// ----------------------------------------------------- rule scoping

TEST(RuleScoping, ToolsOnlyGetStdEndl)
{
    // assert + cerr in tools/ are out of scope; std::endl is not.
    std::vector<Finding> findings = runOn(
        "tools/x.cc",
        "assert(x);\nstd::cerr << 1;\nout << std::endl;\n");
    EXPECT_EQ(countRule(findings, "raw-assert"), 0);
    EXPECT_EQ(countRule(findings, "raw-cerr"), 0);
    EXPECT_EQ(countRule(findings, "std-endl"), 1);
}

TEST(RuleScoping, HotPathRulesOnlyInCachesimAndSpmv)
{
    const std::string loop =
        "for (int i = 0; i < n; ++i) {\n"
        "    auto p = std::make_unique<int>(i);\n"
        "}\n";
    EXPECT_EQ(countRule(runOn("src/cachesim/c.cc", loop),
                        "hot-path-alloc"),
              1);
    EXPECT_EQ(countRule(runOn("src/kernels/s.cc", loop),
                        "hot-path-alloc"),
              1);
    EXPECT_EQ(countRule(runOn("src/graph/g.cc", loop),
                        "hot-path-alloc"),
              0);
    // The storage sublayer's decode loop runs once per traversed
    // vertex, and the pool's dispatch loop once per task: both are
    // hot scopes even though graph core is not.
    EXPECT_EQ(countRule(runOn("src/graph/storage/varint.cc", loop),
                        "hot-path-alloc"),
              1);
    EXPECT_EQ(countRule(runOn("src/exec/thread_pool.cc", loop),
                        "hot-path-alloc"),
              1);
}

// ------------------------------------------------- hot-path details

TEST(HotPath, MetricsLookupInsideLoopFires)
{
    std::vector<Finding> findings = runOn(
        "src/cachesim/c.cc",
        "while (run) {\n"
        "    registry.counter(\"cachesim.hits\").add(1);\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "hot-path-metrics"), 1);
}

TEST(HotPath, MetricsLookupOutsideLoopIsFine)
{
    std::vector<Finding> findings = runOn(
        "src/cachesim/c.cc",
        "auto &hits = registry.counter(\"cachesim.hits\");\n"
        "while (run) {\n"
        "    hits.add(1);\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "hot-path-metrics"), 0);
}

TEST(HotPath, SpanInsideLoopFires)
{
    std::vector<Finding> findings =
        runOn("src/kernels/s.cc",
              "for (auto &x : xs) {\n    GRAL_SPAN(\"iter\");\n}\n");
    EXPECT_EQ(countRule(findings, "hot-path-span"), 1);
}

TEST(HotPath, SingleStatementLoopBodyCounts)
{
    std::vector<Finding> findings = runOn(
        "src/kernels/s.cc",
        "for (int i = 0; i < n; ++i)\n"
        "    sinks.push_back(std::make_unique<Sink>());\n");
    EXPECT_EQ(countRule(findings, "hot-path-alloc"), 1);
}

TEST(HotPath, PerfReadInsideLoopFires)
{
    std::vector<Finding> findings = runOn(
        "src/kernels/s.cc",
        "for (std::size_t i = 0; i < n; ++i) {\n"
        "    PerfGroupReading r = group.readCounters();\n"
        "    use(r);\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "hot-path-perf-read"), 1);
}

TEST(HotPath, PerfReadReachableFromLoopFires)
{
    std::vector<Finding> findings = runOn(
        "src/cachesim/c.cc",
        "void sample() { last = group->readCounters(); }\n"
        "void drain() {\n"
        "    while (running) {\n"
        "        step();\n"
        "        sample();\n"
        "    }\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "hot-path-perf-read"), 1);
}

TEST(HotPath, PerfReadOutsideLoopIsFine)
{
    std::vector<Finding> findings = runOn(
        "src/kernels/s.cc",
        "group.start();\n"
        "for (std::size_t i = 0; i < n; ++i)\n"
        "    work(i);\n"
        "group.stop();\n"
        "PerfGroupReading r = group.readCounters();\n");
    EXPECT_EQ(countRule(findings, "hot-path-perf-read"), 0);
}

TEST(HotPath, SuppressionCommentSilences)
{
    std::vector<Finding> findings = runOn(
        "src/kernels/s.cc",
        "for (int i = 0; i < n; ++i) {\n"
        "    // gral-analyzer: off(hot-path-alloc)\n"
        "    sinks.push_back(std::make_unique<Sink>());\n"
        "}\n");
    EXPECT_EQ(countRule(findings, "hot-path-alloc"), 0);
}

TEST(LoopBodyLines, TracksNesting)
{
    std::vector<std::string> lines = {
        "void f() {",                 // 1
        "    setup();",               // 2
        "    for (int i = 0; i < n; ++i) {", // 3 (header)
        "        body();",            // 4
        "    }",                      // 5
        "    teardown();",            // 6
        "}",                          // 7
    };
    std::vector<bool> inLoop = loopBodyLines(lines);
    EXPECT_FALSE(inLoop[1]); // setup
    EXPECT_TRUE(inLoop[3]);  // body
    EXPECT_FALSE(inLoop[5]); // teardown
}

// ----------------------------------------------------- API misuse

TEST(RawNew, NewExpressionFires)
{
    EXPECT_EQ(countRule(runOn("src/graph/g.cc",
                              "int *p = new int[8];\n"),
                        "raw-new"),
              1);
}

TEST(RawNew, DeletedFunctionIsFine)
{
    EXPECT_EQ(countRule(runOn("src/graph/g.cc",
                              "Foo(const Foo &) = delete;\n"),
                        "raw-new"),
              0);
}

TEST(RawNew, DeleteExpressionFires)
{
    EXPECT_EQ(
        countRule(runOn("src/graph/g.cc", "delete ptr;\n"), "raw-new"),
        1);
}

TEST(RawNew, MakeUniqueIsFine)
{
    EXPECT_EQ(countRule(runOn("src/graph/g.cc",
                              "auto p = std::make_unique<int>(1);\n"),
                        "raw-new"),
              0);
}

TEST(CheckSideEffect, IncrementInConditionFires)
{
    EXPECT_EQ(countRule(runOn("src/graph/g.cc",
                              "GRAL_DCHECK(consume(it++));\n"),
                        "check-side-effect"),
              1);
}

TEST(CheckSideEffect, AssignmentInConditionFires)
{
    EXPECT_EQ(countRule(runOn("src/graph/g.cc",
                              "GRAL_CHECK(x = next());\n"),
                        "check-side-effect"),
              1);
}

TEST(CheckSideEffect, ComparisonsAreFine)
{
    std::vector<Finding> findings =
        runOn("src/graph/g.cc",
              "GRAL_CHECK(a == b);\nGRAL_CHECK(a <= b);\n"
              "GRAL_CHECK(a != b);\nGRAL_CHECK(a >= b);\n");
    EXPECT_EQ(countRule(findings, "check-side-effect"), 0);
}

TEST(CheckSideEffect, LambdaCaptureIsFine)
{
    EXPECT_EQ(countRule(runOn("src/graph/g.cc",
                              "GRAL_CHECK(std::all_of(v.begin(), "
                              "v.end(), [=](int x) { return x > k; "
                              "}));\n"),
                        "check-side-effect"),
              0);
}

TEST(CheckSideEffect, MultiLineConditionFires)
{
    EXPECT_EQ(countRule(runOn("src/graph/g.cc",
                              "GRAL_CHECK(\n    total += step(),\n"
                              "    total > 0);\n"),
                        "check-side-effect"),
              1);
}

// ------------------------------------------------------ catalogue

TEST(Catalogue, SortedAndCoversEveryEmittedRule)
{
    const std::vector<RuleInfo> &rules = ruleCatalogue();
    EXPECT_TRUE(std::is_sorted(
        rules.begin(), rules.end(),
        [](const RuleInfo &a, const RuleInfo &b) {
            return a.id < b.id;
        }));
    std::vector<std::string_view> ids;
    for (const RuleInfo &r : rules)
        ids.push_back(r.id);
    for (std::string_view want :
         {"layering", "include-cycle", "raw-assert", "vertex-id-type",
          "include-guard", "std-endl", "raw-cerr", "hot-path-metrics",
          "hot-path-span", "hot-path-alloc", "check-side-effect",
          "raw-new"})
        EXPECT_NE(std::find(ids.begin(), ids.end(), want), ids.end())
            << want;
}

TEST(Catalogue, ExpectedGuardMatchesLintConvention)
{
    EXPECT_EQ(expectedGuard("src/graph/csr.h"), "GRAL_GRAPH_CSR_H");
    EXPECT_EQ(expectedGuard("src/obs/json.h"), "GRAL_OBS_JSON_H");
    EXPECT_EQ(expectedGuard("tools/analyzer/lexer.h"),
              "GRAL_TOOLS_ANALYZER_LEXER_H");
}

} // namespace
} // namespace gral::analyzer
