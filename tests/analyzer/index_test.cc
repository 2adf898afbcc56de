/**
 * @file
 * Cross-TU program index tests: a hot src/cachesim loop calling an
 * allocating helper defined in another TU, suppressions at the call
 * site and at the witness, and a rerun after the helper is edited.
 */

#include <gtest/gtest.h>

#include <string>

#include "analyzer/analyzer.h"
#include "analyzer/index.h"

namespace gral::analyzer
{
namespace
{

/** Hot loop in cache-simulator code calling a helper whose
 *  allocation lives in a different TU — invisible to any same-TU
 *  fixpoint. */
SourceTree
crossTuTree()
{
    return {
        {"src/cachesim/hot.cc",
         "#include \"cachesim/helper.h\"\n"
         "void simulate()\n"
         "{\n"
         "    for (int i = 0; i < 100; ++i) {\n"
         "        recordAccess();\n"
         "    }\n"
         "}\n"},
        {"src/cachesim/helper.h",
         "#ifndef GRAL_CACHESIM_HELPER_H\n"
         "#define GRAL_CACHESIM_HELPER_H\n"
         "void recordAccess();\n"
         "#endif // GRAL_CACHESIM_HELPER_H\n"},
        {"src/obs/helper.cc",
         "#include <memory>\n"
         "void recordAccess()\n"
         "{\n"
         "    auto entry = std::make_unique<int>(3);\n"
         "    (void)entry;\n"
         "}\n"},
    };
}

TEST(Index, HotLoopCallingAllocatingHelperInAnotherTu)
{
    AnalysisResult result =
        analyzeTree(crossTuTree(), Baseline{}, 1);
    ASSERT_EQ(result.newFindings().size(), 1u);
    const Finding &finding = *result.newFindings()[0];
    EXPECT_EQ(finding.rule, "hot-path-alloc");
    EXPECT_EQ(finding.path, "src/cachesim/hot.cc");
    EXPECT_EQ(finding.line, 5);
    EXPECT_NE(finding.message.find("call to 'recordAccess()'"),
              std::string::npos)
        << finding.message;
    EXPECT_NE(finding.message.find("another TU"), std::string::npos)
        << finding.message;
    EXPECT_NE(finding.message.find("src/obs/helper.cc"),
              std::string::npos)
        << finding.message;
}

TEST(Index, CallSiteSuppressionSilencesCrossTuFinding)
{
    SourceTree tree = crossTuTree();
    tree[0].content =
        "#include \"cachesim/helper.h\"\n"
        "void simulate()\n"
        "{\n"
        "    for (int i = 0; i < 100; ++i) {\n"
        "        // gral-analyzer: off-next-line(hot-path-alloc)\n"
        "        recordAccess();\n"
        "    }\n"
        "}\n";
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_TRUE(result.newFindings().empty());
}

TEST(Index, WitnessSuppressionNeverEntersTheIndex)
{
    SourceTree tree = crossTuTree();
    tree[2].content =
        "#include <memory>\n"
        "void recordAccess()\n"
        "{\n"
        "    // gral-analyzer: off-next-line(hot-path-alloc)\n"
        "    auto entry = std::make_unique<int>(3);\n"
        "    (void)entry;\n"
        "}\n";
    AnalysisResult result = analyzeTree(tree, Baseline{}, 1);
    EXPECT_TRUE(result.newFindings().empty());
}

TEST(Index, EditedHelperClearsCrossTuFinding)
{
    SourceTree tree = crossTuTree();
    ASSERT_EQ(analyzeTree(tree, Baseline{}, 1).newFindings().size(),
              1u);

    // Once the helper stops allocating, the finding in the
    // untouched hot file is gone too.
    tree[2].content = "void recordAccess()\n"
                      "{\n"
                      "}\n";
    EXPECT_TRUE(
        analyzeTree(tree, Baseline{}, 1).newFindings().empty());
}

} // namespace
} // namespace gral::analyzer
