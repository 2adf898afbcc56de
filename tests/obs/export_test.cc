#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace gral
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Temp file that cleans up after itself. */
struct TempPath
{
    std::string path;

    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
    }

    ~TempPath() { std::remove(path.c_str()); }
};

TEST(ExtractObsFlags, StripsKnownFlagsLeavesRest)
{
    LogLevel saved = logLevel();
    std::vector<std::string> args = {
        "experiment",       "--metrics-out=/tmp/m.json", "graph.grf",
        "--log-level=info", "--trace-out=/tmp/t.json",   "Bl,SB"};
    ObsOptions options = extractObsFlags(args);
    EXPECT_EQ(options.metricsPath, "/tmp/m.json");
    EXPECT_EQ(options.tracePath, "/tmp/t.json");
    EXPECT_EQ(logLevel(), LogLevel::info);
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(args[0], "experiment");
    EXPECT_EQ(args[1], "graph.grf");
    EXPECT_EQ(args[2], "Bl,SB");
    setLogLevel(saved);
}

TEST(ExtractObsFlags, NoFlagsIsANoop)
{
    std::vector<std::string> args = {"info", "graph.grf"};
    ObsOptions options = extractObsFlags(args);
    EXPECT_EQ(options.metricsPath, "");
    EXPECT_EQ(options.tracePath, "");
    EXPECT_EQ(args.size(), 2u);
}

TEST(ExtractObsFlags, BadLogLevelThrows)
{
    std::vector<std::string> args = {"--log-level=shouty"};
    EXPECT_THROW(extractObsFlags(args), std::invalid_argument);
}

TEST(WriteObsFiles, MetricsFileIsValidJson)
{
    MetricsRegistry::global().counter("export_test.events").add(3);
    TempPath file("gral_export_metrics.json");
    writeMetricsJsonFile(file.path);

    std::string text = readFile(file.path);
    std::string error;
    EXPECT_TRUE(jsonValidate(text, &error)) << error;
    EXPECT_NE(text.find("export_test.events"), std::string::npos);
}

TEST(WriteObsFiles, TraceFileIsValidChromeJson)
{
    {
        GRAL_SPAN("export_test/span");
    }
    TempPath file("gral_export_trace.json");
    writeChromeTraceFile(file.path);

    std::string text = readFile(file.path);
    std::string error;
    EXPECT_TRUE(jsonValidate(text, &error)) << error;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("export_test/span"), std::string::npos);
}

TEST(WriteObsFiles, UnwritablePathThrows)
{
    EXPECT_THROW(
        writeMetricsJsonFile("/nonexistent-dir-xyz/metrics.json"),
        std::runtime_error);
    EXPECT_THROW(
        writeChromeTraceFile("/nonexistent-dir-xyz/trace.json"),
        std::runtime_error);
}

TEST(ScopedTimer, AccumulatesAcrossScopes)
{
    // The documented (and now actual) semantics: += into the sink, so
    // repeated scopes add up instead of keeping only the last one.
    double sink = 0.0;
    {
        ScopedTimer timer(sink);
    }
    double after_first = sink;
    EXPECT_GE(after_first, 0.0);
    {
        ScopedTimer timer(sink);
    }
    EXPECT_GE(sink, after_first);

    double preset = 10.0;
    {
        ScopedTimer timer(preset);
    }
    EXPECT_GE(preset, 10.0); // accumulated, not overwritten
}

} // namespace
} // namespace gral
