/**
 * @file
 * Perf counter layer: multiplexing-scaling math on deterministic fake
 * readings, backend-override parsing, the explicit Unavailable stub,
 * and GRAL_PERF_SCOPE's degraded behavior. Every test here must pass
 * on a host with no perf access at all — the scaling functions are
 * pure, and the syscall paths are forced onto the Unavailable rung.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/perf/backend.h"
#include "obs/perf/counters.h"
#include "obs/perf/events.h"
#include "obs/perf/rusage.h"
#include "obs/perf/scope.h"

namespace gral
{
namespace
{

/** Force the Unavailable rung and restore the probe on exit, so
 *  tests never depend on the host's perf capabilities. */
class ForcedUnavailable
{
  public:
    ForcedUnavailable() : previous_(probePerfBackend())
    {
        forcePerfBackend(PerfBackend::Unavailable);
    }
    ~ForcedUnavailable() { forcePerfBackend(previous_); }

  private:
    PerfBackend previous_;
};

// ------------------------------------------------- scaling math

TEST(PerfScaling, FullyScheduledGroupReturnsRaw)
{
    EXPECT_EQ(scaleCounterValue(1000, 500, 500), 1000u);
    // running > enabled (clock skew) must not shrink the value.
    EXPECT_EQ(scaleCounterValue(1000, 500, 600), 1000u);
}

TEST(PerfScaling, NeverScheduledGroupYieldsZero)
{
    EXPECT_EQ(scaleCounterValue(1000, 500, 0), 0u);
}

TEST(PerfScaling, HalfScheduledGroupDoubles)
{
    EXPECT_EQ(scaleCounterValue(1000, 1000, 500), 2000u);
    EXPECT_EQ(scaleCounterValue(300, 900, 300), 900u);
}

TEST(PerfScaling, LargeCountsDoNotOverflow)
{
    // A week of 5 GHz cycles times a 10x multiplexing factor would
    // overflow 64-bit intermediate math; the 128-bit path must not.
    std::uint64_t raw = 3'000'000'000'000'000ull;
    std::uint64_t scaled =
        scaleCounterValue(raw, 10'000'000'000ull, 1'000'000'000ull);
    EXPECT_EQ(scaled, raw * 10);
}

TEST(PerfScaling, ResultClampsAtUint64Max)
{
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(scaleCounterValue(max, 1000, 1), max);
}

TEST(PerfScaling, GroupReadingScalesEachValue)
{
    RawGroupReading raw;
    raw.timeEnabled = 1000;
    raw.timeRunning = 250; // 4x extrapolation
    raw.values = {100, 400, 80, 20, 4};

    PerfGroupReading reading = scaleGroupReading(
        raw, hardwareEventSet(), PerfBackend::Hardware);
    ASSERT_TRUE(reading.valid);
    EXPECT_EQ(reading.backend, PerfBackend::Hardware);
    EXPECT_DOUBLE_EQ(reading.multiplexFraction(), 0.25);
    EXPECT_DOUBLE_EQ(reading.value(PerfEventKind::Cycles), 400.0);
    EXPECT_DOUBLE_EQ(reading.value(PerfEventKind::Instructions),
                     1600.0);
    EXPECT_DOUBLE_EQ(reading.value(PerfEventKind::LlcLoads), 320.0);
    EXPECT_DOUBLE_EQ(reading.value(PerfEventKind::LlcLoadMisses),
                     80.0);
    // miss rate uses scaled values: 80/320.
    EXPECT_DOUBLE_EQ(reading.llcMissRate(), 0.25);
}

TEST(PerfScaling, GroupThatNeverRanIsInvalid)
{
    RawGroupReading raw;
    raw.timeEnabled = 1000;
    raw.timeRunning = 0;
    raw.values = {100, 200, 300, 400, 500};

    PerfGroupReading reading = scaleGroupReading(
        raw, hardwareEventSet(), PerfBackend::Hardware);
    EXPECT_FALSE(reading.valid);
    EXPECT_EQ(reading.value(PerfEventKind::Cycles), -1.0);
    EXPECT_EQ(reading.llcMissRate(), -1.0);
}

TEST(PerfScaling, MissingRawValuesLeaveEventsInvalid)
{
    RawGroupReading raw;
    raw.timeEnabled = 100;
    raw.timeRunning = 100;
    raw.values = {10, 20}; // only cycles + instructions delivered

    PerfGroupReading reading = scaleGroupReading(
        raw, hardwareEventSet(), PerfBackend::Hardware);
    ASSERT_TRUE(reading.valid);
    EXPECT_DOUBLE_EQ(reading.value(PerfEventKind::Cycles), 10.0);
    EXPECT_EQ(reading.value(PerfEventKind::LlcLoads), -1.0);
    EXPECT_EQ(reading.llcMissRate(), -1.0);
}

TEST(PerfScaling, SoftwareRungCannotReportLlcMissRate)
{
    RawGroupReading raw;
    raw.timeEnabled = 100;
    raw.timeRunning = 100;
    raw.values = {1000, 2, 3, 4};

    PerfGroupReading reading = scaleGroupReading(
        raw, softwareEventSet(), PerfBackend::Software);
    ASSERT_TRUE(reading.valid);
    EXPECT_DOUBLE_EQ(reading.value(PerfEventKind::TaskClockNs),
                     1000.0);
    EXPECT_EQ(reading.llcMissRate(), -1.0);
}

TEST(PerfScaling, RatioHandlesZeroDenominator)
{
    RawGroupReading raw;
    raw.timeEnabled = 100;
    raw.timeRunning = 100;
    raw.values = {100, 0, 0, 0, 0};

    PerfGroupReading reading = scaleGroupReading(
        raw, hardwareEventSet(), PerfBackend::Hardware);
    EXPECT_EQ(reading.ratio(PerfEventKind::LlcLoadMisses,
                            PerfEventKind::LlcLoads),
              -1.0);
}

// --------------------------------------------- backend selection

TEST(PerfBackendParse, RecognizesAllSpellings)
{
    PerfBackend backend = PerfBackend::Unavailable;
    EXPECT_TRUE(parsePerfBackendOverride("hw", &backend));
    EXPECT_EQ(backend, PerfBackend::Hardware);
    EXPECT_TRUE(parsePerfBackendOverride("hardware", &backend));
    EXPECT_EQ(backend, PerfBackend::Hardware);
    EXPECT_TRUE(parsePerfBackendOverride("sw", &backend));
    EXPECT_EQ(backend, PerfBackend::Software);
    EXPECT_TRUE(parsePerfBackendOverride("software", &backend));
    EXPECT_EQ(backend, PerfBackend::Software);
    EXPECT_TRUE(parsePerfBackendOverride("off", &backend));
    EXPECT_EQ(backend, PerfBackend::Unavailable);
    EXPECT_TRUE(parsePerfBackendOverride("none", &backend));
    EXPECT_EQ(backend, PerfBackend::Unavailable);
    EXPECT_TRUE(parsePerfBackendOverride("unavailable", &backend));
    EXPECT_EQ(backend, PerfBackend::Unavailable);
}

TEST(PerfBackendParse, RejectsUnknownValues)
{
    PerfBackend backend = PerfBackend::Hardware;
    EXPECT_FALSE(parsePerfBackendOverride("pmu", &backend));
    EXPECT_FALSE(parsePerfBackendOverride("", &backend));
    EXPECT_EQ(backend, PerfBackend::Hardware); // untouched
}

TEST(PerfBackendNames, ToStringIsStable)
{
    EXPECT_STREQ(toString(PerfBackend::Hardware), "hardware");
    EXPECT_STREQ(toString(PerfBackend::Software), "software");
    EXPECT_STREQ(toString(PerfBackend::Unavailable), "unavailable");
}

// ------------------------------------------------- stub backend

TEST(PerfStub, UnavailableGroupReadsExplicitlyInvalid)
{
    ForcedUnavailable forced;
    PerfCounterGroup group;
    EXPECT_FALSE(group.openForThisThread());
    EXPECT_FALSE(group.isOpen());
    EXPECT_EQ(group.backend(), PerfBackend::Unavailable);

    group.start(); // all no-ops, must not crash
    group.stop();
    PerfGroupReading reading = group.readCounters();
    EXPECT_FALSE(reading.valid);
    EXPECT_EQ(reading.backend, PerfBackend::Unavailable);
    EXPECT_TRUE(reading.values.empty());
    EXPECT_EQ(reading.llcMissRate(), -1.0);
}

TEST(PerfStub, ScopeWithCollectionDisabledPublishesNothing)
{
    ForcedUnavailable forced;
    setHwCountersEnabled(false);
    MetricsRegistry &registry = MetricsRegistry::global();
    Counter &regions =
        registry.counter("hw/test/disabled_scope/regions");
    Counter &unavailable =
        registry.counter("hw/test/disabled_scope/unavailable");
    std::uint64_t regions_before = regions.value();
    std::uint64_t unavailable_before = unavailable.value();
    {
        GRAL_PERF_SCOPE("test/disabled_scope");
    }
    EXPECT_EQ(regions.value(), regions_before);
    EXPECT_EQ(unavailable.value(), unavailable_before);
}

TEST(PerfStub, ScopeWithCollectionDisabledRegistersNoMetrics)
{
    // A run without --hw-counters must export no hw/ names at all,
    // not zero-valued counters and gauges for every scope it passed.
    setHwCountersEnabled(false);
    {
        GRAL_PERF_SCOPE("test/never_enabled_scope");
    }
    MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
    const std::string prefix = "hw/test/never_enabled_scope/";
    for (const auto &[name, value] : snapshot.counters)
        EXPECT_NE(name.rfind(prefix, 0), 0u) << name;
    for (const auto &[name, value] : snapshot.gauges)
        EXPECT_NE(name.rfind(prefix, 0), 0u) << name;
}

TEST(PerfStub, ScopeOnUnavailableHostCountsUnavailable)
{
    ForcedUnavailable forced;
    ScopedHwCounters window(true);
    MetricsRegistry &registry = MetricsRegistry::global();
    Counter &regions =
        registry.counter("hw/test/unavailable_scope/regions");
    Counter &unavailable =
        registry.counter("hw/test/unavailable_scope/unavailable");
    std::uint64_t regions_before = regions.value();
    std::uint64_t unavailable_before = unavailable.value();
    {
        GRAL_PERF_SCOPE("test/unavailable_scope");
    }
    // Explicit degradation: the region is counted as unavailable,
    // never silently published as zeros.
    EXPECT_EQ(regions.value(), regions_before);
    EXPECT_EQ(unavailable.value(), unavailable_before + 1);
}

TEST(PerfStub, ScopedHwCountersRestoresPreviousState)
{
    setHwCountersEnabled(false);
    {
        ScopedHwCounters window(true);
        EXPECT_TRUE(hwCountersEnabled());
        {
            ScopedHwCounters inner(false); // no-op, keeps enabled
            EXPECT_TRUE(hwCountersEnabled());
        }
        EXPECT_TRUE(hwCountersEnabled());
    }
    EXPECT_FALSE(hwCountersEnabled());
}

// ---------------------------------------------------- rusage probe

TEST(Rusage, PeakRssReportsAndNeverShrinks)
{
    std::uint64_t before = peakRssBytes();
    // Any live test process has resident pages; the probe must not
    // report the explicit-failure 0 on a supported host.
    EXPECT_GT(before, 0u);
    // Touch 8 MB so the high-water mark is forced upward, then check
    // monotonicity (the kernel never lowers the mark).
    std::vector<char> ballast(8u << 20, 1);
    volatile char sink = ballast[ballast.size() / 2];
    (void)sink;
    std::uint64_t after = peakRssBytes();
    EXPECT_GE(after, before);
}

// ------------------------------------------------- event catalogue

TEST(PerfEvents, CataloguesAreDisjointAndNamed)
{
    for (const PerfEventSpec &spec : hardwareEventSet()) {
        EXPECT_NE(spec.name, nullptr);
        EXPECT_STREQ(perfEventName(spec.kind), spec.name);
    }
    for (const PerfEventSpec &spec : softwareEventSet()) {
        EXPECT_NE(spec.name, nullptr);
        EXPECT_STREQ(perfEventName(spec.kind), spec.name);
        for (const PerfEventSpec &hw : hardwareEventSet())
            EXPECT_NE(spec.kind, hw.kind);
    }
}

} // namespace
} // namespace gral
