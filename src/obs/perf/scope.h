/**
 * @file
 * RAII hardware-counter regions: GRAL_PERF_SCOPE.
 *
 *     void runKernel() {
 *         GRAL_SPAN("experiment/time_kernel");
 *         GRAL_PERF_SCOPE("experiment/kernel");
 *         ...
 *     }
 *
 * A perf scope opens the probed backend's counter group on the
 * current thread, counts for the scope's extent, and publishes the
 * scaled reading at exit:
 *
 *   hw/<name>/<event>            Counter  scaled event totals
 *   hw/<name>/regions            Counter  measured region count
 *   hw/<name>/unavailable        Counter  regions with no reading
 *   hw/<name>/multiplex_fraction Gauge    time_running/time_enabled
 *   hw/<name>/llc_miss_rate      Gauge    misses/loads (hw rung only)
 *
 * plus one Chrome counter-track sample ("ph":"C") per event, so the
 * measured counters line up with GRAL_SPAN spans in one timeline.
 * Scopes nest freely — with each other (perf groups on one thread
 * count concurrently) and with GRAL_SPAN.
 *
 * Collection is off by default (setHwCountersEnabled); a disabled
 * scope is one relaxed atomic load and registers no hw/ metrics, so
 * a run without --hw-counters exports none. With collection on but perf
 * unreachable the scope publishes an explicit `unavailable` count —
 * it never zero-fills, so exports cannot mistake "no access" for
 * "no misses".
 */

#ifndef GRAL_OBS_PERF_SCOPE_H
#define GRAL_OBS_PERF_SCOPE_H

#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/perf/counters.h"

namespace gral
{

/**
 * One GRAL_PERF_SCOPE call site: registry handles and interned
 * counter-track names, resolved once (function-local static in the
 * macro, built the first time the scope runs with collection on) so
 * scope entry/exit never does a registry name lookup.
 */
class PerfScopeSite
{
  public:
    explicit PerfScopeSite(const char *name);

    const char *name() const { return name_; }

    /** The event list handles were resolved for (the probed
     *  backend's set at construction time). */
    std::span<const PerfEventSpec> events() const { return events_; }

    /** Publish @p reading into the registry and the trace recorder.
     *  Invalid readings count into `unavailable` instead. */
    void publish(const PerfGroupReading &reading);

  private:
    const char *name_;
    std::vector<PerfEventSpec> events_;
    /** Registry counters aligned with events_. */
    std::vector<Counter *> eventCounters_;
    /** Interned "hw/<name>/<event>" track names aligned with
     *  events_; stable storage for TraceRecorder counter samples. */
    std::vector<std::string> trackNames_;
    Counter &regions_;
    Counter &unavailable_;
    Gauge &multiplexFraction_;
    Gauge &llcMissRate_;
};

/** RAII region: opens/starts the group on entry, stops/reads/
 *  publishes on exit. A null @p site (collection disabled) makes the
 *  region a no-op. */
class ScopedPerfRegion
{
  public:
    explicit ScopedPerfRegion(PerfScopeSite *site);
    ~ScopedPerfRegion();

    ScopedPerfRegion(const ScopedPerfRegion &) = delete;
    ScopedPerfRegion &operator=(const ScopedPerfRegion &) = delete;

  private:
    PerfScopeSite *site_;
    /** Engaged only when collection was enabled at entry. */
    std::optional<PerfCounterGroup> group_;
};

} // namespace gral

#define GRAL_PERF_SCOPE_CONCAT_INNER(a, b) a##b
#define GRAL_PERF_SCOPE_CONCAT(a, b) GRAL_PERF_SCOPE_CONCAT_INNER(a, b)

/** Measure hardware counters over the enclosing block and publish
 *  them under hw/<name>/... (string literal @p name; at most one
 *  per source line). The site is a function-local static of the
 *  lambda, so it is built thread-safely, once, and only when
 *  collection is enabled. */
#define GRAL_PERF_SCOPE(name)                                           \
    ::gral::ScopedPerfRegion GRAL_PERF_SCOPE_CONCAT(gral_perf_,         \
                                                    __LINE__)(          \
        []() -> ::gral::PerfScopeSite * {                               \
            if (!::gral::hwCountersEnabled())                           \
                return nullptr;                                         \
            static ::gral::PerfScopeSite site{name};                    \
            return &site;                                               \
        }())

#endif // GRAL_OBS_PERF_SCOPE_H
