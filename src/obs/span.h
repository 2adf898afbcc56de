/**
 * @file
 * Scoped trace spans: hierarchical begin/end events per thread,
 * exportable as Chrome trace-event JSON (loadable in Perfetto or
 * chrome://tracing).
 *
 *     void SlashBurn::round() {
 *         GRAL_SPAN("slashburn/round");
 *         ...
 *     }
 *
 * Each thread records into its own bounded buffer inside the global
 * TraceRecorder, so recording never contends across threads (each
 * buffer has a private mutex that only the exporter ever takes
 * concurrently). When a buffer is full, further events on that thread
 * are counted as dropped rather than growing memory unboundedly.
 *
 * Every GRAL_SPAN site also feeds a duration histogram
 * `span/<name>` (microseconds) in the global MetricsRegistry, so
 * phase timings show up in metrics exports even when no trace file is
 * requested.
 */

#ifndef GRAL_OBS_SPAN_H
#define GRAL_OBS_SPAN_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace gral
{

/** One begin, end, or counter-sample event. */
struct SpanEvent
{
    /** Span or counter-track name; must point at storage with static
     *  lifetime (the GRAL_SPAN macro guarantees a string literal;
     *  perf scope sites intern their track names). */
    const char *name = nullptr;
    /** Microseconds since the recorder was created (or cleared). */
    double tsMicros = 0.0;
    /** Recorder-assigned sequential thread id. */
    std::uint32_t tid = 0;
    /** 'B' (begin), 'E' (end) or 'C' (counter sample) — Chrome
     *  trace-event phases. */
    char phase = 'B';
    /** Counter value; meaningful for 'C' events only. */
    double value = 0.0;
};

/** Process-wide span event store. */
class TraceRecorder
{
  public:
    /** The recorder the GRAL_SPAN macro writes into. */
    static TraceRecorder &global();

    /** Append one event to the calling thread's buffer. */
    void record(const char *name, char phase);

    /**
     * Append one counter sample ("ph":"C"): a point on the counter
     * track @p name at the current timestamp. Hardware perf scopes
     * use these so measured counters line up with the spans they
     * were measured under in one Chrome/Perfetto timeline.
     */
    void recordCounter(const char *name, double value);

    /**
     * Serialize everything recorded so far as Chrome trace-event JSON
     * ({"traceEvents": [...]}); loadable by Perfetto. Safe to call
     * while other threads record (their buffers are briefly locked).
     */
    void writeChromeTrace(std::ostream &out) const;

    /** All events, grouped by thread in record order (tests). */
    std::vector<SpanEvent> events() const;

    /** Events rejected because a thread buffer was full. */
    std::uint64_t droppedEvents() const;

    /** Per-thread event capacity (further events are dropped). */
    std::size_t capacityPerThread() const { return capacity_; }

    /** Drop all recorded events and reset the time origin; buffers
     *  and thread ids survive. */
    void clear();

    /** Thread buffers allocated so far. An exited thread's buffer,
     *  events and tid included, passes to the next thread that
     *  records, so this is bounded by the peak number of recording
     *  threads alive at once. */
    std::size_t threadBuffers() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct ThreadBuffer
    {
        std::mutex mutex;
        std::vector<SpanEvent> events;
        std::uint64_t dropped = 0;
        std::uint32_t tid = 0;
    };

    TraceRecorder();

    ThreadBuffer &localBuffer();
    std::shared_ptr<ThreadBuffer> acquireBuffer();
    void releaseBuffer(std::shared_ptr<ThreadBuffer> buffer);

    mutable std::mutex mutex_; // guards buffers_, idle_ and start_
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
    /** Buffers of exited threads, awaiting the next new thread. */
    std::vector<std::shared_ptr<ThreadBuffer>> idle_;
    std::uint32_t nextTid_ = 0;
    std::size_t capacity_ = 1 << 16;
    Clock::time_point start_;
};

/**
 * One GRAL_SPAN call site: the span name plus its registry duration
 * histogram, resolved once (function-local static in the macro).
 */
class SpanSite
{
  public:
    explicit SpanSite(const char *name)
        : name_(name),
          durationUs_(MetricsRegistry::global().histogram(
              std::string("span/") + name))
    {
    }

    const char *name() const { return name_; }
    Histogram &durationHistogram() { return durationUs_; }

  private:
    const char *name_;
    Histogram &durationUs_;
};

/** RAII span: records B on construction, E plus duration on exit. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanSite &site)
        : site_(site), start_(std::chrono::steady_clock::now())
    {
        TraceRecorder::global().record(site.name(), 'B');
    }

    ~ScopedSpan()
    {
        TraceRecorder::global().record(site_.name(), 'E');
        double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
        site_.durationHistogram().record(
            us <= 0.0 ? 0 : static_cast<std::uint64_t>(us));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanSite &site_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace gral

#define GRAL_SPAN_CONCAT_INNER(a, b) a##b
#define GRAL_SPAN_CONCAT(a, b) GRAL_SPAN_CONCAT_INNER(a, b)

/** Open a scoped trace span named @p name (string literal) lasting
 *  until the end of the enclosing block. At most one GRAL_SPAN per
 *  source line (the site is identified by line number). */
#define GRAL_SPAN(name)                                                 \
    static ::gral::SpanSite GRAL_SPAN_CONCAT(gral_span_site_,           \
                                             __LINE__){name};           \
    ::gral::ScopedSpan GRAL_SPAN_CONCAT(gral_span_, __LINE__)(          \
        GRAL_SPAN_CONCAT(gral_span_site_, __LINE__))

#endif // GRAL_OBS_SPAN_H
