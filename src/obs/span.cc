#include "obs/span.h"

#include <algorithm>
#include <ostream>

#include "obs/json.h"

namespace gral
{

TraceRecorder &
TraceRecorder::global()
{
    static TraceRecorder recorder;
    return recorder;
}

TraceRecorder::TraceRecorder() : start_(Clock::now()) {}

TraceRecorder::ThreadBuffer &
TraceRecorder::localBuffer()
{
    // The lease returns the buffer when its thread exits, so pool
    // workers started for every batch take over their predecessors'
    // buffers instead of adding one each.
    struct Lease
    {
        explicit Lease(TraceRecorder &recorder)
            : owner(recorder), buffer(recorder.acquireBuffer())
        {
        }
        ~Lease() { owner.releaseBuffer(std::move(buffer)); }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        TraceRecorder &owner;
        std::shared_ptr<ThreadBuffer> buffer;
    };
    thread_local Lease lease(*this);
    return *lease.buffer;
}

std::shared_ptr<TraceRecorder::ThreadBuffer>
TraceRecorder::acquireBuffer()
{
    std::lock_guard lock(mutex_);
    if (!idle_.empty()) {
        std::shared_ptr<ThreadBuffer> buffer = std::move(idle_.back());
        idle_.pop_back();
        return buffer;
    }
    // No up-front reserve: short-lived pool workers each record only
    // a span or two.
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->tid = nextTid_++;
    buffers_.push_back(buffer);
    return buffer;
}

void
TraceRecorder::releaseBuffer(std::shared_ptr<ThreadBuffer> buffer)
{
    std::lock_guard lock(mutex_);
    idle_.push_back(std::move(buffer));
}

std::size_t
TraceRecorder::threadBuffers() const
{
    std::lock_guard lock(mutex_);
    return buffers_.size();
}

void
TraceRecorder::record(const char *name, char phase)
{
    Clock::time_point origin;
    {
        std::lock_guard lock(mutex_);
        origin = start_;
    }
    double ts = std::chrono::duration<double, std::micro>(
                    Clock::now() - origin)
                    .count();

    ThreadBuffer &buffer = localBuffer();
    std::lock_guard lock(buffer.mutex);
    if (buffer.events.size() >= capacity_) {
        ++buffer.dropped;
        return;
    }
    buffer.events.push_back({name, ts, buffer.tid, phase, 0.0});
}

void
TraceRecorder::recordCounter(const char *name, double value)
{
    Clock::time_point origin;
    {
        std::lock_guard lock(mutex_);
        origin = start_;
    }
    double ts = std::chrono::duration<double, std::micro>(
                    Clock::now() - origin)
                    .count();

    ThreadBuffer &buffer = localBuffer();
    std::lock_guard lock(buffer.mutex);
    if (buffer.events.size() >= capacity_) {
        ++buffer.dropped;
        return;
    }
    buffer.events.push_back({name, ts, buffer.tid, 'C', value});
}

std::vector<SpanEvent>
TraceRecorder::events() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard lock(mutex_);
        buffers = buffers_;
    }
    std::vector<SpanEvent> all;
    for (const auto &buffer : buffers) {
        std::lock_guard lock(buffer->mutex);
        all.insert(all.end(), buffer->events.begin(),
                   buffer->events.end());
    }
    return all;
}

std::uint64_t
TraceRecorder::droppedEvents() const
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard lock(mutex_);
        buffers = buffers_;
    }
    std::uint64_t dropped = 0;
    for (const auto &buffer : buffers) {
        std::lock_guard lock(buffer->mutex);
        dropped += buffer->dropped;
    }
    return dropped;
}

void
TraceRecorder::clear()
{
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    {
        std::lock_guard lock(mutex_);
        buffers = buffers_;
        start_ = Clock::now();
    }
    for (const auto &buffer : buffers) {
        std::lock_guard lock(buffer->mutex);
        buffer->events.clear();
        buffer->dropped = 0;
    }
}

void
TraceRecorder::writeChromeTrace(std::ostream &out) const
{
    std::vector<SpanEvent> all = events();
    // Chrome's JSON importer does not require global ordering, but
    // sorting by timestamp makes the file diffable and keeps each
    // thread's B/E nesting obvious to human readers.
    std::stable_sort(all.begin(), all.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         return a.tsMicros < b.tsMicros;
                     });

    JsonWriter json;
    json.beginObject();
    json.key("traceEvents").beginArray();
    for (const SpanEvent &event : all) {
        json.beginObject();
        json.key("name").value(event.name);
        json.key("cat").value("gral");
        json.key("ph").value(std::string_view(&event.phase, 1));
        json.key("ts").value(event.tsMicros);
        json.key("pid").value(std::uint64_t{1});
        json.key("tid").value(
            static_cast<std::uint64_t>(event.tid));
        // Counter samples carry their value; Chrome renders each
        // distinct name as its own counter track.
        if (event.phase == 'C') {
            json.key("args").beginObject();
            json.key("value").value(event.value);
            json.endObject();
        }
        json.endObject();
    }
    json.endArray();
    json.key("displayTimeUnit").value("ms");
    json.key("droppedEvents").value(droppedEvents());
    json.endObject();
    out << json.str();
}

} // namespace gral
