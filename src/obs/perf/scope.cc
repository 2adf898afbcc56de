#include "obs/perf/scope.h"

#include "obs/span.h"

namespace gral
{

namespace
{

/** The event list a site should pre-resolve handles for: the probed
 *  backend's set (hardware's when hardware, software's when software,
 *  empty when unavailable). */
std::span<const PerfEventSpec>
siteEventSet()
{
    switch (probePerfBackend()) {
    case PerfBackend::Hardware:
        return hardwareEventSet();
    case PerfBackend::Software:
        return softwareEventSet();
    case PerfBackend::Unavailable:
        return {};
    }
    return {};
}

} // namespace

PerfScopeSite::PerfScopeSite(const char *name)
    : name_(name),
      regions_(MetricsRegistry::global().counter(
          std::string("hw/") + name + "/regions")),
      unavailable_(MetricsRegistry::global().counter(
          std::string("hw/") + name + "/unavailable")),
      multiplexFraction_(MetricsRegistry::global().gauge(
          std::string("hw/") + name + "/multiplex_fraction")),
      llcMissRate_(MetricsRegistry::global().gauge(
          std::string("hw/") + name + "/llc_miss_rate"))
{
    std::span<const PerfEventSpec> specs = siteEventSet();
    MetricsRegistry &registry = MetricsRegistry::global();
    events_.assign(specs.begin(), specs.end());
    eventCounters_.reserve(events_.size());
    trackNames_.reserve(events_.size());
    for (const PerfEventSpec &spec : events_) {
        std::string metric =
            std::string("hw/") + name + "/" + spec.name;
        eventCounters_.push_back(&registry.counter(metric));
        trackNames_.push_back(std::move(metric));
    }
}

void
PerfScopeSite::publish(const PerfGroupReading &reading)
{
    if (!reading.valid) {
        unavailable_.add(1);
        return;
    }
    regions_.add(1);
    multiplexFraction_.set(reading.multiplexFraction());
    double llc_rate = reading.llcMissRate();
    if (llc_rate >= 0.0)
        llcMissRate_.set(llc_rate);

    TraceRecorder &recorder = TraceRecorder::global();
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const PerfCounterValue *value = reading.find(events_[i].kind);
        if (value == nullptr || !value->valid)
            continue;
        eventCounters_[i]->add(value->scaled);
        recorder.recordCounter(trackNames_[i].c_str(),
                               static_cast<double>(value->scaled));
    }
}

ScopedPerfRegion::ScopedPerfRegion(PerfScopeSite *site) : site_(site)
{
    if (site_ == nullptr)
        return;
    TraceRecorder::global().record(site_->name(), 'B');
    group_.emplace();
    group_->openForThisThread();
    group_->start();
}

ScopedPerfRegion::~ScopedPerfRegion()
{
    if (!group_.has_value())
        return;
    group_->stop();
    site_->publish(group_->readCounters());
    TraceRecorder::global().record(site_->name(), 'E');
}

} // namespace gral
