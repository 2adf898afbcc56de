#include "obs/export.h"

#include <fstream>
#include <stdexcept>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace gral
{

namespace
{

/** Match "--name=value"; returns true and fills @p value on a hit. */
bool
flagValue(const std::string &arg, const char *name, std::string &value)
{
    std::string prefix = std::string("--") + name + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

} // namespace

ObsOptions
extractObsFlags(std::vector<std::string> &args)
{
    ObsOptions options;
    std::vector<std::string> kept;
    kept.reserve(args.size());
    for (const std::string &arg : args) {
        std::string value;
        if (flagValue(arg, "metrics-out", value)) {
            options.metricsPath = value;
        } else if (flagValue(arg, "trace-out", value)) {
            options.tracePath = value;
        } else if (flagValue(arg, "log-level", value)) {
            bool ok = false;
            LogLevel level = parseLogLevel(value, &ok);
            if (!ok)
                throw std::invalid_argument(
                    "unknown log level: " + value +
                    " (trace|debug|info|warn|error|off)");
            setLogLevel(level);
        } else {
            kept.push_back(arg);
        }
    }
    args = std::move(kept);
    return options;
}

void
writeMetricsJsonFile(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open " + path);
    out << MetricsRegistry::global().snapshot().toJson() << "\n";
    if (!out)
        throw std::runtime_error("write failed: " + path);
    GRAL_LOG(info) << "wrote metrics snapshot"
                   << logField("path", path);
}

void
writeChromeTraceFile(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open " + path);
    TraceRecorder::global().writeChromeTrace(out);
    out << "\n";
    if (!out)
        throw std::runtime_error("write failed: " + path);
    GRAL_LOG(info) << "wrote trace events" << logField("path", path);
}

void
writeObsFiles(const ObsOptions &options)
{
    if (!options.metricsPath.empty())
        writeMetricsJsonFile(options.metricsPath);
    if (!options.tracePath.empty())
        writeChromeTraceFile(options.tracePath);
}

} // namespace gral
