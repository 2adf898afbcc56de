/**
 * @file
 * Telemetry export plumbing shared by gral_cli and the bench
 * binaries: the --metrics-out= / --trace-out= / --log-level= flags
 * and the file writers behind them.
 */

#ifndef GRAL_OBS_EXPORT_H
#define GRAL_OBS_EXPORT_H

#include <string>
#include <vector>

namespace gral
{

/** Parsed observability flags. */
struct ObsOptions
{
    /** Metrics-snapshot destination ("" = no export). */
    std::string metricsPath;
    /** Chrome-trace JSON destination ("" = no export). */
    std::string tracePath;
};

/**
 * Extract `--metrics-out=FILE`, `--trace-out=FILE` and
 * `--log-level=LEVEL` from @p args (removing them); a bad log level
 * throws std::invalid_argument, a valid one is applied immediately
 * via setLogLevel.
 */
ObsOptions extractObsFlags(std::vector<std::string> &args);

/** Write the global metrics snapshot as JSON to @p path.
 *  @throws std::runtime_error when the file cannot be written. */
void writeMetricsJsonFile(const std::string &path);

/** Write the global trace recorder as Chrome trace JSON to @p path.
 *  @throws std::runtime_error when the file cannot be written. */
void writeChromeTraceFile(const std::string &path);

/** Honour both paths of @p options (no-op for empty ones). */
void writeObsFiles(const ObsOptions &options);

} // namespace gral

#endif // GRAL_OBS_EXPORT_H
