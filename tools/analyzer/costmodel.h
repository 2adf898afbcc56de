/**
 * @file
 * Cost-model rule pack: hot-path checks with reachability.
 *
 * v1 flagged expensive constructs only when they sat lexically inside
 * a loop body. v2 computes, per file, the set of "hot" token ranges:
 * every loop body, plus the body of every function transitively
 * called (by name, within the file) from a hot range. The checks then
 * run over the union:
 *
 *   hot-path-metrics  MetricsRegistry name lookup
 *                     (.counter()/.gauge()/.histogram()/.series(),
 *                     MetricsRegistry::global())
 *   hot-path-span     GRAL_SPAN(...)
 *   hot-path-alloc    new / std::make_unique / std::make_shared
 *   hot-path-lock     mutex acquisition (std::lock_guard/scoped_lock/
 *                     unique_lock/shared_lock, manual .lock())
 *   hot-path-virtual  member call to a method declared virtual
 *                     anywhere in the TU view
 *   hot-path-perf-read  perf group .readCounters() — a syscall per
 *                     call; count the whole region via
 *                     GRAL_PERF_SCOPE and read once at its end
 *
 * Scope: src/cachesim/, src/kernels/ (and the exec/storage
 * layers they drive) — the simulator and kernel hot paths. Findings
 * in a called function say which function made them reachable.
 *
 * v3 closes the cross-TU hole: the same detectHotOps() scanner runs
 * over every function body in the repo while the program index
 * (index.h) is built, and the whole-program call-graph fixpoint then
 * flags a call from a hot range to an allocating/locking/... helper
 * *defined in another file* — previously invisible to the same-TU
 * pass below. The building blocks (hot-range collection, op
 * detection) are exported here so both passes agree byte-for-byte on
 * what is expensive.
 */

#ifndef GRAL_ANALYZER_COSTMODEL_H
#define GRAL_ANALYZER_COSTMODEL_H

#include <string>
#include <vector>

#include "analyzer/rules.h"

namespace gral::analyzer
{

/** True when @p path is inside the hot-path rule scope. */
bool inHotPathScope(const std::string &path);

/** One expensive construct found in a token range. */
struct HotOp
{
    std::string rule; // hot-path-*
    std::string what; // "allocation", "mutex acquisition", ...
    std::string advice;
    std::size_t tokenIndex = 0;
    int line = 1;
    int column = 1;
};

/**
 * Detect expensive constructs in [begin, end); virtual calls are
 * resolved against @p tu's virtualFunctions set.
 */
std::vector<HotOp> detectHotOps(const TokenStream &ts,
                                std::size_t begin, std::size_t end,
                                const TuView &tu);

/** One hot range: a loop body, or the body of a function reachable
 *  from one (via = that function's name, "" for a loop body). */
struct HotRange
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::string via;
};

/** Every hot range of the file: loop bodies plus the bodies of
 *  same-file functions transitively called from one. */
std::vector<HotRange> collectHotRanges(const TokenStream &ts,
                                       const TuView &tu);

/** Run the hot-path rules over @p ts (path-scoped). */
void runCostModelRules(const std::string &path,
                       const LexedFile &lexed, const TokenStream &ts,
                       const TuView &tu,
                       std::vector<Finding> &findings);

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_COSTMODEL_H
