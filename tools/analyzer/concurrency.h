/**
 * @file
 * Concurrency rule pack: static lock-discipline and atomics audit.
 *
 * guarded-by — a field annotated `GRAL_GUARDED_BY(mutex)`
 * (common/annotations.h) accessed in a member function body outside a
 * scope that holds the named mutex. A scope holds the mutex when the
 * enclosing function carries `GRAL_REQUIRES(mutex)` (on its
 * definition or its header declaration, via the TU view), when an
 * enclosing brace scope declares a std::lock_guard / scoped_lock /
 * unique_lock / shared_lock over it, or after a manual `.lock()`
 * (until `.unlock()` or end of scope). Constructors and destructors
 * are exempt: no concurrent access can exist during them.
 *
 * atomic-seq-cst — a std::atomic member/local calling load, store,
 * exchange, fetch_<op>, or compare_exchange_<s> without an explicit
 * std::memory_order, or using ++/--, in the lock-free hot modules
 * (src/obs/metrics*, src/kernels/, src/cachesim/) whose designs document
 * relaxed/acq-rel intent. Method-call findings carry a FixIt that
 * inserts std::memory_order_relaxed (DESIGN.md documents why relaxed
 * is the right default for these counters).
 */

#ifndef GRAL_ANALYZER_CONCURRENCY_H
#define GRAL_ANALYZER_CONCURRENCY_H

#include <string>
#include <vector>

#include "analyzer/rules.h"

namespace gral::analyzer
{

/** Run guarded-by + atomic-seq-cst over @p ts (path-scoped). */
void runConcurrencyRules(const std::string &path,
                         const LexedFile &lexed,
                         const TokenStream &ts, const TuView &tu,
                         std::vector<Finding> &findings);

} // namespace gral::analyzer

#endif // GRAL_ANALYZER_CONCURRENCY_H
