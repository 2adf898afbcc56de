/**
 * @file
 * Structural validator for cache geometry.
 *
 * The cachesim half of the validator family (graph-side validators
 * and ValidationError itself live in graph/validate.h; both moved out
 * of common/validate.h so `common` no longer reaches up the layering
 * DAG — see DESIGN.md "Static analysis layer").
 */

#ifndef GRAL_CACHESIM_VALIDATE_H
#define GRAL_CACHESIM_VALIDATE_H

#include "cachesim/cache.h"
#include "graph/validate.h"

namespace gral
{

/**
 * Validate cache geometry the way the Cache constructor needs it:
 * power-of-two line size and set count, nonzero ways, RRPV width in
 * [1, 8], nonzero BRRIP epsilon when a RRIP policy is selected.
 *
 * @throws ValidationError (graph/validate.h) on the first violation.
 */
void validateCacheConfig(const CacheConfig &config);

} // namespace gral

#endif // GRAL_CACHESIM_VALIDATE_H
