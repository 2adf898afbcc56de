/**
 * @file
 * Source-level instrumentation of SpMV: memory-access trace generation.
 *
 * The paper instruments Algorithm 1 "at source code level to call the
 * simulator for every load/store" (Section V-B). Here each simulated
 * thread is a resumable AccessProducer that emits MemoryAccess
 * records over a synthetic address space on demand; the
 * InterleavingScheduler + Cache replay them with O(chunk) resident
 * memory. Materialized std::vector<ThreadTrace> generators remain as
 * thin drains of the same producers (bit-identical output) for tests
 * and small-trace debugging.
 *
 * Every producer walks raw neighbour spans: a compressed view fails a
 * GRAL_CHECK (decode it with decodeGraph first).
 *
 * Address-space model (element sizes per paper Section II-A):
 *  - offsets array: 8-byte elements, sequential accesses,
 *  - edges array:   4-byte elements, sequential, streamed once,
 *  - vertex data:   8-byte elements, random accesses (the RA target).
 */

#ifndef GRAL_SPMV_TRACE_GEN_H
#define GRAL_SPMV_TRACE_GEN_H

#include <vector>

#include "cachesim/access_stream.h"
#include "cachesim/address_map.h"
#include "cachesim/trace.h"
#include "graph/degree.h"
#include "graph/view.h"

namespace gral
{

/**
 * Streaming *pull* SpMV instrumentation (Algorithm 1): one resumable
 * producer per simulated thread. Per destination vertex v, sequential
 * offsets/edges loads, a random load of dataOld[u] for every
 * in-neighbour u (tagged with u for degree binning), and a sequential
 * store to dataNew[v]. Threads own edge-balanced contiguous
 * destination ranges. @p graph must outlive the producers.
 */
ProducerSet makePullProducers(const GraphView &graph,
                              const TraceOptions &options = {});

/**
 * Streaming *push* SpMV instrumentation: per source vertex v, a
 * sequential load of dataOld[v] and a random read-modify-write of
 * dataNew[u] for every out-neighbour u (tagged with u). @p graph must
 * outlive the producers.
 */
ProducerSet makePushProducers(const GraphView &graph,
                              const TraceOptions &options = {});

/**
 * Streaming *read-sum* instrumentation for Table VI: identical read
 * operation over CSC (In) or CSR (Out) plus the sequential result
 * store, isolating the effect of the format. @p graph must outlive
 * the producers.
 */
ProducerSet makeReadSumProducers(const GraphView &graph,
                                 Direction direction,
                                 const TraceOptions &options = {});

/** Materialized pull trace: makePullProducers() drained to vectors. */
std::vector<ThreadTrace> generatePullTrace(
    const GraphView &graph, const TraceOptions &options = {});

/** Materialized push trace: makePushProducers() drained to vectors. */
std::vector<ThreadTrace> generatePushTrace(
    const GraphView &graph, const TraceOptions &options = {});

/** Materialized read-sum trace: makeReadSumProducers() drained. */
std::vector<ThreadTrace> generateReadSumTrace(
    const GraphView &graph, Direction direction,
    const TraceOptions &options = {});

/** Total accesses across all threads of a materialized trace. */
std::size_t traceAccessCount(const std::vector<ThreadTrace> &traces);

} // namespace gral

#endif // GRAL_SPMV_TRACE_GEN_H
