#include "kernels/spmv_kernel.h"

#include <vector>

#include "spmv/spmv.h"
#include "spmv/trace_gen.h"

namespace gral
{

KernelRunInfo
SpmvKernel::run(const GraphView &graph)
{
    std::vector<double> src(graph.numVertices(), 1.0);
    std::vector<double> dst(graph.numVertices(), 0.0);
    spmvPull(graph, src, dst);

    KernelRunInfo info;
    info.iterations = 1;
    for (double value : dst)
        info.checksum += value;
    return info;
}

ProducerSet
SpmvKernel::buildProducers(const GraphView &graph,
                           const TraceOptions &options)
{
    return makePullProducers(graph, options);
}

} // namespace gral
