#include "kernels/kernel.h"

#include <stdexcept>

#include "kernels/bfs_kernel.h"
#include "kernels/cc_kernel.h"
#include "kernels/pagerank_kernel.h"
#include "kernels/spmv_kernel.h"

namespace gral
{

bool
Kernel::shouldRelabel(const GraphView &graph)
{
    switch (plan().relabeling) {
      case Relabeling::kRelabel:
        return true;
      case Relabeling::kNoRelabel:
        return false;
      case Relabeling::kAutoRelabel:
        return resolveAutoRelabel(graph);
    }
    return true;
}

bool
Kernel::resolveAutoRelabel(const GraphView &)
{
    return true;
}

KernelPtr
makeKernel(const std::string &name)
{
    if (name == "spmv")
        return std::make_unique<SpmvKernel>();
    if (name == "pagerank")
        return std::make_unique<PageRankKernel>();
    if (name == "bfs")
        return std::make_unique<BfsKernel>();
    if (name == "cc")
        return std::make_unique<CcKernel>();
    throw std::invalid_argument("makeKernel: unknown kernel \"" +
                                name + "\"");
}

std::vector<std::string>
kernelNames()
{
    return {"spmv", "pagerank", "bfs", "cc"};
}

} // namespace gral
