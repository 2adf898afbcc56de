#include "analyzer/include_graph.h"

#include <algorithm>
#include <functional>

namespace gral::analyzer
{

namespace
{

/** Directory part of a repo-relative path ("" when none). */
std::string
dirOf(std::string_view path)
{
    std::size_t slash = path.rfind('/');
    return slash == std::string_view::npos
               ? std::string()
               : std::string(path.substr(0, slash));
}

} // namespace

std::vector<IncludeDirective>
extractIncludes(const std::vector<std::string> &stripped_lines,
                const std::vector<std::string> &original_lines)
{
    std::vector<IncludeDirective> directives;
    for (std::size_t index = 0; index < stripped_lines.size() &&
                                index < original_lines.size();
         ++index) {
        const std::string &text = stripped_lines[index];
        std::size_t i = text.find_first_not_of(" \t");
        if (i == std::string::npos || text[i] != '#')
            continue;
        i = text.find_first_not_of(" \t", i + 1);
        if (i == std::string::npos ||
            text.compare(i, 7, "include") != 0)
            continue;
        std::size_t open = text.find('"', i + 7);
        if (open == std::string::npos)
            continue;
        std::size_t close = text.find('"', open + 1);
        if (close == std::string::npos ||
            close >= original_lines[index].size())
            continue;
        directives.push_back(
            {original_lines[index].substr(open + 1, close - open - 1),
             static_cast<int>(index + 1)});
    }
    return directives;
}

std::string
moduleOf(std::string_view path)
{
    std::size_t slash = path.find('/');
    if (slash == std::string_view::npos)
        return std::string();
    std::string top(path.substr(0, slash));
    if (top != "src")
        return top; // tools, bench, examples, tests
    std::size_t second = path.find('/', slash + 1);
    if (second == std::string_view::npos)
        return std::string();
    std::string module(path.substr(slash + 1, second - slash - 1));
    // The perf sublayer is its own DAG node: obs core must stay
    // syscall-free (it is the bottom telemetry leaf every module
    // links), while obs/perf sits above it and is granted only to
    // the modules that measure.
    if (module == "obs" &&
        path.substr(second + 1).find("perf/") == 0)
        return "obs/perf";
    // The storage sublayer is its own DAG node: graph core stays
    // format- and syscall-free, while graph/storage (mmap, .gralb,
    // varint codec) sits above it and below every GraphView consumer.
    if (module == "graph" &&
        path.substr(second + 1).find("storage/") == 0)
        return "graph/storage";
    return module;
}

const std::set<std::string> *
allowedIncludes(const std::string &module)
{
    // The layering DAG (DESIGN.md "Static analysis layer"). Each
    // module lists every module it may include. `common` is the
    // dependency-free bottom layer (assertions, annotation macros);
    // `obs` is the telemetry leaf above it that everyone may use.
    static const std::map<std::string, std::set<std::string>> kDag = {
        {"common", {"common"}},
        {"obs", {"obs", "common"}},
        // The perf sublayer may use obs core (metrics, spans) but
        // not vice versa: obs stays portable and syscall-free while
        // obs/perf wraps perf_event_open.
        {"obs/perf", {"obs/perf", "obs", "common"}},
        // The execution substrate (work-stealing pool) sits between
        // obs and graph so both the parallel graph builder and the
        // kernels' parallel SpMV can drive it.
        {"exec", {"exec", "common", "obs", "obs/perf"}},
        {"graph", {"graph", "exec", "common", "obs"}},
        // Storage sublayer: builds GraphViews over mmap'd .gralb
        // sections and the varint codec; graph core must not reach
        // up into it.
        {"graph/storage",
         {"graph/storage", "graph", "common", "obs"}},
        {"cachesim", {"cachesim", "graph", "common", "obs"}},
        {"reorder", {"reorder", "graph", "common", "obs"}},
        {"metrics",
         {"metrics", "cachesim", "graph", "common", "obs"}},
        {"kernels",
         {"kernels", "cachesim", "graph/storage", "graph", "exec",
          "common", "obs", "obs/perf"}},
        {"analysis",
         {"analysis", "kernels", "metrics", "reorder", "cachesim",
          "graph/storage", "graph", "exec", "common", "obs",
          "obs/perf"}},
    };
    auto it = kDag.find(module);
    return it == kDag.end() ? nullptr : &it->second;
}

IncludeGraph::IncludeGraph(
    const std::vector<std::string> &files,
    const std::vector<std::vector<IncludeDirective>> &includes)
{
    nodes_.insert(files.begin(), files.end());
    for (std::size_t f = 0; f < files.size(); ++f) {
        const std::string fromDir = dirOf(files[f]);
        for (const IncludeDirective &directive : includes[f]) {
            // Resolution order mirrors the build's include dirs.
            const std::string candidates[] = {
                "src/" + directive.target,
                directive.target,
                "tools/" + directive.target,
                fromDir.empty() ? directive.target
                                : fromDir + "/" + directive.target,
            };
            for (const std::string &candidate : candidates) {
                if (nodes_.count(candidate) != 0) {
                    edges_.push_back(
                        {files[f], candidate, directive.line});
                    adjacency_[files[f]].push_back(candidate);
                    break;
                }
            }
        }
    }
    for (auto &[node, targets] : adjacency_) {
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
    }
}

std::vector<std::vector<std::string>>
IncludeGraph::findCycles() const
{
    std::vector<std::vector<std::string>> cycles;
    enum class State : char
    {
        White,
        Grey,
        Black
    };
    std::map<std::string, State> state;
    for (const std::string &node : nodes_)
        state[node] = State::White;
    std::vector<std::string> stack;

    std::function<void(const std::string &)> visit =
        [&](const std::string &node) {
            state[node] = State::Grey;
            stack.push_back(node);
            auto it = adjacency_.find(node);
            if (it != adjacency_.end()) {
                for (const std::string &next : it->second) {
                    if (state[next] == State::White) {
                        visit(next);
                    } else if (state[next] == State::Grey) {
                        // Back edge: the cycle is next ... node next.
                        auto begin = std::find(stack.begin(),
                                               stack.end(), next);
                        std::vector<std::string> cycle(begin,
                                                       stack.end());
                        cycle.push_back(next);
                        cycles.push_back(std::move(cycle));
                    }
                }
            }
            stack.pop_back();
            state[node] = State::Black;
        };

    for (const std::string &node : nodes_)
        if (state[node] == State::White)
            visit(node);
    return cycles;
}

} // namespace gral::analyzer
