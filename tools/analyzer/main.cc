/**
 * @file
 * gral_analyzer command-line entry point.
 *
 *   gral_analyzer [--root DIR] [--sarif FILE] [--baseline FILE]
 *                 [--no-baseline] [--write-baseline] [--jobs N]
 *                 [--fix] [--list-rules]
 *
 * Every run loads the whole tree and analyzes every file (see
 * analyzer.h for the pipeline). Exit codes: 0 clean (or only
 * baselined findings), 1 unbaselined findings, 2 usage/IO error.
 * Text diagnostics go to stdout as `path:line:col: [rule] message`;
 * `--sarif` additionally writes a SARIF 2.1.0 report (default file
 * gral_analysis.sarif). This is the `repo_analyze` ctest and the CI
 * `analyze` job (DESIGN.md "Static analysis layer"). `--fix` applies
 * the auto-fixes attached to fresh findings (std-endl, include-guard
 * names, missing memory_order arguments) to the working tree and
 * reports what changed; remaining unfixable findings still exit 1.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"

namespace
{

using namespace gral::analyzer;

int
usageError(const std::string &message)
{
    std::cerr << "gral_analyzer: " << message << "\n"
              << "usage: gral_analyzer [--root DIR] [--sarif [FILE]] "
                 "[--baseline FILE] [--no-baseline] "
                 "[--write-baseline] [--jobs N] [--fix] "
                 "[--list-rules]\n";
    return 2;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string sarifPath;
    bool wantSarif = false;
    std::string baselinePath;
    bool useBaseline = true;
    bool writeBaseline = false;
    bool listRules = false;
    bool applyFix = false;
    unsigned jobs = 0;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto takeValue = [&](std::string &slot) {
            if (i + 1 >= args.size())
                return false;
            slot = args[++i];
            return true;
        };
        if (arg == "--root") {
            std::string value;
            if (!takeValue(value))
                return usageError("--root needs a directory");
            root = value;
        } else if (arg == "--sarif") {
            wantSarif = true;
            // Optional value: next token unless it is a flag.
            if (i + 1 < args.size() &&
                args[i + 1].rfind("--", 0) != 0)
                sarifPath = args[++i];
        } else if (arg == "--baseline") {
            if (!takeValue(baselinePath))
                return usageError("--baseline needs a file");
        } else if (arg == "--no-baseline") {
            useBaseline = false;
        } else if (arg == "--write-baseline") {
            writeBaseline = true;
        } else if (arg == "--jobs") {
            std::string value;
            if (!takeValue(value))
                return usageError("--jobs needs a count");
            jobs = static_cast<unsigned>(std::stoul(value));
        } else if (arg == "--fix") {
            applyFix = true;
        } else if (arg == "--list-rules") {
            listRules = true;
        } else {
            return usageError("unknown argument " + arg);
        }
    }

    if (listRules) {
        for (const RuleInfo &rule : ruleCatalogue())
            std::cout << rule.id << "  " << rule.description << "\n";
        return 0;
    }

    if (baselinePath.empty())
        baselinePath = root + "/tools/analyzer/baseline.txt";
    if (sarifPath.empty())
        sarifPath = "gral_analysis.sarif";

    auto start = std::chrono::steady_clock::now();
    SourceTree tree = loadTree(root);
    if (tree.empty())
        return usageError("no analyzable files under " + root);

    Baseline baseline;
    if (useBaseline && !writeBaseline)
        baseline = Baseline::parse(readFile(baselinePath));

    AnalysisResult analysis =
        analyzeTree(tree, std::move(baseline), jobs);

    if (writeBaseline) {
        std::vector<std::string> keys;
        for (const SarifResult &result : analysis.results)
            keys.push_back(result.fingerprint);
        std::ofstream out(baselinePath, std::ios::binary);
        if (!out)
            return usageError("cannot write " + baselinePath);
        out << Baseline::render(keys);
        std::cout << "gral_analyzer: wrote " << keys.size()
                  << " baseline entr"
                  << (keys.size() == 1 ? "y" : "ies") << " to "
                  << baselinePath << "\n";
        return 0;
    }

    if (applyFix) {
        std::vector<std::string> changed = applyFixes(tree, analysis);
        for (const std::string &path : changed) {
            for (const SourceFile &file : tree) {
                if (file.path != path)
                    continue;
                std::ofstream out(root + "/" + path,
                                  std::ios::binary);
                if (!out)
                    return usageError("cannot write " + path);
                out << file.content;
            }
            std::cout << "gral_analyzer: fixed " << path << "\n";
        }
    }

    std::size_t fresh = 0;
    std::size_t fixable = 0;
    std::size_t known = 0;
    for (const SarifResult &result : analysis.results) {
        if (result.baselined) {
            ++known;
            continue;
        }
        const Finding &finding = result.finding;
        if (applyFix && !finding.fixits.empty()) {
            ++fixable; // applied above; not an error any more
            continue;
        }
        ++fresh;
        std::cout << finding.path << ":" << finding.line << ":"
                  << finding.column << ": [" << finding.rule << "] "
                  << finding.message << "\n";
    }

    if (wantSarif) {
        std::ofstream out(sarifPath, std::ios::binary);
        if (!out)
            return usageError("cannot write " + sarifPath);
        out << writeSarif(analysis.results);
    }

    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::cout << "gral_analyzer: " << analysis.filesScanned
              << " files scanned, " << fresh << " finding(s)";
    if (fixable != 0)
        std::cout << " (" << fixable << " auto-fixed)";
    if (known != 0)
        std::cout << " (+" << known << " baselined)";
    std::cout << " in " << elapsed << " ms\n";
    return fresh == 0 ? 0 : 1;
}
