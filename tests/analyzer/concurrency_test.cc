// Concurrency rule-pack tests: GRAL_GUARDED_BY enforcement,
// GRAL_REQUIRES contracts, the seq_cst atomics audit, and the --fix
// round-trip (apply fixits, re-analyze, expect clean).

#include <gtest/gtest.h>

#include <algorithm>

#include "analyzer/analyzer.h"
#include "analyzer/lexer.h"
#include "analyzer/rules.h"

namespace gral::analyzer
{
namespace
{

std::vector<Finding>
runOn(const std::string &path, const std::string &text)
{
    std::vector<Finding> findings;
    runFileRules(path, lexCpp(text), findings);
    return findings;
}

std::vector<Finding>
ruleOnly(const std::vector<Finding> &findings, std::string_view rule)
{
    std::vector<Finding> matched;
    for (const Finding &finding : findings)
        if (finding.rule == rule)
            matched.push_back(finding);
    return matched;
}

// ------------------------------------------------------ guarded-by

const char *const kGuardedClass = R"(
class Series
{
  public:
    void offer(double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back(v);
    }
    void clearUnsafe() { samples_.clear(); }
    std::size_t
    sizeLocked() GRAL_REQUIRES(mutex_)
    {
        return samples_.size();
    }

  private:
    std::mutex mutex_;
    std::vector<double> samples_ GRAL_GUARDED_BY(mutex_);
};
)";

TEST(ConcurrencyTest, UnguardedAccessIsFlagged)
{
    std::vector<Finding> findings = ruleOnly(
        runOn("src/obs/series.h", kGuardedClass), "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
    // Only clearUnsafe touches samples_ without mutex_ held.
    EXPECT_EQ(findings[0].line, 10);
    EXPECT_NE(findings[0].message.find("samples_"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("mutex_"), std::string::npos);
}

TEST(ConcurrencyTest, RequiresContractSatisfiesGuard)
{
    // sizeLocked() carries GRAL_REQUIRES(mutex_), so its samples_
    // access is clean — asserted by the single finding above.
    std::vector<Finding> findings = ruleOnly(
        runOn("src/obs/series.h", kGuardedClass), "guarded-by");
    for (const Finding &finding : findings)
        EXPECT_NE(finding.line, 14);
}

TEST(ConcurrencyTest, ManualLockUnlockTracksHeldSet)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/obs/series.h", R"(
class Series
{
    void f()
    {
        mutex_.lock();
        samples_ = 1;
        mutex_.unlock();
        samples_ = 2;
    }
    std::mutex mutex_;
    int samples_ GRAL_GUARDED_BY(mutex_);
};
)"),
                 "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 9); // only the post-unlock write
}

TEST(ConcurrencyTest, ScopedLockReleasesAtBraceExit)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/obs/series.h", R"(
class Series
{
    void f()
    {
        {
            std::scoped_lock lock(mutex_);
            samples_ = 1;
        }
        samples_ = 2;
    }
    std::mutex mutex_;
    int samples_ GRAL_GUARDED_BY(mutex_);
};
)"),
                 "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 10);
}

TEST(ConcurrencyTest, DeferLockDoesNotCount)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/obs/series.h", R"(
class Series
{
    void f()
    {
        std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
        samples_ = 1;
    }
    std::mutex mutex_;
    int samples_ GRAL_GUARDED_BY(mutex_);
};
)"),
                 "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
}

TEST(ConcurrencyTest, ConstructorsAreExempt)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/obs/series.h", R"(
class Series
{
    Series() { samples_ = 0; }
    ~Series() { samples_ = 0; }
    std::mutex mutex_;
    int samples_ GRAL_GUARDED_BY(mutex_);
};
)"),
                 "guarded-by");
    EXPECT_TRUE(findings.empty());
}

TEST(ConcurrencyTest, WrongMutexDoesNotSatisfyGuard)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/obs/series.h", R"(
class Series
{
    void f()
    {
        std::lock_guard<std::mutex> lock(other_);
        samples_ = 1;
    }
    std::mutex mutex_;
    std::mutex other_;
    int samples_ GRAL_GUARDED_BY(mutex_);
};
)"),
                 "guarded-by");
    ASSERT_EQ(findings.size(), 1u);
}

TEST(ConcurrencyTest, GuardedByOnlyAppliesUnderSrc)
{
    std::string text = R"(
class Series
{
    void f() { samples_ = 1; }
    std::mutex mutex_;
    int samples_ GRAL_GUARDED_BY(mutex_);
};
)";
    EXPECT_EQ(
        ruleOnly(runOn("src/obs/series.h", text), "guarded-by")
            .size(),
        1u);
    EXPECT_TRUE(
        ruleOnly(runOn("tools/analyzer/series.h", text), "guarded-by")
            .empty());
}

TEST(ConcurrencyTest, SuppressionSilencesGuardedBy)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/obs/series.h", R"(
class Series
{
    void f()
    {
        // gral-analyzer: off-next-line(guarded-by)
        samples_ = 1;
    }
    std::mutex mutex_;
    int samples_ GRAL_GUARDED_BY(mutex_);
};
)"),
                 "guarded-by");
    EXPECT_TRUE(findings.empty());
}

// -------------------------------------------------- atomic-seq-cst

TEST(ConcurrencyTest, DefaultedSeqCstLoadStoreFlagged)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/kernels/pool.cc", R"(
class Pool
{
    void f()
    {
        counter_.store(1);
        auto v = counter_.load();
        counter_.fetch_add(2, std::memory_order_relaxed);
    }
    std::atomic<int> counter_;
};
)"),
                 "atomic-seq-cst");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].line, 6);
    EXPECT_EQ(findings[1].line, 7);
    // Both carry auto-fixes inserting an explicit memory order.
    for (const Finding &finding : findings) {
        ASSERT_EQ(finding.fixits.size(), 1u);
        EXPECT_NE(finding.fixits[0].replacement.find("memory_order"),
                  std::string::npos);
    }
}

TEST(ConcurrencyTest, OperatorRmwOnAtomicFlagged)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/cachesim/sim.cc", R"(
class Sim
{
    void f() { ++hits_; misses_ += 2; }
    std::atomic<std::uint64_t> hits_;
    std::atomic<std::uint64_t> misses_;
};
)"),
                 "atomic-seq-cst");
    ASSERT_EQ(findings.size(), 2u);
    // Operator forms have no single-token fix; no fixits attached.
    for (const Finding &finding : findings)
        EXPECT_TRUE(finding.fixits.empty());
}

TEST(ConcurrencyTest, AtomicAuditOnlyInHotModules)
{
    std::string text = R"(
class C
{
    void f() { counter_.store(1); }
    std::atomic<int> counter_;
};
)";
    EXPECT_EQ(ruleOnly(runOn("src/obs/metrics.cc", text),
                       "atomic-seq-cst")
                  .size(),
              1u);
    // src/graph is not a hot module: defaulted seq_cst accepted.
    EXPECT_TRUE(
        ruleOnly(runOn("src/graph/csr.cc", text), "atomic-seq-cst")
            .empty());
}

TEST(ConcurrencyTest, LocalAtomicVariablesAudited)
{
    std::vector<Finding> findings =
        ruleOnly(runOn("src/kernels/pool.cc", R"(
void
f()
{
    std::atomic<int> next{0};
    next.store(5);
}
)"),
                 "atomic-seq-cst");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 6);
}

// --------------------------------- cross-file TU view + fix cycle

TEST(ConcurrencyTest, HeaderAnnotationCheckedInSourceFile)
{
    SourceTree tree = {
        {"src/obs/reg.h", R"(#ifndef GRAL_OBS_REG_H
#define GRAL_OBS_REG_H
class Registry
{
    void bump();
    std::mutex mutex_;
    int count_ GRAL_GUARDED_BY(mutex_);
};
#endif // GRAL_OBS_REG_H
)"},
        {"src/obs/reg.cc", R"(#include "obs/reg.h"
void
Registry::bump()
{
    count_ += 1;
}
)"},
    };
    AnalysisResult analysis = analyzeTree(tree, Baseline());
    bool found = false;
    for (const SarifResult &result : analysis.results)
        if (result.finding.rule == "guarded-by" &&
            result.finding.path == "src/obs/reg.cc" &&
            result.finding.line == 5)
            found = true;
    EXPECT_TRUE(found);
}

TEST(ConcurrencyTest, FixRoundTripLeavesZeroAtomicFindings)
{
    SourceTree tree = {{"src/kernels/pool.cc", R"(
class Pool
{
    void f()
    {
        counter_.store(1);
        auto v = counter_.load();
        counter_.exchange(3);
    }
    std::atomic<int> counter_;
};
)"}};
    AnalysisResult first = analyzeTree(tree, Baseline());
    std::size_t atomics = 0;
    for (const SarifResult &result : first.results)
        atomics += result.finding.rule == "atomic-seq-cst";
    ASSERT_EQ(atomics, 3u);

    std::vector<std::string> changed = applyFixes(tree, first);
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0], "src/kernels/pool.cc");
    // The edit inserted explicit memory orders.
    EXPECT_NE(tree[0].content.find("counter_.store(1, "
                                   "std::memory_order_relaxed)"),
              std::string::npos);

    AnalysisResult second = analyzeTree(tree, Baseline());
    for (const SarifResult &result : second.results)
        EXPECT_NE(result.finding.rule, "atomic-seq-cst")
            << result.finding.line << ": " << result.finding.message;
}

} // namespace
} // namespace gral::analyzer
