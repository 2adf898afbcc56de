/**
 * @file
 * Tests for the work-stealing pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/span.h"

namespace gral
{
namespace
{

TEST(WorkStealingPool, RejectsZeroThreads)
{
    EXPECT_THROW(WorkStealingPool{0}, std::invalid_argument);
}

TEST(WorkStealingPool, RunsEveryTaskExactlyOnce)
{
    WorkStealingPool pool(4);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> executed(n);
    PoolStats stats =
        pool.run(n, [&](std::size_t i) { executed[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(executed[i].load(), 1) << "task " << i;
    EXPECT_GE(stats.wallMs, 0.0);
}

TEST(WorkStealingPool, ZeroTasksCompletes)
{
    WorkStealingPool pool(2);
    PoolStats stats = pool.run(0, [](std::size_t) { FAIL(); });
    EXPECT_EQ(stats.idleFraction.size(), 2u);
}

TEST(WorkStealingPool, SingleThreadWorks)
{
    WorkStealingPool pool(1);
    std::atomic<int> count{0};
    pool.run(100, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 100);
}

TEST(WorkStealingPool, MoreThreadsThanTasks)
{
    WorkStealingPool pool(8);
    std::atomic<int> count{0};
    pool.run(3, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 3);
}

TEST(WorkStealingPool, IdleFractionsInRange)
{
    WorkStealingPool pool(4);
    PoolStats stats = pool.run(64, [](std::size_t i) {
        volatile double x = 0.0;
        for (std::size_t k = 0; k < 1000 * (i % 7 + 1); ++k)
            x = x + 1.0;
    });
    ASSERT_EQ(stats.idleFraction.size(), 4u);
    for (double fraction : stats.idleFraction) {
        EXPECT_GE(fraction, 0.0);
        EXPECT_LE(fraction, 1.0);
    }
    EXPECT_GE(stats.avgIdlePercent(), 0.0);
    EXPECT_LE(stats.avgIdlePercent(), 100.0);
}

TEST(WorkStealingPool, SkewedTasksGetStolen)
{
    // One huge task plus many small ones: with 4 workers somebody
    // must steal (the huge task blocks its owner's queue).
    WorkStealingPool pool(4);
    std::atomic<int> count{0};
    PoolStats stats = pool.run(256, [&](std::size_t i) {
        count++;
        if (i == 0) {
            volatile double x = 0.0;
            for (int k = 0; k < 2000000; ++k)
                x = x + 1.0;
        }
    });
    EXPECT_EQ(count.load(), 256);
    // Steal counter is advisory; on a single-core host steals can
    // legitimately be zero, so only check it is consistent.
    EXPECT_LE(stats.steals, 256u);
}

TEST(PoolStats, AvgIdleOfEmptyIsZero)
{
    PoolStats stats;
    EXPECT_DOUBLE_EQ(stats.avgIdlePercent(), 0.0);
    EXPECT_DOUBLE_EQ(stats.maxIdlePercent(), 0.0);
}

TEST(WorkStealingPool, PerThreadBreakdownSumsToTotals)
{
    WorkStealingPool pool(4);
    const std::size_t n = 500;
    PoolStats stats = pool.run(n, [](std::size_t i) {
        volatile double x = 0.0;
        for (std::size_t k = 0; k < 100 * (i % 5 + 1); ++k)
            x = x + 1.0;
    });

    ASSERT_EQ(stats.stealsPerThread.size(), 4u);
    ASSERT_EQ(stats.tasksPerThread.size(), 4u);
    std::uint64_t steal_sum = 0;
    std::uint64_t task_sum = 0;
    for (unsigned t = 0; t < 4; ++t) {
        steal_sum += stats.stealsPerThread[t];
        task_sum += stats.tasksPerThread[t];
    }
    EXPECT_EQ(steal_sum, stats.steals);
    EXPECT_EQ(task_sum, n);
    EXPECT_GE(stats.maxIdlePercent(), stats.avgIdlePercent());
}

TEST(WorkStealingPool, SpanBuffersAreReusedAcrossBatches)
{
    // Every batch starts fresh worker threads; each exited worker's
    // span buffer must pass to a later one instead of piling up.
    TraceRecorder &recorder = TraceRecorder::global();
    recorder.clear();
    const std::size_t before = recorder.threadBuffers();
    constexpr unsigned kThreads = 4;
    constexpr std::size_t kBatches = 200;
    constexpr std::size_t kTasks = 8;
    WorkStealingPool pool(kThreads);
    for (std::size_t batch = 0; batch < kBatches; ++batch) {
        pool.run(kTasks, [](std::size_t) {
            GRAL_SPAN("test/pool_batch_task");
        });
    }
    EXPECT_LE(recorder.threadBuffers(),
              std::max<std::size_t>(before, kThreads + 1));

    std::size_t begins = 0;
    std::size_t ends = 0;
    for (const SpanEvent &event : recorder.events()) {
        if (std::strcmp(event.name, "test/pool_batch_task") != 0)
            continue;
        begins += event.phase == 'B' ? 1 : 0;
        ends += event.phase == 'E' ? 1 : 0;
    }
    EXPECT_EQ(begins, kBatches * kTasks);
    EXPECT_EQ(ends, kBatches * kTasks);
    EXPECT_EQ(recorder.droppedEvents(), 0u);
    recorder.clear();
}

} // namespace
} // namespace gral
