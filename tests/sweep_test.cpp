/** @file Tests of the parallel sweep runner: pool mechanics, ordering,
 *  stats, the determinism guarantee (serial == parallel), and a
 *  ThreadSanitizer-friendly concurrent-simulation stress test. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/sweep.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

Workload
smallWorkload(const std::string &app, unsigned copies)
{
    Workload w = scaledWorkload(homogeneousWorkload(app, copies), 0.05);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 200;
    return w;
}

SimConfig
fast(SimConfig c)
{
    c.gpu.sm.warpsPerSm = 8;
    return c.withIoCompression(16.0);
}

/** Equality of everything the benches consume. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].instructions, b.apps[i].instructions);
        EXPECT_EQ(a.apps[i].finishCycle, b.apps[i].finishCycle);
        EXPECT_DOUBLE_EQ(a.apps[i].ipc, b.apps[i].ipc);
        EXPECT_DOUBLE_EQ(a.apps[i].l1TlbHitRate, b.apps[i].l1TlbHitRate);
        EXPECT_EQ(a.apps[i].pageWalks, b.apps[i].pageWalks);
    }
}

TEST(SweepRunnerTest, ResultsArriveInSubmissionOrder)
{
    SweepRunner pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.submit([i] {
            // Early jobs sleep longest so completion order inverts
            // submission order; futures must still line up.
            std::this_thread::sleep_for(
                std::chrono::microseconds((64 - i) * 20));
            return i;
        }));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
}

TEST(SweepRunnerTest, WaitDrainsAllJobs)
{
    SweepRunner pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 20);
    EXPECT_EQ(pool.jobsSubmitted(), 20u);
    EXPECT_EQ(pool.jobsCompleted(), 20u);
}

TEST(SweepRunnerTest, DestructorDrainsPendingJobs)
{
    std::atomic<int> done{0};
    {
        SweepRunner pool(2);
        for (int i = 0; i < 16; ++i)
            pool.submit([&done] {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                ++done;
            });
    }
    EXPECT_EQ(done.load(), 16);
}

TEST(SweepRunnerTest, ExceptionsPropagateThroughFutures)
{
    SweepRunner pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("job failed"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(SweepRunnerTest, StatsRecordPerJobWallClockInSubmissionOrder)
{
    SweepRunner pool(2);
    pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
        "first");
    pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
        "second");
    const SweepStats stats = pool.stats();
    EXPECT_EQ(stats.threads, 2u);
    ASSERT_EQ(stats.jobs, 2u);
    ASSERT_EQ(stats.perJob.size(), 2u);
    EXPECT_EQ(stats.perJob[0].label, "first");
    EXPECT_EQ(stats.perJob[1].label, "second");
    EXPECT_GT(stats.perJob[0].wallSeconds, 0.0);
    EXPECT_GT(stats.perJob[1].wallSeconds, 0.0);
    EXPECT_GT(stats.totalWallSeconds, 0.0);
    EXPECT_NEAR(stats.sumJobSeconds,
                stats.perJob[0].wallSeconds + stats.perJob[1].wallSeconds,
                1e-12);
}

TEST(SweepRunnerTest, JobsFromEnvParsesAndFallsBack)
{
    ::setenv("MOSAIC_BENCH_JOBS", "5", 1);
    EXPECT_EQ(SweepRunner::jobsFromEnv(), 5u);
    ::setenv("MOSAIC_BENCH_JOBS", "not-a-number", 1);
    EXPECT_GE(SweepRunner::jobsFromEnv(), 1u);
    ::unsetenv("MOSAIC_BENCH_JOBS");
    EXPECT_GE(SweepRunner::jobsFromEnv(), 1u);
}

TEST(SweepRunnerTest, MapOrderedPreservesItemOrder)
{
    SweepRunner pool(4);
    const std::vector<int> items = {5, 3, 8, 1, 9, 2};
    const auto doubled =
        mapOrdered(pool, items, [](const int &x) { return x * 2; });
    ASSERT_EQ(doubled.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(doubled[i], items[i] * 2);
}

TEST(SweepRunnerTest, SweepJsonLineIsWellFormed)
{
    SweepRunner pool(2);
    pool.submit([] { return 1; }, "only-job");
    const std::string path = ::testing::TempDir() + "sweep_test.json";
    std::remove(path.c_str());
    appendSweepJson(pool, "sweep_test_bench", path);
    appendSweepJson(pool, "sweep_test_bench", path);  // appends

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_NE(line.find("\"bench\":\"sweep_test_bench\""),
                  std::string::npos);
        EXPECT_NE(line.find("\"label\":\"only-job\""), std::string::npos);
        EXPECT_NE(line.find("\"totalWallSeconds\":"), std::string::npos);
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, 2);
    std::remove(path.c_str());
}

/**
 * The determinism guarantee behind byte-identical bench tables: the
 * same (workload, config, seed) produces the same SimResult whether it
 * runs on the calling thread or inside a 4-thread sweep alongside other
 * simulations.
 */
TEST(SweepDeterminismTest, SerialAndParallelRunsAgree)
{
    const Workload w = smallWorkload("HISTO", 2);
    const SimConfig base = fast(SimConfig::baseline());
    const SimConfig mosaic = fast(SimConfig::mosaicDefault());

    const SimResult serial_base = runSimulation(w, base);
    const SimResult serial_mosaic = runSimulation(w, mosaic);

    SweepRunner pool(4);
    auto f_base1 = pool.submitSimulation(w, base);
    auto f_mosaic = pool.submitSimulation(w, mosaic);
    auto f_base2 = pool.submitSimulation(w, base);

    expectSameResult(serial_base, f_base1.get());
    expectSameResult(serial_mosaic, f_mosaic.get());
    expectSameResult(serial_base, f_base2.get());
}

/**
 * ThreadSanitizer-friendly stress: 8 simulations in flight at once
 * across different managers and seeds, each duplicated so the results
 * can be cross-checked pairwise. Any shared mutable state inside
 * runSimulation shows up here as a TSan report (CI runs this under
 * -fsanitize=thread) or as a result mismatch.
 */
TEST(SweepStressTest, EightConcurrentSimulationsAreIndependent)
{
    const char *names[] = {"HISTO", "CONS", "TRD", "SCAN"};
    std::vector<Workload> workloads;
    std::vector<SimConfig> configs;
    for (int i = 0; i < 8; ++i) {
        workloads.push_back(smallWorkload(names[i % 4], 1 + (i % 2)));
        SimConfig c = fast((i % 2) != 0 ? SimConfig::mosaicDefault()
                                        : SimConfig::baseline());
        c.seed = static_cast<std::uint64_t>(i + 1);
        configs.push_back(c);
    }

    SweepRunner pool(8);
    std::vector<std::future<SimResult>> first, second;
    for (int i = 0; i < 8; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        first.push_back(pool.submitSimulation(workloads[idx], configs[idx]));
        second.push_back(
            pool.submitSimulation(workloads[idx], configs[idx]));
    }
    for (int i = 0; i < 8; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        SCOPED_TRACE("simulation " + std::to_string(i));
        expectSameResult(first[idx].get(), second[idx].get());
    }
}

/** The aloneIpcs memo is shared across sweep jobs; hammer it. */
TEST(SweepStressTest, ConcurrentAloneIpcsAgree)
{
    const Workload w = smallWorkload("BP", 2);
    const SimConfig cfg = fast(SimConfig::baseline());

    SweepRunner pool(4);
    std::vector<std::future<std::vector<double>>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(pool.submit([w, cfg] { return aloneIpcs(w, cfg); }));
    const std::vector<double> reference = aloneIpcs(w, cfg);
    ASSERT_EQ(reference.size(), 2u);
    for (auto &f : futures) {
        const std::vector<double> got = f.get();
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_DOUBLE_EQ(got[i], reference[i]);
    }
}

}  // namespace
}  // namespace mosaic
