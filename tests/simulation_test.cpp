/** @file Tests of the top-level runner: assembly, partitioning, config
 *  presets, prefetch vs demand, churn, and result plumbing. */

#include <gtest/gtest.h>

#include "runner/json_report.h"
#include "runner/report.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

Workload
smallWorkload(const std::string &app, unsigned copies)
{
    Workload w = scaledWorkload(homogeneousWorkload(app, copies), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    return w;
}

SimConfig
fast(SimConfig c)
{
    c.gpu.sm.warpsPerSm = 8;
    return c.withIoCompression(16.0);
}

TEST(SimulationTest, PresetLabelsAndManagers)
{
    EXPECT_EQ(SimConfig::baseline().manager, ManagerKind::GpuMmu);
    EXPECT_EQ(SimConfig::mosaicDefault().manager, ManagerKind::Mosaic);
    EXPECT_EQ(SimConfig::largeOnly().manager, ManagerKind::LargeOnly);
    EXPECT_TRUE(SimConfig::idealTlb().translation.idealTlb);
    EXPECT_FALSE(SimConfig::baseline().withoutPaging().demandPaging);
    EXPECT_TRUE(SimConfig::baseline().withoutPaging(true).chargePrefetchBus);
}

TEST(SimulationTest, IoCompressionScalesBothConstants)
{
    const SimConfig base = SimConfig::baseline();
    const SimConfig fastio = base.withIoCompression(4.0);
    EXPECT_DOUBLE_EQ(fastio.pcie.bytesPerCycle,
                     base.pcie.bytesPerCycle * 4.0);
    EXPECT_EQ(fastio.pcie.fixedOverheadCycles,
              base.pcie.fixedOverheadCycles / 4);
}

TEST(SimulationTest, EveryAppGetsItsOwnSmPartition)
{
    const Workload w = smallWorkload("SCP", 3);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    ASSERT_EQ(r.apps.size(), 3u);
    unsigned total = 0;
    for (const AppResult &app : r.apps) {
        EXPECT_EQ(app.smCount, 10u);
        total += app.smCount;
        EXPECT_GT(app.instructions, 0u);
        EXPECT_GT(app.ipc, 0.0);
    }
    EXPECT_EQ(total, 30u);
}

TEST(SimulationTest, InstructionCountMatchesWarpBudget)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    // 30 SMs x 8 warps x 300 instructions.
    EXPECT_EQ(r.apps[0].instructions, 30u * 8u * 300u);
}

TEST(SimulationTest, PrefetchModeHasNoFarFaults)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimResult r = runSimulation(
        w, fast(SimConfig::baseline().withoutPaging()));
    EXPECT_EQ(r.metrics.u64("iobus.paging.farFaults"), 0u);
    EXPECT_GT(r.apps[0].instructions, 0u);
}

TEST(SimulationTest, DemandModeTransfersTouchedBytes)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    const std::uint64_t faults = r.metrics.u64("iobus.paging.farFaults");
    EXPECT_GT(faults, 0u);
    EXPECT_EQ(r.metrics.u64("iobus.paging.bytesTransferred"),
              faults * kBasePageSize);
}

TEST(SimulationTest, ChurnProducesAllocationActivity)
{
    const Workload w = smallWorkload("HISTO", 2);
    SimConfig cfg = fast(SimConfig::mosaicDefault());
    cfg.churn.enabled = true;
    cfg.churn.periodCycles = 5000;
    const SimResult churned = runSimulation(w, cfg);
    SimConfig quiet = cfg;
    quiet.churn.enabled = false;
    const SimResult steady = runSimulation(w, quiet);
    EXPECT_GT(churned.metrics.u64("mm.pagesReleased"),
              steady.metrics.u64("mm.pagesReleased"));
    EXPECT_GT(churned.metrics.u64("mm.regionsReserved"),
              steady.metrics.u64("mm.regionsReserved"));
}

/**
 * Page and Frame channel interleaves send a request to a DRAM channel
 * other than its L2 bank's congruent one; with churn and pre-
 * fragmentation on top, the whole system must still retire every
 * instruction and repeat byte for byte.
 */
TEST(SimulationTest, NonDefaultInterleavesUnderChurnAreDeterministic)
{
    Workload w = scaledWorkload(heterogeneousWorkload(2, 42), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    for (const ChannelInterleave mode :
         {ChannelInterleave::Page, ChannelInterleave::Frame}) {
        SimConfig c = fast(SimConfig::mosaicDefault());
        c.dram.channelInterleave = mode;
        c.churn.enabled = true;
        c.fragmentationIndex = 0.5;
        c.fragmentationOccupancy = 0.3;
        const SimResult a = runSimulation(w, c);
        const SimResult b = runSimulation(w, c);
        EXPECT_EQ(metricsToJson(a, "mosaic"), metricsToJson(b, "mosaic"));
        std::uint64_t want = 0;
        for (std::size_t i = 0; i < w.apps.size(); ++i)
            want += std::uint64_t(a.apps[i].smCount) *
                    c.gpu.sm.warpsPerSm * w.apps[i].instrPerWarp;
        EXPECT_EQ(a.metrics.u64("gpu.sm.instructions"), want);
    }
}

/** The sharded engine is gone; asking for it is a named usage error. */
TEST(SimulationDeathTest, NonZeroEngineShardsIsFatal)
{
    SimConfig c = fast(SimConfig::mosaicDefault());
    c.engineShards = 2;
    EXPECT_EXIT(runSimulation(smallWorkload("SCP", 1), c),
                testing::ExitedWithCode(1),
                "engineShards = 2: the sharded engine was removed");
}

TEST(SimulationTest, ResultCarriesSubsystemStats)
{
    const Workload w = smallWorkload("HISTO", 1);
    const SimResult r = runSimulation(w, fast(SimConfig::baseline()));
    EXPECT_GT(r.totalCycles, 0u);
    const MetricsSnapshot &m = r.metrics;
    EXPECT_GT(m.u64("vm.walker.walks"), 0u);
    EXPECT_GT(m.real("vm.walker.latency.mean"), 0.0);
    EXPECT_GT(m.u64("sim.neededBytes"), 0u);
    EXPECT_GT(m.u64("mm.peakAllocatedBytes"), 0u);
    EXPECT_GT(m.u64("dram.rowHits") + m.u64("dram.rowMisses"), 0u);
    EXPECT_GE(l1CacheHitRate(m), 0.0);
    EXPECT_LE(l1CacheHitRate(m), 1.0);
}

TEST(SimulationTest, SeedChangesFaultTiming)
{
    const Workload w = smallWorkload("BFS", 1);
    SimConfig a = fast(SimConfig::baseline());
    SimConfig b = a;
    b.seed = 999;
    const SimResult ra = runSimulation(w, a);
    const SimResult rb = runSimulation(w, b);
    // Different seeds give different access streams; cycle counts differ.
    EXPECT_NE(ra.totalCycles, rb.totalCycles);
}

TEST(SimulationTest, ReportPrintingDoesNotCrash)
{
    const Workload w = smallWorkload("SCP", 1);
    const SimConfig cfg = fast(SimConfig::mosaicDefault());
    const SimResult r = runSimulation(w, cfg);
    std::FILE *sink = std::fopen("/dev/null", "w");
    ASSERT_NE(sink, nullptr);
    printConfigBanner(cfg, sink);
    printSimResult(r, sink);
    std::fclose(sink);
}

TEST(SimulationTest, RoundRobinSchedulerRunsToCompletion)
{
    const Workload w = smallWorkload("SCP", 1);
    SimConfig cfg = fast(SimConfig::baseline());
    cfg.gpu.sm.scheduler = WarpSchedPolicy::RoundRobin;
    const SimResult r = runSimulation(w, cfg);
    EXPECT_EQ(r.apps[0].instructions, 30u * 8u * 300u);
}

TEST(SimulationTest, PageWalkCacheReducesWalkLatency)
{
    const Workload w = smallWorkload("HISTO", 1);
    SimConfig base = fast(SimConfig::baseline());
    SimConfig pwc = base;
    pwc.walker.usePageWalkCache = true;
    const SimResult r_base = runSimulation(w, base);
    const SimResult r_pwc = runSimulation(w, pwc);
    EXPECT_LT(r_pwc.metrics.real("vm.walker.latency.mean"),
              r_base.metrics.real("vm.walker.latency.mean"));
}

}  // namespace
}  // namespace mosaic
