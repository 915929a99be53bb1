/** @file Cross-configuration properties: determinism and basic sanity
 *  hold for every manager kind and scheduler, via TEST_P sweeps. */

#include <gtest/gtest.h>

#include <tuple>

#include "runner/json_report.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

Workload
tiny(const std::string &app, unsigned copies)
{
    Workload w = scaledWorkload(homogeneousWorkload(app, copies), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 250;
    return w;
}

class ManagerSweepTest
    : public ::testing::TestWithParam<
          std::tuple<ManagerKind, WarpSchedPolicy, bool>>
{
  protected:
    SimConfig
    config() const
    {
        const auto [kind, sched, paging] = GetParam();
        SimConfig c;
        c.manager = kind;
        c.gpu.sm.scheduler = sched;
        c.gpu.sm.warpsPerSm = 8;
        c.demandPaging = paging;
        return c.withIoCompression(16.0);
    }
};

TEST_P(ManagerSweepTest, DeterministicAndComplete)
{
    const Workload w = tiny("SGEMM", 2);
    const SimResult a = runSimulation(w, config());
    const SimResult b = runSimulation(w, config());

    // Bit-for-bit deterministic.
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());

    // Every instruction executed on every configuration.
    for (const AppResult &app : a.apps) {
        EXPECT_EQ(app.instructions, 15u * 8u * 250u);
        EXPECT_GT(app.ipc, 0.0);
    }

    // Hit rates are valid fractions.
    EXPECT_GE(l1TlbHitRate(a.metrics), 0.0);
    EXPECT_LE(l1TlbHitRate(a.metrics), 1.0);

    // JSON serialization stays well-formed for every config.
    const std::string json = toJson(a);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ManagerSweepTest,
    ::testing::Combine(::testing::Values(ManagerKind::GpuMmu,
                                         ManagerKind::Mosaic,
                                         ManagerKind::LargeOnly),
                       ::testing::Values(WarpSchedPolicy::Gto,
                                         WarpSchedPolicy::RoundRobin),
                       ::testing::Bool()));

TEST(CrossConfigTest, ManagersAgreeOnWorkDoneDifferOnTiming)
{
    const Workload w = tiny("HISTO", 2);
    SimConfig base;
    base.gpu.sm.warpsPerSm = 8;
    SimConfig mosaic = base;
    mosaic.manager = ManagerKind::Mosaic;
    const SimResult rb = runSimulation(w, base.withIoCompression(16.0));
    const SimResult rm = runSimulation(w, mosaic.withIoCompression(16.0));
    EXPECT_EQ(rb.apps[0].instructions, rm.apps[0].instructions);
    EXPECT_NE(rb.totalCycles, rm.totalCycles);
}

}  // namespace
}  // namespace mosaic
