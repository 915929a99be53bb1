/**
 * @file
 * Checkpoint/restore differential round-trip tests (DESIGN.md §14).
 *
 * The contract under test: a run that checkpoints at cycle C and
 * continues in-process, and a fresh process that restores that file and
 * runs to the end, must produce byte-identical final metrics-snapshot
 * JSON. The matrix covers every manager kind on the default pair and
 * on the Trident {4K,64K,2M}+CoLT hierarchy. On top of the differential:
 *
 *  - save -> restore -> save must reproduce the checkpoint file byte
 *    for byte (a trigger at-or-before the resume cycle re-saves
 *    immediately at the restored quiesce point);
 *  - a two-checkpoint history must be container-independent: the second
 *    file is byte-identical whether the run reached it from the start
 *    or from the first checkpoint;
 *  - the invariant checker must find a clean system after restore;
 *  - a checkpoint at cycle 0 of a prefetching (no-demand-paging) run is
 *    a functional fast-forward seed: it captures the fully-prefetched
 *    system before the first compute cycle.
 *
 * Whole simulations, several per test: slow label.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/page_sizes.h"
#include "runner/json_report.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

/** Same pinned cell as golden_test.cpp: two-app het mix, full spine. */
Workload
pinnedWorkload()
{
    Workload w = scaledWorkload(heterogeneousWorkload(2, 42), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    return w;
}

SimConfig
pinnedConfig(SimConfig c)
{
    c.gpu.sm.warpsPerSm = 8;
    return c.withIoCompression(16.0);
}

PageSizeHierarchy
tridentSizes()
{
    PageSizeHierarchy sizes;
    EXPECT_TRUE(PageSizeHierarchy::parse("4K,64K,2M", sizes));
    return sizes;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "mosaic_" + name + ".ckpt";
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string
snapshot(const SimConfig &config)
{
    const SimResult result = runSimulation(pinnedWorkload(), config);
    return metricsToJson(result, managerKindName(config.manager));
}

/**
 * Mid-run trigger cycle for @p base: half the run length of the
 * unperturbed simulation. Memoized per label so each cell pays one
 * probe run.
 */
Cycles
midCycle(const SimConfig &base)
{
    static std::map<std::string, Cycles> memo;
    const std::string key = base.label;
    const auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    const SimResult probe = runSimulation(pinnedWorkload(), base);
    EXPECT_GT(probe.totalCycles, 0u);
    const Cycles mid = probe.totalCycles / 2;
    memo[key] = mid;
    return mid;
}

void
expectByteEqual(const std::string &a, const std::string &b,
                const std::string &what)
{
    if (a == b)
        return;
    std::size_t at = 0;
    while (at < a.size() && at < b.size() && a[at] == b[at])
        ++at;
    const std::size_t from = at < 80 ? 0 : at - 80;
    FAIL() << what << " diverges at byte " << at << "\n  A: ..."
           << a.substr(from, 160) << "\n  B: ..." << b.substr(from, 160);
}

/**
 * The differential: checkpoint-and-continue vs restore-and-finish must
 * agree byte for byte on the final snapshot.
 */
void
expectRoundTrip(const SimConfig &base, const std::string &name)
{
    const Cycles c = midCycle(base);
    const std::string path = tempPath(name);
    const std::string continued = snapshot(base.withCheckpointAt(c, path));
    const std::string restored = snapshot(base.withRestoreFrom(path));
    expectByteEqual(continued, restored, base.label + " round-trip");
    std::remove(path.c_str());
}

struct Cell
{
    const char *name;
    SimConfig config;
};

std::vector<Cell>
managerCells()
{
    return {
        {"mosaic", pinnedConfig(SimConfig::mosaicDefault())},
        {"gpummu", pinnedConfig(SimConfig::baseline())},
        {"largeonly", pinnedConfig(SimConfig::largeOnly())},
    };
}

TEST(CkptRoundTripTest, SerialDefaultPair)
{
    for (const Cell &cell : managerCells())
        expectRoundTrip(cell.config,
                        std::string("serial_") + cell.name);
}

TEST(CkptRoundTripTest, SerialTridentColt)
{
    for (const Cell &cell : managerCells())
        expectRoundTrip(cell.config.withSizeHierarchy(tridentSizes(),
                                                      /*colt=*/true),
                        std::string("serial_tri_") + cell.name);
}

/** save -> restore -> save reproduces the file byte for byte. */
TEST(CkptRoundTripTest, SaveRestoreSaveIsByteStable)
{
    const SimConfig base = pinnedConfig(SimConfig::mosaicDefault());
    const Cycles c = midCycle(base);
    const std::string first = tempPath("srs_first");
    const std::string second = tempPath("srs_second");
    snapshot(base.withCheckpointAt(c, first));
    // The trigger cycle is at-or-before the restored resume cycle, so
    // the restored run re-saves immediately at its quiesce point.
    snapshot(base.withRestoreFrom(first).withCheckpointAt(c, second));
    expectByteEqual(readBytes(first), readBytes(second),
                    "save->restore->save image");
    std::remove(first.c_str());
    std::remove(second.c_str());
}

/**
 * Two-checkpoint history is container-independent: the second file has
 * the same bytes whether the run reached its trigger from a fresh start
 * or from the first checkpoint.
 */
TEST(CkptRoundTripTest, CheckpointChainIsHistoryIndependent)
{
    const SimConfig base = pinnedConfig(SimConfig::mosaicDefault());
    const Cycles c1 = midCycle(base) / 2;
    const Cycles c2 = midCycle(base);
    const std::string f1 = tempPath("chain_f1");
    const std::string f2_direct = tempPath("chain_f2_direct");
    const std::string f2_resumed = tempPath("chain_f2_resumed");
    snapshot(
        base.withCheckpointAt(c1, f1).withCheckpointAt(c2, f2_direct));
    snapshot(base.withRestoreFrom(f1).withCheckpointAt(c2, f2_resumed));
    expectByteEqual(readBytes(f2_direct), readBytes(f2_resumed),
                    "second checkpoint in a chain");
    std::remove(f1.c_str());
    std::remove(f2_direct.c_str());
    std::remove(f2_resumed.c_str());
}

/**
 * The shadow checker must find a clean system immediately after restore
 * (abort-on-violation is the default, so completing the run proves it),
 * and checking must stay observation-only across a restore.
 */
TEST(CkptRoundTripTest, InvariantsHoldAfterRestore)
{
    const SimConfig base = pinnedConfig(SimConfig::mosaicDefault());
    const Cycles c = midCycle(base);
    const std::string path = tempPath("verify");
    const std::string continued = snapshot(base.withCheckpointAt(c, path));
    const std::string restored_checked =
        snapshot(base.withRestoreFrom(path).withInvariantChecks(64));
    expectByteEqual(continued, restored_checked,
                    "restored run with invariant checks");
    std::remove(path.c_str());
}

/**
 * Fast-forward seed: with demand paging off, a checkpoint at cycle 0
 * triggers at the first quiesce point -- after the upfront prefetch
 * transfers drain, before the first compute cycle -- so restoring skips
 * the entire functional warm-up.
 */
TEST(CkptRoundTripTest, PrefetchSeedFastForwards)
{
    const SimConfig base =
        pinnedConfig(SimConfig::mosaicDefault()).withoutPaging();
    const std::string path = tempPath("seed");
    const std::string continued = snapshot(base.withCheckpointAt(0, path));
    const std::string restored = snapshot(base.withRestoreFrom(path));
    expectByteEqual(continued, restored, "prefetch seed round-trip");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mosaic
