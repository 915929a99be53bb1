/**
 * @file
 * Fragmentation stress: pre-fragments GPU physical memory with
 * immovable data, runs a two-application workload with continuous
 * allocation churn, and compares Mosaic's compaction variants (no CAC,
 * CAC, CAC-BC, Ideal CAC). Shows how CAC keeps large page frames
 * available -- and what its migrations cost.
 *
 * Usage: fragmentation_stress [fragmentation-index] [occupancy]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "runner/simulation.h"
#include "workload/workload.h"

int
main(int argc, char **argv)
{
    using namespace mosaic;

    const double frag = argc > 1 ? std::atof(argv[1]) : 0.95;
    const double occ = argc > 2 ? std::atof(argv[2]) : 0.25;

    Workload w = scaledWorkload(homogeneousWorkload("HISTO", 2), 0.25);
    for (AppParams &app : w.apps)
        app.instrPerWarp = 800;

    std::printf("Stress: fragmentation index %.0f%%, frame occupancy "
                "%.0f%%, workload %s with allocation churn\n\n",
                frag * 100, occ * 100, w.name.c_str());

    struct Variant
    {
        const char *name;
        bool enabled, bc, ideal;
    };
    const Variant variants[] = {
        {"no CAC", false, false, false},
        {"CAC", true, false, false},
        {"CAC-BC (in-DRAM copy)", true, true, false},
        {"Ideal CAC (free copy)", true, false, true},
    };

    TextTable t;
    t.header({"variant", "IPC", "coalesced", "splinters", "migrations",
              "frames freed", "emergency", "GPU stall cycles"});
    for (const Variant &v : variants) {
        SimConfig c = SimConfig::mosaicDefault().withIoCompression(16.0);
        c.gpu.sm.warpsPerSm = 16;
        // Restore the paper's memory-pressure ratio for the scaled
        // workload: ~8x the working set instead of a full 3GB.
        c.pageTablePoolBytes = 16ull << 20;
        c.dram.capacityBytes =
            std::max<std::uint64_t>(roundUp(w.workingSetBytes() * 8,
                                            kLargePageSize) +
                                        c.pageTablePoolBytes +
                                        (8ull << 20),
                                    64ull << 20);
        c.mosaic.cac.enabled = v.enabled;
        c.mosaic.cac.useBulkCopy = v.bc;
        c.mosaic.cac.ideal = v.ideal;
        c.fragmentationIndex = frag;
        c.fragmentationOccupancy = occ;
        c.churn.enabled = true;
        const SimResult r = runSimulation(w, c);
        t.row({v.name, TextTable::num(r.totalIpc(), 3),
               std::to_string(r.metrics.u64("mm.coalesceOps")),
               std::to_string(r.metrics.u64("mm.splinterOps")),
               std::to_string(r.metrics.u64("mm.migrations")),
               std::to_string(r.metrics.u64("mm.compactions")),
               std::to_string(r.metrics.u64("mm.emergencySplinters")),
               std::to_string(r.metrics.u64("gpu.stallCycles"))});
    }
    t.print();

    std::printf("\nCAC splinters fragmented frames and compacts their "
                "pages so CoCoA keeps finding free 2MB frames;\nCAC-BC "
                "does the copies in DRAM (RowClone/LISA) and Ideal CAC "
                "models free migration.\n");
    return 0;
}
