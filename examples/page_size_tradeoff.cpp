/**
 * @file
 * Demonstrates the paper's central trade-off (§3) on one application:
 *
 *  - with no paging overhead, 2MB pages beat 4KB pages because TLB reach
 *    covers the working set (Fig. 3);
 *  - with demand paging, 2MB pages collapse because each far-fault drags
 *    2MB across the I/O bus (Fig. 4);
 *  - Mosaic gets both: 4KB transfers and 2MB translations.
 *
 * Usage: page_size_tradeoff [app-name] [scale] [io-compression]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "runner/report.h"
#include "runner/simulation.h"
#include "workload/workload.h"

int
main(int argc, char **argv)
{
    using namespace mosaic;

    const std::string app = argc > 1 ? argv[1] : "HISTO";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.25;
    const double io_comp = argc > 3 ? std::atof(argv[3]) : 4.0;

    const Workload wl =
        scaledWorkload(homogeneousWorkload(app, 1), scale);

    struct Row
    {
        const char *name;
        SimConfig config;
    };
    const Row rows[] = {
        {"Ideal TLB (no paging)", SimConfig::idealTlb().withoutPaging()},
        {"4KB GPU-MMU (no paging)", SimConfig::baseline().withoutPaging()},
        {"2MB only (no paging)", SimConfig::largeOnly().withoutPaging()},
        {"4KB GPU-MMU (demand paging)",
         SimConfig::baseline().withIoCompression(io_comp)},
        {"2MB only (demand paging)",
         SimConfig::largeOnly().withIoCompression(io_comp)},
        {"Mosaic (demand paging)",
         SimConfig::mosaicDefault().withIoCompression(io_comp)},
    };

    std::printf("Application %s, scale %.2f, IO compression %.0fx\n\n",
                app.c_str(), scale, io_comp);

    TextTable t;
    t.header({"configuration", "cycles", "IPC", "vs ideal", "L1 TLB",
              "L2 TLB", "walks", "far-faults"});
    double ideal_ipc = 0.0;
    for (const Row &row : rows) {
        const SimResult r = runSimulation(wl, row.config);
        if (ideal_ipc == 0.0)
            ideal_ipc = r.totalIpc();
        t.row({row.name, std::to_string(r.totalCycles),
               TextTable::num(r.totalIpc(), 3),
               TextTable::pct(r.totalIpc() / ideal_ipc),
               TextTable::pct(l1TlbHitRate(r.metrics)),
               TextTable::pct(l2TlbHitRate(r.metrics)),
               std::to_string(r.metrics.u64("vm.walker.walks")),
               std::to_string(r.metrics.u64("iobus.paging.farFaults"))});
    }
    t.print();
    return 0;
}
