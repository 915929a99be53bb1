/**
 * @file
 * Figure 13: L1 and L2 TLB hit rates of GPU-MMU and Mosaic as the
 * number of concurrently-executing applications grows from 1 to 5.
 *
 * Paper result: Mosaic's miss rates drop below ~1% at both levels
 * thanks to coalescing; GPU-MMU's shared L2 TLB hit rate decays with
 * more applications (81% at 2 apps down to 62% at 5).
 */

#include "bench_common.h"

int
main()
{
    using namespace mosaic;
    using namespace mosaic::bench;

    const BenchProfile profile = BenchProfile::fromEnv();
    banner("Figure 13", "L1/L2 TLB hit rates, GPU-MMU vs Mosaic, 1-5 "
                        "concurrent applications", profile);

    TextTable t;
    t.header({"apps", "GPU-MMU L1", "GPU-MMU L2", "Mosaic L1",
              "Mosaic L2", "Mosaic coalesced frames"});
    for (unsigned n = 1; n <= 5; ++n) {
        std::vector<double> bl1, bl2, ml1, ml2;
        std::uint64_t coalesced = 0;
        for (const std::string &name : profile.homogeneousApps) {
            const Workload w = profile.shape(homogeneousWorkload(name, n));
            const SimResult rb =
                runSimulation(w, profile.shape(SimConfig::baseline()));
            const SimResult rm = runSimulation(
                w, profile.shape(SimConfig::mosaicDefault()));
            bl1.push_back(l1TlbHitRate(rb.metrics));
            bl2.push_back(l2TlbHitRate(rb.metrics));
            ml1.push_back(l1TlbHitRate(rm.metrics));
            ml2.push_back(l2TlbHitRate(rm.metrics));
            coalesced += rm.metrics.u64("mm.coalesceOps");
        }
        t.row({std::to_string(n), TextTable::pct(mean(bl1)),
               TextTable::pct(mean(bl2)), TextTable::pct(mean(ml1)),
               TextTable::pct(mean(ml2)), std::to_string(coalesced)});
    }
    t.print();
    std::printf("\npaper: Mosaic misses fall below ~1%%; GPU-MMU L2 hit "
                "rate decays from 81%% (2 apps) to 62%% (5 apps)\n");
    return 0;
}
