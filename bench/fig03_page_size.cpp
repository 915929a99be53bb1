/**
 * @file
 * Figure 3: performance of a GPU with no demand-paging overhead, using
 * 4KB base pages (GPU-MMU) and 2MB large pages, normalized to an ideal
 * TLB where every translation hits in the L1 TLB.
 *
 * Paper result: 4KB loses 48.1% on average; 2MB comes within ~2% of the
 * ideal TLB.
 */

#include "bench_common.h"

int
main()
{
    using namespace mosaic;
    using namespace mosaic::bench;

    const BenchProfile profile = BenchProfile::fromEnv();
    banner("Figure 3", "translation overhead of 4KB vs 2MB pages "
                       "(no demand-paging overhead, normalized to ideal "
                       "TLB)", profile);

    TextTable t;
    t.header({"app", "ideal IPC", "4KB/ideal", "2MB/ideal", "4KB walks"});

    std::vector<double> r4k, r2m;
    for (const std::string &name : profile.homogeneousApps) {
        const Workload w = profile.shape(homogeneousWorkload(name, 1));
        const SimConfig ideal =
            profile.shape(SimConfig::idealTlb().withoutPaging());
        const SimConfig base =
            profile.shape(SimConfig::baseline().withoutPaging());
        const SimConfig large =
            profile.shape(SimConfig::largeOnly().withoutPaging());

        const SimResult ri = runSimulation(w, ideal);
        const SimResult rb = runSimulation(w, base);
        const SimResult rl = runSimulation(w, large);

        const double n4 = safeRatio(rb.totalIpc(), ri.totalIpc());
        const double n2 = safeRatio(rl.totalIpc(), ri.totalIpc());
        r4k.push_back(n4);
        r2m.push_back(n2);
        t.row({name, TextTable::num(ri.totalIpc(), 3), TextTable::pct(n4),
               TextTable::pct(n2),
               std::to_string(rb.metrics.u64("vm.walker.walks"))});
    }
    t.row({"MEAN", "", TextTable::pct(mean(r4k)), TextTable::pct(mean(r2m)),
           ""});
    t.print();

    std::printf("\npaper: 4KB mean ~51.9%% of ideal (48.1%% loss); "
                "2MB within ~2%% of ideal\n");
    std::printf("measured: 4KB mean %s of ideal; 2MB mean %s of ideal\n",
                TextTable::pct(mean(r4k)).c_str(),
                TextTable::pct(mean(r2m)).c_str());
    return 0;
}
