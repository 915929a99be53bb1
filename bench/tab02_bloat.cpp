/**
 * @file
 * Table 2: memory bloat of Mosaic under the 100% fragmentation-index
 * stress, as a function of pre-fragmented frame occupancy, relative to
 * a GPU-MMU manager that uses only 4KB pages.
 *
 * Paper result: CAC keeps bloat between 10.66% (1% occupancy) and 2.22%
 * (75% occupancy); bloat is negligible below 100% fragmentation.
 */

#include "bench_common.h"

int
main()
{
    using namespace mosaic;
    using namespace mosaic::bench;

    const BenchProfile profile = BenchProfile::fromEnv();
    banner("Table 2", "Mosaic memory bloat vs 4KB-only GPU-MMU at 100% "
                      "fragmentation index", profile);

    // The stress sweep is the most expensive bench; the default profile
    // samples three applications (full profile: the whole catalog).
    std::vector<std::string> apps = profile.homogeneousApps;
    if (!profile.full)
        apps = {"HISTO", "CONS", "TRD"};
    std::vector<Workload> workloads;
    for (const std::string &name : apps)
        workloads.push_back(profile.shape(homogeneousWorkload(name, 2)));

    // Memory bloat, paper semantics: physical pages a 4KB-only manager
    // would never hold. Under Mosaic those are the holes locked inside
    // coalesced frames -- pages freed by deallocation that cannot back
    // any other virtual address while the frame stays coalesced. CAC's
    // splinter+compact is what keeps this number small.
    TextTable t;
    t.header({"occupancy", "peak holes (MB)", "useful pages (MB)",
              "memory bloat"});
    for (const double occ : {0.01, 0.10, 0.25, 0.35, 0.50, 0.75}) {
        std::uint64_t holes = 0, useful = 0;
        for (const Workload &w : workloads) {
            SimConfig mosaic = withTightMemory(
                profile.shape(SimConfig::mosaicDefault()), w);
            mosaic.fragmentationIndex = 1.0;
            mosaic.fragmentationOccupancy = occ;
            mosaic.churn.enabled = true;
            const SimResult rm = runSimulation(w, mosaic);
            const std::uint64_t rm_holes =
                rm.metrics.u64("mm.mosaic.peakCoalescedHoleBytes");
            holes += rm_holes;
            useful += rm.metrics.u64("mm.peakAllocatedBytes") - rm_holes;
        }
        t.row({TextTable::pct(occ, 0), std::to_string(holes >> 20),
               std::to_string(useful >> 20),
               TextTable::pct(safeRatio(double(holes), double(useful)))});
    }
    t.print();
    std::printf("\npaper: 10.66%% at 1%% occupancy down to 2.22%% at "
                "75%%; <1%% below 100%% fragmentation\n");
    return 0;
}
