/**
 * @file
 * Multi-tenant GPU sharing: several different applications run
 * concurrently on one GPU, each in its own address space on its own SM
 * partition. The example reports per-application IPC, weighted speedup
 * against solo runs, the TLB interference each manager suffers, and
 * verifies that Mosaic's soft guarantee (no large page frame ever holds
 * two applications' pages) held for the entire run.
 *
 * Usage: multi_tenant [num-apps] [seed] [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "runner/simulation.h"
#include "workload/metrics.h"
#include "workload/workload.h"

int
main(int argc, char **argv)
{
    using namespace mosaic;

    const unsigned num_apps =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
    const std::uint64_t seed =
        argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 7;
    const double scale = argc > 3 ? std::atof(argv[3]) : 0.25;

    Workload w =
        scaledWorkload(heterogeneousWorkload(num_apps, seed), scale);
    for (AppParams &app : w.apps)
        app.instrPerWarp = 800;

    std::printf("Workload %s: %u applications, combined working set "
                "%llu MB\n\n",
                w.name.c_str(), num_apps,
                static_cast<unsigned long long>(w.workingSetBytes() >> 20));

    auto shape = [](SimConfig c) {
        c.gpu.sm.warpsPerSm = 16;
        return c.withIoCompression(16.0);
    };
    const SimConfig base = shape(SimConfig::baseline());
    const SimConfig mosaic = shape(SimConfig::mosaicDefault());
    const SimConfig ideal = shape(SimConfig::idealTlb());

    const auto alone = aloneIpcs(w, base);
    const SimResult rb = runSimulation(w, base);
    const SimResult rm = runSimulation(w, mosaic);
    const SimResult ri = runSimulation(w, ideal);

    TextTable t;
    t.header({"app", "SMs", "IPC alone", "GPU-MMU", "Mosaic", "Ideal",
              "Mosaic speedup", "L1 TLB base->Mosaic"});
    for (std::size_t i = 0; i < w.apps.size(); ++i) {
        t.row({w.apps[i].name, std::to_string(rb.apps[i].smCount),
               TextTable::num(alone[i], 3),
               TextTable::num(rb.apps[i].ipc, 3),
               TextTable::num(rm.apps[i].ipc, 3),
               TextTable::num(ri.apps[i].ipc, 3),
               TextTable::num(safeRatio(rm.apps[i].ipc, rb.apps[i].ipc),
                              2) + "x",
               TextTable::pct(rb.apps[i].l1TlbHitRate, 0) + " -> " +
                   TextTable::pct(rm.apps[i].l1TlbHitRate, 0)});
    }
    t.print();

    std::printf("\nweighted speedup: GPU-MMU %.3f | Mosaic %.3f | "
                "Ideal TLB %.3f\n",
                weightedSpeedupOf(rb, alone), weightedSpeedupOf(rm, alone),
                weightedSpeedupOf(ri, alone));
    std::printf("L2 TLB hit rate: GPU-MMU %s -> Mosaic %s "
                "(coalesced %llu frames, %llu splinters)\n",
                TextTable::pct(l2TlbHitRate(rb.metrics)).c_str(),
                TextTable::pct(l2TlbHitRate(rm.metrics)).c_str(),
                static_cast<unsigned long long>(
                    rm.metrics.u64("mm.coalesceOps")),
                static_cast<unsigned long long>(
                    rm.metrics.u64("mm.splinterOps")));
    const std::uint64_t violations =
        rm.metrics.u64("mm.softGuaranteeViolations");
    std::printf("memory protection: %llu soft-guarantee violations "
                "(0 expected)\n",
                static_cast<unsigned long long>(violations));
    return violations == 0 ? 0 : 1;
}
