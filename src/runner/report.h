/**
 * @file
 * Human-readable reporting of simulation results.
 */

#ifndef MOSAIC_RUNNER_REPORT_H
#define MOSAIC_RUNNER_REPORT_H

#include <cstdio>

#include "common/table.h"
#include "runner/simulation.h"

namespace mosaic {

/** Prints a one-result summary block to @p out. */
inline void
printSimResult(const SimResult &result, std::FILE *out = stdout)
{
    std::fprintf(out, "=== %s on %s ===\n", result.configLabel.c_str(),
                 result.workloadName.c_str());
    const MetricsSnapshot &m = result.metrics;
    std::fprintf(out, "cycles: %llu   L1 TLB hit: %s   L2 TLB hit: %s   "
                      "walks: %llu (avg %s cy)\n",
                 static_cast<unsigned long long>(result.totalCycles),
                 TextTable::pct(l1TlbHitRate(m)).c_str(),
                 TextTable::pct(l2TlbHitRate(m)).c_str(),
                 static_cast<unsigned long long>(m.u64("vm.walker.walks")),
                 TextTable::num(m.real("vm.walker.latency.mean"), 0).c_str());
    std::fprintf(
        out, "far-faults: %llu (%llu MB)   coalesced: %llu   "
             "splintered: %llu   compactions: %llu\n",
        static_cast<unsigned long long>(m.u64("iobus.paging.farFaults")),
        static_cast<unsigned long long>(
            m.u64("iobus.paging.bytesTransferred") >> 20),
        static_cast<unsigned long long>(m.u64("mm.coalesceOps")),
        static_cast<unsigned long long>(m.u64("mm.splinterOps")),
        static_cast<unsigned long long>(m.u64("mm.compactions")));
    TextTable t;
    t.header({"app", "SMs", "instructions", "finish cycle", "IPC"});
    for (const AppResult &app : result.apps) {
        t.row({app.name, std::to_string(app.smCount),
               std::to_string(app.instructions),
               std::to_string(app.finishCycle),
               TextTable::num(app.ipc, 3)});
    }
    t.print(out);
}

/** Prints the Table 1 style configuration banner. */
inline void
printConfigBanner(const SimConfig &config, std::FILE *out = stdout)
{
    std::fprintf(out,
                 "[config %s] %u SMs x %u warps, L1 TLB %zu/%zu entries, "
                 "L2 TLB %zu/%zu entries, %u-walk PTW, paging=%s, "
                 "manager=%s\n",
                 config.label.c_str(), config.gpu.numSms,
                 config.gpu.sm.warpsPerSm, config.translation.l1.baseEntries,
                 config.translation.l1.largeEntries,
                 config.translation.l2.baseEntries,
                 config.translation.l2.largeEntries,
                 config.walker.maxConcurrentWalks,
                 config.demandPaging ? "demand" : "prefetch",
                 managerKindName(config.manager));
}

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_REPORT_H
