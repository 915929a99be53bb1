/**
 * @file
 * Trace replay: drives the simulator's lowest-level API directly. A
 * small per-warp memory trace (inline here; TraceFile::load reads the
 * same format from disk) runs on a hand-assembled system -- SMs,
 * translation service, caches, DRAM, demand pager, and the Mosaic
 * memory manager -- and the example prints what the memory system did.
 *
 * Usage: trace_replay [trace-file]
 */

#include <cstdio>
#include <sstream>

#include "cache/hierarchy.h"
#include "dram/dram.h"
#include "engine/event_queue.h"
#include "gpu/gpu.h"
#include "iobus/demand_paging.h"
#include "mm/mosaic_manager.h"
#include "vm/translation.h"
#include "vm/walker.h"
#include "workload/trace_stream.h"

int
main(int argc, char **argv)
{
    using namespace mosaic;

    // A trace touching two 2MB chunks: warp 0 streams, warp 1 strides.
    std::shared_ptr<TraceFile> trace;
    if (argc > 1) {
        trace = TraceFile::load(argv[1]);
    } else {
        std::ostringstream t;
        t << "# generated inline\n";
        for (unsigned w = 0; w < 2; ++w) {
            t << "W " << w << "\n";
            for (unsigned i = 0; i < 2000; ++i) {
                t << "C 4\n";
                const Addr va = 0x10000000000ull +
                                (w * kLargePageSize) +
                                (i * 577ull * kCacheLineSize) %
                                    kLargePageSize;
                t << (i % 4 == 0 ? "S " : "L ") << std::hex << va
                  << std::dec << "\n";
            }
        }
        std::istringstream in(t.str());
        trace = TraceFile::parse(in);
    }
    std::printf("trace: %zu warps, %llu instructions\n", trace->numWarps(),
                static_cast<unsigned long long>(
                    trace->totalInstructions()));

    // Assemble the system by hand, to show the low-level API: the
    // runner's System (src/runner/system.h) builds this stack, plus the
    // registry, manager environment and checker, from a SimConfig.
    EventQueue events;
    DramModel dram(events, DramConfig{});
    CacheHierarchyConfig cache_cfg;
    cache_cfg.numSms = 1;
    CacheHierarchy caches(events, dram, cache_cfg);
    PageTableWalker walker(events, caches, WalkerConfig{});
    TranslationService translation(events, walker, 1,
                                   TranslationConfig{});
    PcieConfig pcie_cfg;  // compress I/O time 16x (see DESIGN.md)
    pcie_cfg.bytesPerCycle *= 16.0;
    pcie_cfg.fixedOverheadCycles /= 16;
    PcieBus pcie(events, pcie_cfg);

    MosaicManager manager(0, 1ull << 30);
    RegionPtNodeAllocator pt_alloc(1ull << 30, 64ull << 20);
    PageTable page_table(0, pt_alloc);
    manager.registerApp(0, page_table);
    ManagerEnv env;
    env.events = &events;
    env.dram = &dram;
    env.translation = &translation;
    manager.setEnv(env);
    DemandPager pager(events, pcie, manager);

    // The trace's en masse allocation: both chunks in one region.
    manager.reserveRegion(0, 0x10000000000ull, 2 * kLargePageSize);

    GpuConfig gpu_cfg;
    gpu_cfg.numSms = 1;
    Gpu gpu(events, gpu_cfg);
    bool done = false;
    const SmId sm = gpu.createSm(page_table, translation, caches, &pager,
                                 [&] { done = true; });
    for (std::size_t w = 0; w < trace->numWarps(); ++w)
        gpu.sm(sm).addWarp(std::make_unique<TraceWarpStream>(trace, w));

    gpu.startAll(0);
    while (!done && events.runOne()) {
    }

    const auto &stats = gpu.sm(sm).stats();
    std::printf("finished at cycle %llu: %llu instructions "
                "(%llu memory), IPC %.3f\n",
                static_cast<unsigned long long>(stats.finishedAt),
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.memInstructions),
                double(stats.instructions) /
                    double(std::max<Cycles>(1, stats.finishedAt)));
    std::printf("translation: %llu walks, L1 TLB hit %.1f%%, coalesced "
                "%llu frames\n",
                static_cast<unsigned long long>(walker.stats().walks),
                100.0 * double(translation.stats().l1Hits) /
                    double(translation.stats().requests),
                static_cast<unsigned long long>(
                    manager.stats().coalesceOps));
    std::printf("paging: %llu far-faults (%llu KB over PCIe)\n",
                static_cast<unsigned long long>(
                    pager.stats().farFaults),
                static_cast<unsigned long long>(
                    pager.stats().bytesTransferred >> 10));
    return 0;
}
