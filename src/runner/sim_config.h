/**
 * @file
 * Top-level simulation configuration and the paper's named presets.
 *
 * The defaults reproduce Table 1: 30 SMs at 1020MHz with GTO scheduling,
 * 16KB/4-way L1 caches, a 2MB/16-way shared L2 over 6 memory partitions,
 * per-SM L1 TLBs with 128 base + 16 large entries, a shared L2 TLB with
 * 512 base + 256 large entries, a 64-walk shared page-table walker, 3GB
 * of GDDR5, and a PCIe bus calibrated to GTX 1080 far-fault latencies.
 */

#ifndef MOSAIC_RUNNER_SIM_CONFIG_H
#define MOSAIC_RUNNER_SIM_CONFIG_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "common/page_sizes.h"
#include "dram/dram.h"
#include "gpu/gpu.h"
#include "iobus/pcie.h"
#include "mm/mosaic_manager.h"
#include "trace/tracer.h"
#include "vm/translation.h"
#include "vm/walker.h"

namespace mosaic {

/** Which memory manager runs the GPU. */
enum class ManagerKind : std::uint8_t {
    GpuMmu,     ///< baseline 4KB-only manager (Power et al.)
    Mosaic,     ///< CoCoA + In-Place Coalescer + CAC
    LargeOnly,  ///< 2MB pages only (§3.2 straw man)
};

/** Display name of @p kind (banner, JSON, and metrics output). */
inline const char *
managerKindName(ManagerKind kind)
{
    switch (kind) {
    case ManagerKind::Mosaic:
        return "Mosaic";
    case ManagerKind::LargeOnly:
        return "2MB-only";
    case ManagerKind::GpuMmu:
    default:
        return "GPU-MMU";
    }
}

/**
 * Why @p kind cannot run page-size hierarchy @p sizes, or null when it
 * can. Every manager backs pages at kBasePageSize, so the base level
 * must be 4K; Mosaic and 2MB-only also map whole 2MB frames at the top
 * level. The CLIs print the reason after a flag diagnostic, and System
 * aborts with it for library callers.
 */
inline const char *
sizesUnsupported(ManagerKind kind, const PageSizeHierarchy &sizes)
{
    if (sizes.bits(0) != kBasePageBits)
        return "needs a 4K base page, e.g. 4K,2M";
    if (kind != ManagerKind::GpuMmu && !sizes.frameSizedTop())
        return "needs a 2M top level, e.g. 4K,2M";
    return nullptr;
}

/** Complete configuration of one simulation. */
struct SimConfig
{
    std::string label = "GPU-MMU";
    ManagerKind manager = ManagerKind::GpuMmu;

    /** Demand paging on (far-faults) or off (prefetch before start). */
    bool demandPaging = true;
    /** When prefetching, charge the PCIe bus for the upfront transfer. */
    bool chargePrefetchBus = false;

    GpuConfig gpu;
    TranslationConfig translation;
    WalkerConfig walker;
    CacheHierarchyConfig caches;
    DramConfig dram;
    PcieConfig pcie;
    MosaicConfig mosaic;

    /** Physical bytes reserved for page-table nodes (top of memory). */
    std::uint64_t pageTablePoolBytes = 64ull << 20;

    /** Fig. 16 stress knobs (Mosaic manager only). */
    double fragmentationIndex = 0.0;
    double fragmentationOccupancy = 0.0;

    /**
     * Allocation churn (the Fig. 16 / Table 2 stress): while the GPU
     * runs, each tick (a) replaces one random buffer with a fresh
     * virtual allocation of the same size -- the access stream follows,
     * so whether the new allocation obtains a coalescible frame is
     * performance-visible -- and (b) releases a random slice of another
     * buffer, creating the internal fragmentation CAC cleans up.
     */
    struct Churn
    {
        bool enabled = false;
        Cycles periodCycles = 64000;
        /** Slice of the fragmented buffer released per event. */
        double releaseFraction = 0.5;
    } churn;

    std::uint64_t seed = 1;
    Cycles maxCycles = 4'000'000'000ull;

    /**
     * Placeholder left by the removed sharded engine (DESIGN.md §12):
     * must be 0, and System rejects any other value. Kept only
     * because ledger/ledger_main.cc still assigns it.
     */
    unsigned engineShards = 0;

    /**
     * Metrics time-series sampling interval in cycles; 0 (default)
     * disables sampling. When enabled, runSimulation() captures a full
     * registry snapshot every interval into SimResult::metricsSamples,
     * so benches can plot coalesce/splinter/fault activity over a run.
     */
    Cycles metricsSamplePeriod = 0;

    /**
     * Event tracing (off by default). When trace.enabled, the runner
     * builds a per-simulation Tracer, threads it through every
     * component, and returns it in SimResult::trace for export as
     * Chrome Trace Event JSON (see DESIGN.md §9). Tracing is
     * observation-only: it never changes simulated behavior.
     */
    TraceConfig trace;

    /**
     * Shadow-model invariant checking (off by default; DESIGN.md §10).
     * When enabled, the runner builds an InvariantChecker, attaches it
     * to every page table, the TLBs, the manager, and the DRAM model,
     * and cross-validates the structures after manager mutations. Like
     * tracing it is observation-only: the SimResult is byte-identical
     * with checks on or off (enforced by a test).
     */
    struct InvariantChecks
    {
        bool enabled = false;
        /** Full sweep every N manager mutations (1 = every mutation). */
        std::uint64_t fullSweepEvery = 4096;
        /** Panic on the first violation (off: collect and count). */
        bool abortOnViolation = true;
    } invariantChecks;

    /**
     * Checkpoint/restore (DESIGN.md §14). Checkpoints are taken at the
     * first quiesce point at-or-after each requested cycle: the runner
     * pauses SM issue, drains in-flight work, serializes every
     * component, then resumes — so a checkpointing run's timing differs
     * (identically) from a never-checkpointing run from the first
     * trigger on, and a restored run is byte-for-byte the continuation
     * of the run that saved. Fields are excluded from the config
     * fingerprint: a restore config must match the *simulated* system,
     * not the checkpoint schedule.
     */
    struct Ckpt
    {
        /** (trigger cycle, output path), processed in ascending cycle
         *  order. Triggers at-or-before the restored cycle re-save
         *  immediately (byte-identical to the original file). */
        std::vector<std::pair<Cycles, std::string>> checkpoints;
        /** Path to restore from before running ("" = fresh start). */
        std::string restorePath;
    } ckpt;

    /** Baseline GPU-MMU with 4KB pages and demand paging (Table 1). */
    static SimConfig
    baseline()
    {
        SimConfig c;
        c.label = "GPU-MMU";
        return c;
    }

    /** Mosaic with demand paging. */
    static SimConfig
    mosaicDefault()
    {
        SimConfig c;
        c.label = "Mosaic";
        c.manager = ManagerKind::Mosaic;
        return c;
    }

    /** Ideal TLB: every translation request hits in the L1 TLB. */
    static SimConfig
    idealTlb()
    {
        SimConfig c;
        c.label = "Ideal-TLB";
        c.translation.idealTlb = true;
        return c;
    }

    /** 2MB-only design (pages and transfers at large granularity). */
    static SimConfig
    largeOnly()
    {
        SimConfig c;
        c.label = "2MB-only";
        c.manager = ManagerKind::LargeOnly;
        return c;
    }

    /** Enables interval metrics sampling every @p cycles. */
    SimConfig
    withMetricsSampling(Cycles cycles) const
    {
        SimConfig c = *this;
        c.metricsSamplePeriod = cycles;
        return c;
    }

    /**
     * Runs with a custom page-size hierarchy (DESIGN.md §13), e.g.
     * Trident's {4K,64K,2M}, optionally with CoLT coalesced base-TLB
     * entries. The hierarchy is set on the translation service and the
     * Mosaic manager together (the two must agree; runSimulation also
     * builds every page table from it). Passing the default pair with
     * colt=false is byte-identical to not calling this at all.
     */
    SimConfig
    withSizeHierarchy(const PageSizeHierarchy &sizes,
                      bool colt = false) const
    {
        SimConfig c = *this;
        c.translation.sizes = sizes;
        c.translation.colt = colt;
        c.mosaic.sizes = sizes;
        if (!sizes.isDefaultPair())
            c.label += "+" + sizes.toString();
        if (colt)
            c.label += "+CoLT";
        return c;
    }

    /** Enables event tracing for @p categories (a TraceCategory mask). */
    SimConfig
    withTracing(std::uint32_t categories = kTraceAll) const
    {
        SimConfig c = *this;
        c.trace.enabled = true;
        c.trace.categories = categories;
        return c;
    }

    /** Enables invariant checking, sweeping every @p sweepEvery mutations. */
    SimConfig
    withInvariantChecks(std::uint64_t sweepEvery = 4096) const
    {
        SimConfig c = *this;
        c.invariantChecks.enabled = true;
        c.invariantChecks.fullSweepEvery = sweepEvery;
        return c;
    }

    /** Adds a checkpoint at the first quiesce point >= @p cycle. */
    SimConfig
    withCheckpointAt(Cycles cycle, const std::string &path) const
    {
        SimConfig c = *this;
        c.ckpt.checkpoints.emplace_back(cycle, path);
        return c;
    }

    /** Restores from @p path before running. */
    SimConfig
    withRestoreFrom(const std::string &path) const
    {
        SimConfig c = *this;
        c.ckpt.restorePath = path;
        return c;
    }

    /** Turns this config into a no-demand-paging variant. */
    SimConfig
    withoutPaging(bool chargeBus = false) const
    {
        SimConfig c = *this;
        c.demandPaging = false;
        c.chargePrefetchBus = chargeBus;
        c.label += chargeBus ? "+prefetch" : "+noPagingOverhead";
        return c;
    }

    /**
     * Compresses I/O time by @p factor.
     *
     * Synthetic workloads run orders of magnitude fewer instructions per
     * byte of working set than the real benchmarks; keeping the measured
     * PCIe constants would make every run I/O-bound and hide the effects
     * under study. Scaling the bus constants by the same factor as the
     * workload duration preserves the paper's execution:transfer balance
     * (see DESIGN.md, "Substitutions").
     */
    SimConfig
    withIoCompression(double factor) const
    {
        SimConfig c = *this;
        c.pcie.bytesPerCycle *= factor;
        c.pcie.fixedOverheadCycles = static_cast<Cycles>(
            double(c.pcie.fixedOverheadCycles) / factor);
        return c;
    }
};

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_SIM_CONFIG_H
