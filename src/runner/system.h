/**
 * @file
 * The simulated GPU memory system, assembled in one place: every
 * component a SimConfig describes, wired together and serialized in the
 * canonical checkpoint section order (DESIGN.md §14). runSimulation()
 * drives a workload on it; mosaic_fuzz drives manager operations on it.
 */

#ifndef MOSAIC_RUNNER_SYSTEM_H
#define MOSAIC_RUNNER_SYSTEM_H

#include <memory>
#include <vector>

#include "check/invariant_checker.h"
#include "ckpt/serde.h"
#include "common/stats_registry.h"
#include "engine/event_queue.h"
#include "iobus/demand_paging.h"
#include "mm/memory_manager.h"
#include "runner/sim_config.h"
#include "vm/page_table.h"

namespace mosaic {

/**
 * One simulated system. Members are constructed in declaration order
 * and destroyed in reverse: the registry outlives every component that
 * binds counters into it, and the checker outlives the page tables that
 * hold it as their observer.
 */
struct System
{
    /** Builds the stack with one page table per app id < @p numApps.
     *  @p tracer may be null. Aborts on page sizes the manager cannot
     *  run (sizesUnsupported()). */
    System(const SimConfig &config, unsigned numApps, Tracer *tracer);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Writes the component sections ENG1 ... GPU1 at a quiesce point. */
    void save(ckpt::Writer &w) const;

    /** Reads save()'s sections into a freshly built system and reseeds
     *  the checker's audited violations. */
    void load(ckpt::Reader &r);

    /** The config as the components run it (caches sized to the GPU). */
    const SimConfig config;
    StatsRegistry registry;
    EventQueue events;
    DramModel dram;
    CacheHierarchy caches;
    PageTableWalker walker;
    TranslationService translation;
    PcieBus pcie;
    std::unique_ptr<MemoryManager> manager;
    RegionPtNodeAllocator ptAlloc;
    /** Shadow-model checker (DESIGN.md §10); null when checks are off. */
    std::unique_ptr<InvariantChecker> checker;
    Gpu gpu;
    ManagerEnv env;
    /** Page table of app id i at index i. */
    std::vector<std::unique_ptr<PageTable>> pageTables;
    DemandPager pager;
};

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_SYSTEM_H
