#include "runner/system.h"

#include <string>

#include "common/log.h"
#include "mm/gpu_mmu_manager.h"
#include "mm/large_only_manager.h"
#include "mm/mosaic_manager.h"

namespace mosaic {

namespace {

/**
 * Checkpoint payload section tags (DESIGN.md §14). Each component's
 * state is framed by one so a truncated or misaligned image fails with
 * a named location instead of silently misreading bytes.
 */
constexpr std::uint32_t kSecEngine = 0x454E4731;  // "ENG1"
constexpr std::uint32_t kSecVm = 0x50544231;      // "PTB1"
constexpr std::uint32_t kSecMm = 0x4D4D4731;      // "MMG1"
constexpr std::uint32_t kSecXlat = 0x544C4231;    // "TLB1"
constexpr std::uint32_t kSecWalker = 0x574C4B31;  // "WLK1"
constexpr std::uint32_t kSecCache = 0x43414331;   // "CAC1"
constexpr std::uint32_t kSecDram = 0x44524D31;    // "DRM1"
constexpr std::uint32_t kSecPcie = 0x50434531;    // "PCE1"
constexpr std::uint32_t kSecPager = 0x50475231;   // "PGR1"
constexpr std::uint32_t kSecGpu = 0x47505531;     // "GPU1"

/** @p config as the components run it: checked that it can run, and
 *  with the caches sized for the GPU's SMs. */
SimConfig
assembled(const SimConfig &config)
{
    if (config.engineShards != 0) {
        MOSAIC_FATAL("engineShards = " +
                     std::to_string(config.engineShards) +
                     ": the sharded engine was removed; leave it at 0");
    }
    const PageSizeHierarchy &sizes = config.translation.sizes;
    if (const char *why = sizesUnsupported(config.manager, sizes)) {
        MOSAIC_FATAL(std::string("page sizes ") + sizes.toString() + ": " +
                     managerKindName(config.manager) + " " + why);
    }
    SimConfig c = config;
    c.caches.numSms = config.gpu.numSms;
    return c;
}

/**
 * @p events, reserved for the in-flight events @p config implies before
 * the first component is built on it: roughly one per warp plus
 * headroom for walks, DRAM transactions, and paging transfers. Avoids
 * the slab's and overflow heap's doubling reallocations during warm-up.
 */
EventQueue &
reserved(EventQueue &events, const SimConfig &config)
{
    events.reserve(static_cast<std::size_t>(config.gpu.numSms) *
                       config.gpu.sm.warpsPerSm * 2 +
                   1024);
    return events;
}

/** Frame-pool bytes: DRAM from address 0 up to the page-table pool. */
std::uint64_t
framePoolBytes(const SimConfig &config)
{
    return roundDown(config.dram.capacityBytes - config.pageTablePoolBytes,
                     kLargePageSize);
}

std::unique_ptr<MemoryManager>
makeManager(const SimConfig &config)
{
    const std::uint64_t pool = framePoolBytes(config);
    switch (config.manager) {
    case ManagerKind::Mosaic:
        return std::make_unique<MosaicManager>(0, pool, config.mosaic);
    case ManagerKind::LargeOnly:
        return std::make_unique<LargeOnlyManager>(0, pool);
    case ManagerKind::GpuMmu:
    default:
        return std::make_unique<GpuMmuManager>(0, pool);
    }
}

/**
 * The optional shadow-model checker, attached to everything but the
 * page tables. Strictly observation-only: it binds nothing into the
 * registry, schedules no events, and only reads through const probes,
 * so results are byte-identical with checks on or off.
 */
std::unique_ptr<InvariantChecker>
makeChecker(const SimConfig &config, MemoryManager &manager,
            TranslationService &translation, DramModel &dram)
{
    if (!config.invariantChecks.enabled)
        return nullptr;
    InvariantChecker::Config cc;
    cc.fullSweepEvery = config.invariantChecks.fullSweepEvery;
    cc.abortOnViolation = config.invariantChecks.abortOnViolation;
    auto checker = std::make_unique<InvariantChecker>(cc);
    checker->attachManager(&manager);
    checker->attachTranslation(&translation);
    checker->attachDram(&dram);
    if (config.manager == ManagerKind::Mosaic) {
        checker->attachMosaicState(
            &static_cast<MosaicManager &>(manager).state());
        checker->attachCacConfig(&config.mosaic.cac);
    }
    translation.setChecker(checker.get());
    return checker;
}

}  // namespace

System::System(const SimConfig &cfg, unsigned numApps, Tracer *tracer)
    : config(assembled(cfg)),
      dram(reserved(events, config), config.dram, &registry, tracer),
      caches(events, dram, config.caches, &registry),
      walker(events, caches, config.walker, &registry, tracer),
      translation(events, walker, config.gpu.numSms, config.translation,
                  &registry, tracer),
      pcie(events, config.pcie, &registry, tracer),
      manager(makeManager(config)),
      // Page-table nodes live in a dedicated pool at the top of memory.
      ptAlloc(framePoolBytes(config), config.pageTablePoolBytes),
      checker(makeChecker(config, *manager, translation, dram)),
      gpu(events, config.gpu, &registry),
      pager(events, pcie, *manager, &registry, tracer)
{
    manager->registerMetrics(registry);
    env.events = &events;
    env.dram = &dram;
    env.translation = &translation;
    env.tracer = tracer;
    env.stallGpu = [this](Cycles d) { gpu.stallAll(d); };
    env.checker = checker.get();
    manager->setEnv(env);

    for (unsigned i = 0; i < numApps; ++i) {
        const auto id = static_cast<AppId>(i);
        pageTables.push_back(
            std::make_unique<PageTable>(id, ptAlloc, config.translation.sizes));
        if (checker != nullptr)
            checker->observePageTable(*pageTables.back());
        manager->registerApp(id, *pageTables.back());
        // Sizes every per-SM stat slice for this app up front, which is
        // the layout checkpoint images record.
        translation.registerApp(id, *pageTables.back());
    }
}

void
System::save(ckpt::Writer &w) const
{
    w.section(kSecEngine);
    w.boolean(false);  // engine family: serial (format slot)
    const EventQueue::Clock c = events.saveClock();
    w.u64(c.now);
    w.u64(c.nextSeq);
    w.u64(c.executed);
    w.section(kSecVm);
    ptAlloc.saveState(w);
    w.u64(pageTables.size());
    for (const auto &pt : pageTables)
        pt->saveState(w);
    w.section(kSecMm);
    manager->saveState(w);
    w.section(kSecXlat);
    translation.saveState(w);
    w.section(kSecWalker);
    walker.saveState(w);
    w.section(kSecCache);
    caches.saveState(w);
    w.section(kSecDram);
    dram.saveState(w);
    w.section(kSecPcie);
    pcie.saveState(w);
    w.section(kSecPager);
    pager.saveState(w);
    w.section(kSecGpu);
    gpu.saveState(w);
}

void
System::load(ckpt::Reader &r)
{
    r.section(kSecEngine, "engine");
    if (r.boolean() && r.ok()) {
        r.fail("image was captured by the removed sharded engine");
        return;
    }
    EventQueue::Clock c;
    c.now = r.u64();
    c.nextSeq = r.u64();
    c.executed = r.u64();
    if (r.ok())
        events.restoreClock(c);
    r.section(kSecVm, "page tables");
    ptAlloc.loadState(r);
    const std::uint64_t n_apps = r.u64();
    if (r.ok() && n_apps != pageTables.size()) {
        r.fail("application count mismatch (workload changed?)");
        return;
    }
    // Page tables load before the manager and the TLBs: loading fires
    // the observer hooks that reseed the checker's shadow translation
    // map, and the TLB reload below replays its fills against it.
    for (const auto &pt : pageTables) {
        pt->loadState(r);
        if (!r.ok())
            return;
    }
    r.section(kSecMm, "memory manager");
    manager->loadState(r);
    r.section(kSecXlat, "translation");
    translation.loadState(r);
    r.section(kSecWalker, "walker");
    walker.loadState(r);
    r.section(kSecCache, "caches");
    caches.loadState(r);
    r.section(kSecDram, "dram");
    dram.loadState(r);
    r.section(kSecPcie, "pcie");
    pcie.loadState(r);
    r.section(kSecPager, "pager");
    pager.loadState(r);
    r.section(kSecGpu, "gpu");
    gpu.loadState(r);
    // The audited-violation expectation rides in the manager's
    // serialized stats; reseed the checker to match.
    if (r.ok() && checker != nullptr)
        checker->seedAuditedViolations(
            manager->stats().softGuaranteeViolations);
}

}  // namespace mosaic
