#include "runner/simulation.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/serde.h"
#include "mm/mosaic_manager.h"
#include "runner/system.h"
#include "trace/tracer.h"
#include "workload/access_pattern.h"
#include "workload/metrics.h"

namespace mosaic {

namespace {

/** Per-application runtime context. */
struct AppCtx
{
    AppParams params;
    /** The application's page table, owned by the System. */
    PageTable *pageTable = nullptr;
    std::unique_ptr<AppLayout> layout;
    unsigned smCount = 0;
    std::vector<SmId> sms;
    unsigned smsDone = 0;
    bool finished = false;
    Cycles finishAt = 0;
    unsigned prefetchesPending = 0;
    /** Bump pointer for fresh virtual regions under allocation churn. */
    Addr nextChurnVa = 0;
};

/**
 * Counter tracks sampled into the trace. A curated list of string
 * literals rather than the live snapshot keys: TraceEvent stores
 * `const char *` names, so they must outlive the tracer.
 */
constexpr const char *kCounterTracks[] = {
    "mm.allocatedBytes",
    "mm.coalesceOps",
    "mm.splinterOps",
    "mm.compactions",
    "mm.migrations",
    "mm.emergencySplinters",
    "mm.softGuaranteeViolations",
    "mm.outOfFrames",
    "vm.walker.walks",
    "vm.translation.requests",
    "vm.translation.l1Hits",
    "iobus.paging.farFaults",
    "iobus.pcie.bytes",
    "dram.rowHits",
    "dram.rowMisses",
    "gpu.stallCycles",
};

/** Samples every curated counter track into the trace at @p now. */
void
sampleCounterTracks(Tracer &tracer, StatsRegistry &registry, Cycles now)
{
    const MetricsSnapshot snap = registry.snapshot(now);
    for (const char *name : kCounterTracks) {
        const MetricValue *v = snap.find(name);
        if (v != nullptr)
            tracer.counter(name, now, snap.u64(name));
    }
}

/** Checkpoint section tag of the runner's own state, written after
 *  the System's component sections (DESIGN.md §14). */
constexpr std::uint32_t kSecRunner = 0x524E5231;  // "RNR1"

/**
 * FNV-1a fingerprint of the *simulated system*: every knob that
 * changes which events run (manager kind, component geometry, workload
 * parameters, seed) feeds a canonical string. Presentation and
 * observation knobs -- the label, trace sinks, invariant checks, the
 * checkpoint schedule itself -- are excluded, so a restore config may
 * differ in those and still match. trace.enabled is *included*: counter
 * ticks shift event sequence numbers, which are checkpointed state.
 */
std::uint64_t
configFingerprint(const Workload &workload, const SimConfig &config)
{
    std::string s;
    const auto num = [&s](std::uint64_t v) {
        s += std::to_string(v);
        s += '|';
    };
    const auto real = [&s](double v) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g|", v);
        s += buf;
    };
    const auto text = [&s](const std::string &v) {
        s += v;
        s += '|';
    };
    const auto tlb = [&num](const TlbConfig &t) {
        num(t.baseEntries);
        num(t.baseWays);
        num(t.largeEntries);
        num(t.largeWays);
        num(t.latencyCycles);
        num(t.ports);
        num(t.numSizeLevels);
        num(t.midEntries);
        num(t.midWays);
        num(t.coltEnabled);
        num(t.coltEntries);
        num(t.coltWays);
        num(t.coltSpanPagesLog2);
    };

    text(managerKindName(config.manager));
    num(config.demandPaging);
    num(config.chargePrefetchBus);
    num(config.gpu.numSms);
    num(config.gpu.sm.warpsPerSm);
    num(static_cast<unsigned>(config.gpu.sm.scheduler));
    num(config.gpu.sm.maxFaultRetries);
    tlb(config.translation.l1);
    tlb(config.translation.l2);
    num(config.translation.idealTlb);
    num(config.translation.colt);
    text(config.translation.sizes.toString());
    num(config.walker.maxConcurrentWalks);
    num(config.walker.usePageWalkCache);
    num(config.walker.pwcEntries);
    num(config.walker.pwcLatencyCycles);
    num(config.walker.pteInDram);
    num(config.caches.l1Bytes);
    num(config.caches.l1Ways);
    num(config.caches.l1LatencyCycles);
    num(config.caches.l1MshrEntries);
    num(config.caches.l2Bytes);
    num(config.caches.l2Ways);
    num(config.caches.l2Banks);
    num(config.caches.l2LatencyCycles);
    num(config.caches.l2BankCycleTime);
    num(config.caches.l2MshrEntries);
    num(config.caches.interconnectCycles);
    num(config.dram.channels);
    num(static_cast<unsigned>(config.dram.channelInterleave));
    num(config.dram.banksPerChannel);
    num(config.dram.rowBytes);
    num(config.dram.rowHitCycles);
    num(config.dram.rowMissCycles);
    num(config.dram.bankBusyHitCycles);
    num(config.dram.bankBusyMissCycles);
    num(config.dram.burstCycles);
    num(config.dram.capacityBytes);
    num(config.dram.bulkCopyInDramCycles);
    num(config.dram.bulkCopyViaBusCyclesPerLine);
    num(config.dram.schedulerWindow);
    num(config.pcie.fixedOverheadCycles);
    real(config.pcie.bytesPerCycle);
    num(config.mosaic.cac.enabled);
    num(config.mosaic.cac.occupancyThresholdPages);
    num(config.mosaic.cac.useBulkCopy);
    num(config.mosaic.cac.ideal);
    text(config.mosaic.sizes.toString());
    num(config.mosaic.coalescingEnabled);
    num(config.mosaic.coalesceResidentThreshold);
    num(config.pageTablePoolBytes);
    real(config.fragmentationIndex);
    real(config.fragmentationOccupancy);
    num(config.churn.enabled);
    num(config.churn.periodCycles);
    real(config.churn.releaseFraction);
    num(config.seed);
    num(config.maxCycles);
    num(config.metricsSamplePeriod);
    num(config.trace.enabled);
    // The engine-family slot (the removed sharded engine hashed true):
    // kept so existing images keep their fingerprints.
    num(false);
    num(workload.apps.size());
    for (const AppParams &app : workload.apps) {
        text(app.name);
        num(app.bufferSizes.size());
        for (const std::uint64_t b : app.bufferSizes)
            num(b);
        real(app.touchedFraction);
        num(app.hotBytes);
        real(app.seqFraction);
        num(app.strideLines);
        num(app.computePerMem);
        num(app.computeMin);
        num(app.computeMax);
        num(app.linesPerMem);
        real(app.storeFraction);
        num(app.instrPerWarp);
    }
    return ckpt::fnv1a(s);
}

/**
 * A periodic self-rescheduling tick: allocation churn, the metrics
 * sampler, trace counter tracks. arm() is its one scheduling site: the
 * first tick, every self-reschedule and the re-arm after a quiesce
 * point. While the runner quiesces a pending tick does no work, draws
 * no randomness and does not reschedule, so the drain terminates and
 * the re-arm rebuilds the chain identically after an in-process save
 * and after a restore.
 */
struct PeriodicTick
{
    EventQueue &events;
    const Cycles period;
    const bool &quiescing;
    /** One tick's work; returns whether to tick again. */
    std::function<bool()> body;

    /** Schedules the next tick one period after @p from. */
    void
    arm(Cycles from)
    {
        events.schedule(from + period, [this] {
            if (!quiescing && body())
                arm(events.now());
        });
    }
};

}  // namespace

SimResult
runSimulation(const Workload &workload, const SimConfig &config)
{
    // Checkpoint restore (DESIGN.md §14): read and validate the image
    // up front -- before any component exists -- so a bad file fails
    // fast with a diagnostic; the payload is applied after assembly.
    const bool restoring = !config.ckpt.restorePath.empty();
    ckpt::Header restore_header;
    std::vector<std::uint8_t> restore_payload;
    if (restoring) {
        const std::string err = ckpt::readFile(
            config.ckpt.restorePath, configFingerprint(workload, config),
            restore_header, restore_payload);
        if (!err.empty())
            MOSAIC_FATAL(err);
    }

    // Optional event tracer, private to this simulation like the
    // system's registry (shared_ptr only so SimResult can carry it
    // out). Components take a plain `Tracer *`; null means no tracing.
    std::shared_ptr<Tracer> tracer;
    if (config.trace.enabled)
        tracer = std::make_shared<Tracer>(config.trace);
    Tracer *const tr = tracer.get();

    System sys(config, static_cast<unsigned>(workload.apps.size()), tr);
    EventQueue &events = sys.events;
    Gpu &gpu = sys.gpu;
    MemoryManager &manager = *sys.manager;

    // Restored runs skip fragmentation injection: the pool arrives in
    // its already-fragmented checkpointed state.
    if (!restoring && config.manager == ManagerKind::Mosaic &&
        config.fragmentationIndex > 0.0) {
        static_cast<MosaicManager &>(manager).injectFragmentation(
            config.fragmentationIndex, config.fragmentationOccupancy,
            config.seed * 7919 + 13);
    }

    // Instantiate the applications' virtual layouts and the en masse
    // region reservations.
    std::vector<std::unique_ptr<AppCtx>> apps;
    for (std::size_t i = 0; i < workload.apps.size(); ++i) {
        auto ctx = std::make_unique<AppCtx>();
        ctx->params = workload.apps[i];
        ctx->pageTable = sys.pageTables[i].get();
        ctx->layout = std::make_unique<AppLayout>(
            ctx->params, (static_cast<Addr>(i) + 1) << 40);
        // Churned replacement buffers grow upward from half-way through
        // the application's 1TB address slice.
        ctx->nextChurnVa = ((static_cast<Addr>(i) + 1) << 40) +
                           (1ull << 39);
        apps.push_back(std::move(ctx));
    }
    // Restored runs skip the en masse reservations too: region state
    // (page tables, frame pool, manager maps) comes from the image.
    if (!restoring) {
        for (auto &ctx : apps) {
            for (const auto &buf : ctx->layout->buffers())
                manager.reserveRegion(ctx->pageTable->appId(), buf.va,
                                      buf.bytes);
        }
    }

    // Carve the SMs into equal per-application partitions and populate
    // each SM with this application's warps.
    const auto shares = Gpu::partitionSms(
        config.gpu.numSms, static_cast<unsigned>(apps.size()));
    bool all_finished = false;
    // Simulated time at which the last application finished (the event
    // loop stops on the finishing event, so this is events.now() at
    // loop exit; restored runs carry it in the image).
    Cycles end_cycle = 0;
    std::uint64_t peak_allocated = 0;
    std::uint64_t peak_holes = 0;
    unsigned apps_remaining = static_cast<unsigned>(apps.size());
    auto *const mosaic = dynamic_cast<MosaicManager *>(&manager);

    for (std::size_t i = 0; i < apps.size(); ++i) {
        AppCtx &app = *apps[i];
        app.smCount = shares[i];
        const unsigned warps_per_sm = config.gpu.sm.warpsPerSm;
        const unsigned total_warps = app.smCount * warps_per_sm;

        for (unsigned local = 0; local < app.smCount; ++local) {
            AppCtx *app_ptr = &app;
            auto finish = [app_ptr, &manager, mosaic, &peak_allocated,
                           &peak_holes, &apps_remaining, &all_finished,
                           &end_cycle, &events] {
                if (++app_ptr->smsDone < app_ptr->smCount)
                    return;
                app_ptr->finished = true;
                app_ptr->finishAt = events.now();
                peak_allocated = std::max(peak_allocated,
                                          manager.allocatedBytes());
                if (mosaic != nullptr) {
                    peak_holes = std::max(peak_holes,
                                          mosaic->coalescedHoleBytes());
                }
                // The application deallocates en masse on completion.
                for (const auto &buf : app_ptr->layout->buffers()) {
                    manager.releaseRegion(app_ptr->pageTable->appId(),
                                          buf.va, buf.bytes);
                }
                if (--apps_remaining == 0) {
                    all_finished = true;
                    end_cycle = events.now();
                }
            };
            const SmId sm_id = gpu.createSm(
                *app.pageTable, sys.translation, sys.caches,
                config.demandPaging ? &sys.pager : nullptr,
                std::move(finish));
            app.sms.push_back(sm_id);

            for (unsigned w = 0; w < warps_per_sm; ++w) {
                const unsigned warp_idx = local * warps_per_sm + w;
                gpu.sm(sm_id).addWarp(std::make_unique<SyntheticWarpStream>(
                    app.params, *app.layout, warp_idx, total_warps,
                    config.seed * 1315423911u + i * 2654435761u + warp_idx));
            }
        }
    }

    // Checkpoint schedule, processed in ascending trigger order.
    std::vector<std::pair<Cycles, std::string>> ckpt_schedule =
        config.ckpt.checkpoints;
    std::stable_sort(
        ckpt_schedule.begin(), ckpt_schedule.end(),
        [](const std::pair<Cycles, std::string> &a,
           const std::pair<Cycles, std::string> &b) {
            return a.first < b.first;
        });
    std::size_t next_ckpt = 0;
    bool quiescing = false;

    // Launch: with demand paging the SMs start cold and fault pages in;
    // without it, every buffer is prefetched first (optionally charging
    // the PCIe bus) and the application starts when its data is resident.
    // A restored run launches nothing: SM progress (started flags, live
    // warps, stream cursors) comes from the image, and the re-arm below
    // reschedules issue at the resume cycle.
    if (restoring) {
        // nothing to launch
    } else if (config.demandPaging) {
        gpu.startAll(0);
    } else {
        for (auto &ctx : apps) {
            AppCtx *app_ptr = ctx.get();
            app_ptr->prefetchesPending =
                static_cast<unsigned>(ctx->layout->buffers().size());
            for (const auto &buf : ctx->layout->buffers()) {
                sys.pager.prefetchRegion(
                    *ctx->pageTable, buf.va, buf.bytes,
                    config.chargePrefetchBus,
                    [app_ptr, &gpu, &events] {
                        if (--app_ptr->prefetchesPending > 0)
                            return;
                        for (const SmId sm : app_ptr->sms)
                            gpu.sm(sm).start(events.now());
                    });
            }
        }
    }

    // The periodic ticks, in arming order. A fresh run arms each at
    // cycle 0 as it is created; a restored run arms them at the resume
    // cycle, in the same order, through rearm() below.
    std::vector<std::unique_ptr<PeriodicTick>> ticks;
    const auto add_tick = [&](Cycles period, std::function<bool()> body) {
        ticks.push_back(std::make_unique<PeriodicTick>(
            PeriodicTick{events, period, quiescing, std::move(body)}));
        if (!restoring)
            ticks.back()->arm(0);
    };

    // Allocation churn (Fig. 16 / Table 2 stress): periodically an
    // application replaces one of its buffers -- the old region is
    // deallocated en masse and a fresh virtual region of the same size
    // is allocated (iterative kernels re-uploading data). The access
    // stream follows the buffer to its new address, so whether the new
    // allocation obtains a contiguity-conserved (coalescible) frame
    // directly affects performance. Additionally, a random slice of
    // another buffer is released to create the internal fragmentation
    // CAC exists to clean up.
    Rng churn_rng(config.seed * 31 + 7);
    if (config.churn.enabled) {
        add_tick(config.churn.periodCycles, [&] {
            std::vector<AppCtx *> live;
            for (auto &ctx : apps) {
                if (!ctx->finished && !ctx->layout->buffers().empty())
                    live.push_back(ctx.get());
            }
            if (live.empty())
                return false;  // every application retired; stop ticking
            AppCtx &app = *live[churn_rng.below(live.size())];
            const AppId id = app.pageTable->appId();
            const auto &bufs = app.layout->buffers();

            // (1) Replace a random buffer at a fresh virtual address.
            const std::size_t victim = churn_rng.below(bufs.size());
            const auto &buf = bufs[victim];
            manager.releaseRegion(id, buf.va, buf.bytes);
            const Addr new_va = app.nextChurnVa;
            app.nextChurnVa += roundUp(buf.bytes, kLargePageSize) +
                               kLargePageSize;
            app.layout->rebaseBuffer(victim, new_va);
            manager.reserveRegion(id, new_va, buf.bytes);

            // (2) Fragment another buffer: release a random slice of it
            // (scratch data freed mid-kernel).
            const auto &frag_buf = bufs[churn_rng.below(bufs.size())];
            const auto slice = roundUp(
                static_cast<std::uint64_t>(
                    double(frag_buf.bytes) * config.churn.releaseFraction),
                kBasePageSize);
            if (slice < frag_buf.bytes) {
                const Addr start = frag_buf.va + roundDown(
                    churn_rng.below(frag_buf.bytes - slice),
                    kBasePageSize);
                manager.releaseRegion(id, start, slice);
            }
            return true;
        });
    }

    // Runner-owned metrics: values that only the harness can see (peak
    // trackers, demand totals). Everything else registered itself at
    // component construction.
    StatsRegistry &registry = sys.registry;
    registry.bindCounterFn("sim.cycles",
                           [&events, &all_finished, &end_cycle] {
                               return all_finished ? end_cycle
                                                   : events.now();
                           });
    registry.bindCounterFn("mm.peakAllocatedBytes",
                           [&peak_allocated, &manager] {
                               return std::max(peak_allocated,
                                               manager.allocatedBytes());
                           });
    registry.bindCounterFn(
        "mm.mosaic.peakCoalescedHoleBytes", [&peak_holes, mosaic] {
            if (mosaic != nullptr)
                return std::max(peak_holes, mosaic->coalescedHoleBytes());
            return peak_holes;
        });
    registry.bindCounterFn("sim.neededBytes", [&apps] {
        std::uint64_t needed = 0;
        for (const auto &ctx : apps) {
            for (const auto &buf : ctx->layout->buffers())
                needed += roundUp(buf.touchedBytes, kBasePageSize);
        }
        return needed;
    });

    // Opt-in interval sampler: records a full registry snapshot every
    // metricsSamplePeriod cycles so benches can plot metric activity
    // over a run. Snapshot events never mutate simulator state, so the
    // simulated outcome is identical with sampling on or off.
    std::vector<MetricsSnapshot> samples;
    if (config.metricsSamplePeriod > 0) {
        add_tick(config.metricsSamplePeriod, [&] {
            samples.push_back(registry.snapshot(events.now()));
            return !all_finished;
        });
    }

    // Trace counter tracks: the same observation-only pattern as the
    // metrics sampler above -- the tick events shift insertion sequence
    // numbers of later events but never their relative order, and the
    // callback only reads, so the simulated outcome is unchanged.
    if (tr != nullptr && tr->on(kTraceCounter) &&
        config.trace.counterPeriodCycles > 0) {
        add_tick(config.trace.counterPeriodCycles, [&] {
            sampleCounterTracks(*tr, registry, events.now());
            return !all_finished;
        });
    }

    // --- Checkpoint/restore machinery (DESIGN.md §14) -------------------
    const std::uint64_t fingerprint = configFingerprint(workload, config);

    // The component sections, then the runner's own. Only ever called
    // at a quiesce point: SMs paused, every queue drained (each
    // component's saveState asserts its own share of that contract),
    // and crucially *before* the re-arm, so the captured event-queue
    // clocks exclude the resume events -- the restore path re-creates
    // them through the same rearm() call instead.
    const auto save_all = [&](ckpt::Writer &w) {
        sys.save(w);
        w.section(kSecRunner);
        w.boolean(all_finished);
        w.u64(end_cycle);
        w.u64(peak_allocated);
        w.u64(peak_holes);
        w.u32(apps_remaining);
        for (const auto &ctx : apps) {
            w.u32(ctx->smsDone);
            w.boolean(ctx->finished);
            w.u64(ctx->finishAt);
            w.u32(ctx->prefetchesPending);
            w.u64(ctx->nextChurnVa);
            const auto &bufs = ctx->layout->buffers();
            w.u64(bufs.size());
            for (const auto &buf : bufs)
                w.u64(buf.va);
        }
        for (const std::uint64_t word : churn_rng.serializeState())
            w.u64(word);
    };

    const auto load_all = [&](ckpt::Reader &r) {
        sys.load(r);
        if (!r.ok())
            return;
        r.section(kSecRunner, "runner");
        all_finished = r.boolean();
        end_cycle = r.u64();
        peak_allocated = r.u64();
        peak_holes = r.u64();
        apps_remaining = r.u32();
        for (const auto &ctx : apps) {
            ctx->smsDone = r.u32();
            ctx->finished = r.boolean();
            ctx->finishAt = r.u64();
            ctx->prefetchesPending = r.u32();
            ctx->nextChurnVa = r.u64();
            const std::uint64_t n_bufs = r.count(1u << 20, "buffer count");
            if (!r.ok())
                return;
            if (n_bufs != ctx->layout->buffers().size()) {
                r.fail("buffer count mismatch (workload changed?)");
                return;
            }
            // Churn moves buffers to fresh virtual addresses; the
            // layout (and through it every warp stream) follows.
            for (std::size_t b = 0; b < n_bufs; ++b) {
                const Addr va = r.u64();
                if (r.ok() && va != ctx->layout->buffers()[b].va)
                    ctx->layout->rebaseBuffer(b, va);
            }
        }
        std::array<std::uint64_t, 4> rng_words;
        for (std::uint64_t &word : rng_words)
            word = r.u64();
        if (r.ok())
            churn_rng.deserializeState(rng_words);
    };

    // Every scheduled checkpoint whose trigger is at-or-before the
    // quiesce point R saves the same quiesced state. A restore re-saves
    // triggers <= its resume cycle here, byte-identical to the original
    // file (the save->restore->save stability contract).
    const auto save_due_checkpoints = [&](Cycles R) {
        while (next_ckpt < ckpt_schedule.size() &&
               ckpt_schedule[next_ckpt].first <= R) {
            ckpt::Writer w;
            save_all(w);
            ckpt::Header h;
            h.fingerprint = fingerprint;
            h.resumeCycle = R;
            const std::string err = ckpt::writeFile(
                ckpt_schedule[next_ckpt].second, h, w.buffer());
            if (!err.empty())
                MOSAIC_FATAL(err);
            ++next_ckpt;
        }
    };

    // Re-arms the simulation at quiesce point R: SM issue in id order,
    // then the periodic ticks. The identical call sequence runs after
    // an in-process save and after a restore, scheduling the same
    // events with the same sequence numbers -- which is what makes the
    // two arms byte-equal from R on.
    const auto rearm = [&](Cycles R) {
        gpu.resumeAll(R);
        for (const auto &tick : ticks)
            tick->arm(R);
    };

    if (restoring) {
        ckpt::Reader r(restore_payload);
        load_all(r);
        if (r.ok() && !r.atEnd())
            r.fail("trailing bytes after payload");
        if (!r.ok())
            MOSAIC_FATAL("checkpoint " + config.ckpt.restorePath + ": " +
                         r.error());
        save_due_checkpoints(restore_header.resumeCycle);
        rearm(restore_header.resumeCycle);
    }

    // Sampled engine-dispatch instants (0 = off): one marker every N
    // events the loop dispatches keeps the ring from flooding at full
    // dispatch rate.
    const std::uint64_t sample_every =
        tr != nullptr && tr->on(kTraceEngine) ? config.trace.engineSampleEvery
                                              : 0;
    std::uint64_t executed = 0;
    while (!all_finished && events.now() < config.maxCycles) {
        // Checkpoint trigger: at the first moment the next pending event
        // is at-or-after the trigger cycle, pause SM issue and drain the
        // queue (pending ticks fire but do no work), then save at R =
        // the drained clock. An empty queue never triggers: that is
        // either the natural end of the run or a deadlock, and both have
        // their own reporting.
        if (next_ckpt < ckpt_schedule.size() &&
            events.nextEventAt() != EventQueue::kNoEvent &&
            events.nextEventAt() >= ckpt_schedule[next_ckpt].first) {
            gpu.pauseAll();
            quiescing = true;
            while (events.runOne()) {
            }
            const Cycles R = events.now();
            save_due_checkpoints(R);
            quiescing = false;
            rearm(R);
            continue;
        }
        if (!events.runOne())
            MOSAIC_PANIC("simulation deadlocked: no events pending");
        if (sample_every != 0 && ++executed % sample_every == 0) {
            tr->instant(kTraceEngine, TraceTrack::Engine, "engine.sample",
                        events.now(), {"executed", executed},
                        {"pending", events.pending()});
        }
    }
    if (next_ckpt < ckpt_schedule.size()) {
        MOSAIC_WARN_AT(events.now(),
                       "simulation ended with " +
                           std::to_string(ckpt_schedule.size() - next_ckpt) +
                           " scheduled checkpoint(s) never triggered");
    }
    if (!all_finished)
        MOSAIC_WARN_AT(events.now(),
                       "simulation hit maxCycles before completion");
    // A final counter sample after the last event (application teardown
    // included) lets trace_check reconcile the counter tracks against
    // the complete event stream.
    if (tr != nullptr && tr->on(kTraceCounter))
        sampleCounterTracks(*tr, registry, events.now());

    // Final sweep: after teardown every invariant must still hold (all
    // apps released their regions, so the shadow should be empty too).
    if (sys.checker != nullptr)
        sys.checker->verifyAll();

    // Harvest: the registry snapshot carries every counter; only the
    // per-app view below is assembled by hand.
    SimResult result;
    result.configLabel = config.label;
    result.workloadName = workload.name;
    // Harvest at the instant the last app finished.
    const Cycles snap_now = all_finished ? end_cycle : events.now();
    result.totalCycles = snap_now;
    for (auto &ctx : apps) {
        AppResult app;
        app.name = ctx->params.name;
        app.smCount = ctx->smCount;
        app.finishCycle = ctx->finished ? ctx->finishAt : snap_now;
        for (const SmId sm : ctx->sms) {
            app.instructions += gpu.sm(sm).stats().instructions;
            app.farFaultStalls += gpu.sm(sm).stats().farFaultStalls;
        }
        app.ipc = safeRatio(double(app.instructions),
                            double(app.finishCycle));
        const auto xs = sys.translation.appStats(ctx->pageTable->appId());
        app.l1TlbHitRate = safeRatio(double(xs.l1Hits),
                                     double(xs.requests));
        app.pageWalks = xs.walks;
        result.apps.push_back(std::move(app));
    }

    result.metrics = registry.snapshot(snap_now);
    result.metricsSamples = std::move(samples);
    result.trace = std::move(tracer);
    return result;
}

double
l1TlbHitRate(const MetricsSnapshot &m)
{
    return safeRatio(m.real("vm.translation.l1Hits"),
                     m.real("vm.translation.requests"));
}

double
l2TlbHitRate(const MetricsSnapshot &m)
{
    const double hits = m.real("vm.translation.l2Hits");
    return safeRatio(hits, hits + m.real("vm.translation.walksIssued"));
}

double
l1CacheHitRate(const MetricsSnapshot &m)
{
    return safeRatio(m.real("cache.l1.hits"), m.real("cache.l1.accesses"));
}

double
l2CacheHitRate(const MetricsSnapshot &m)
{
    return safeRatio(m.real("cache.l2.hits"), m.real("cache.l2.accesses"));
}

std::vector<double>
aloneIpcs(const Workload &workload, const SimConfig &sharedConfig)
{
    // Memoized across calls: benchmark sweeps reuse the same denominators
    // for dozens of configurations. SweepRunner calls this concurrently,
    // so the memo is mutex-guarded; the alone-run itself executes outside
    // the lock (two threads may race to compute the same key, but the
    // value is a deterministic function of the key, so either write is
    // correct -- we trade a rare duplicated run for not serializing every
    // memoized lookup behind a multi-second simulation).
    static std::mutex cache_mutex;
    static std::map<std::string, double> cache;  // guarded by cache_mutex

    const auto shares = Gpu::partitionSms(
        sharedConfig.gpu.numSms,
        static_cast<unsigned>(workload.apps.size()));

    std::vector<double> ipcs;
    for (std::size_t i = 0; i < workload.apps.size(); ++i) {
        const AppParams &app = workload.apps[i];
        const std::string key =
            app.name + "#sm" + std::to_string(shares[i]) + "#i" +
            std::to_string(app.instrPerWarp) + "#ws" +
            std::to_string(app.workingSetBytes()) + "#w" +
            std::to_string(sharedConfig.gpu.sm.warpsPerSm) + "#io" +
            std::to_string(sharedConfig.pcie.bytesPerCycle) + "#p" +
            std::to_string(sharedConfig.demandPaging ? 1 : 0);
        {
            std::lock_guard<std::mutex> lock(cache_mutex);
            const auto it = cache.find(key);
            if (it != cache.end()) {
                ipcs.push_back(it->second);
                continue;
            }
        }

        // The denominator runs under the baseline memory manager and
        // TLB, but inherits the shared run's substrate (GPU, caches,
        // DRAM, I/O bus, paging mode) so the ratio isolates sharing.
        SimConfig alone_cfg = SimConfig::baseline();
        alone_cfg.gpu = sharedConfig.gpu;
        alone_cfg.gpu.numSms = shares[i];
        alone_cfg.caches = sharedConfig.caches;
        alone_cfg.dram = sharedConfig.dram;
        alone_cfg.pcie = sharedConfig.pcie;
        alone_cfg.walker = sharedConfig.walker;
        alone_cfg.demandPaging = sharedConfig.demandPaging;
        alone_cfg.chargePrefetchBus = sharedConfig.chargePrefetchBus;
        alone_cfg.seed = sharedConfig.seed;
        Workload alone_wl;
        alone_wl.name = app.name + "-alone";
        alone_wl.apps.push_back(app);
        const SimResult r = runSimulation(alone_wl, alone_cfg);
        const double ipc = r.apps[0].ipc;
        {
            std::lock_guard<std::mutex> lock(cache_mutex);
            cache[key] = ipc;
        }
        ipcs.push_back(ipc);
    }
    return ipcs;
}

double
weightedSpeedupOf(const SimResult &result, const std::vector<double> &alone)
{
    std::vector<double> shared;
    shared.reserve(result.apps.size());
    for (const AppResult &app : result.apps)
        shared.push_back(app.ipc);
    return weightedSpeedup(shared, alone);
}

}  // namespace mosaic
