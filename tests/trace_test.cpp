/** @file Tests of the event tracer: ring buffer semantics, category
 *  gating, export/replay round trips, trace determinism (serial and
 *  under the parallel SweepRunner), the observation-only guarantee, and
 *  the trace_check invariant validator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "runner/json_report.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "trace/trace_export.h"
#include "trace/trace_reader.h"
#include "trace/trace_validate.h"
#include "trace/tracer.h"
#include "workload/workload.h"

namespace mosaic {
namespace {

TraceConfig
enabledConfig(std::size_t capacity = 1u << 12,
              std::uint32_t categories = kTraceAll)
{
    TraceConfig c;
    c.enabled = true;
    c.categories = categories;
    c.ringCapacity = capacity;
    return c;
}

std::vector<const TraceEvent *>
eventsOf(const Tracer &t)
{
    std::vector<const TraceEvent *> out;
    t.forEach([&out](const TraceEvent &e) { out.push_back(&e); });
    return out;
}

TEST(TracerTest, DisabledTracerRecordsNothing)
{
    TraceConfig config;  // enabled = false
    config.categories = kTraceAll;
    Tracer t(config);
    EXPECT_EQ(t.mask(), 0u);
    EXPECT_FALSE(t.on(kTraceMm));
    t.instant(kTraceMm, TraceTrack::Mm, "x", 1);
    t.counter("c", 2, 3);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.recorded(), 0u);
}

TEST(TracerTest, CategoryMaskGatesPerCategory)
{
    Tracer t(enabledConfig(64, kTraceMm | kTraceCounter));
    EXPECT_TRUE(t.on(kTraceMm));
    EXPECT_TRUE(t.on(kTraceCounter));
    EXPECT_FALSE(t.on(kTraceVm));
    EXPECT_FALSE(t.on(kTraceIo));
    t.instant(kTraceVm, TraceTrack::Vm, "dropped", 1);
    t.instant(kTraceMm, TraceTrack::Mm, "kept", 2);
    t.counter("kept.counter", 3, 7);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_STREQ(eventsOf(t)[0]->name, "kept");
    EXPECT_STREQ(eventsOf(t)[1]->name, "kept.counter");
}

TEST(TracerTest, RingWrapsDroppingOldest)
{
    Tracer t(enabledConfig(8));
    for (Cycles ts = 0; ts < 20; ++ts)
        t.instant(kTraceMm, TraceTrack::Mm, "e", ts, {"i", ts});
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.dropped(), 12u);
    EXPECT_EQ(t.recorded(), 20u);
    // Survivors are the newest 8, visited oldest-first.
    const auto events = eventsOf(t);
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i]->ts, 12 + i);
}

TEST(TracerTest, NextIdIsDeterministic)
{
    Tracer a(enabledConfig());
    Tracer b(enabledConfig());
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(a.nextId(), b.nextId());
    // The sequence is 1, 2, 3, ...
    Tracer c(enabledConfig());
    EXPECT_EQ(c.nextId(), 1u);
    EXPECT_EQ(c.nextId(), 2u);
}

TEST(TracerTest, DropAccountingChargesOverwrittenCategory)
{
    // Four Mm events fill the ring; two Vm pushes then overwrite the
    // two oldest *Mm* events -- the drop charge follows what was lost,
    // not what arrived.
    Tracer t(enabledConfig(4));
    for (Cycles ts = 0; ts < 4; ++ts)
        t.instant(kTraceMm, TraceTrack::Mm, "mm", ts);
    t.instant(kTraceVm, TraceTrack::Vm, "vm", 4);
    t.instant(kTraceVm, TraceTrack::Vm, "vm", 5);
    EXPECT_EQ(t.dropped(), 2u);
    EXPECT_EQ(t.droppedInCategory(traceCategoryIndex(kTraceMm)), 2u);
    EXPECT_EQ(t.droppedInCategory(traceCategoryIndex(kTraceVm)), 0u);
    EXPECT_EQ(t.droppedInCategory(traceCategoryIndex(kTraceCounter)), 0u);
    // Two more wraps now consume the remaining Mm events, then Vm ones.
    for (Cycles ts = 6; ts < 10; ++ts)
        t.instant(kTraceIo, TraceTrack::Io, "io", ts);
    EXPECT_EQ(t.dropped(), 6u);
    EXPECT_EQ(t.droppedInCategory(traceCategoryIndex(kTraceMm)), 4u);
    EXPECT_EQ(t.droppedInCategory(traceCategoryIndex(kTraceVm)), 2u);
}

TEST(TracerTest, TraceIdNamespacesNeverCollide)
{
    const auto walk = traceId(TraceIdSpace::Walk, 7);
    const auto frame = traceId(TraceIdSpace::Frame, 7);
    EXPECT_NE(walk, frame);
    // The value survives in the low bits.
    EXPECT_EQ(walk & ((1ull << 56) - 1), 7u);
    EXPECT_EQ(frame & ((1ull << 56) - 1), 7u);
}

TEST(TraceCategoryTest, ParseAcceptsAllForms)
{
    std::uint32_t mask = 0;
    EXPECT_TRUE(parseTraceCategories("all", &mask));
    EXPECT_EQ(mask, kTraceAll);
    EXPECT_TRUE(parseTraceCategories("0x6", &mask));
    EXPECT_EQ(mask, kTraceVm | kTraceMm);
    EXPECT_TRUE(parseTraceCategories("63", &mask));
    EXPECT_EQ(mask, kTraceAll);
    EXPECT_TRUE(parseTraceCategories("vm,mm,counter", &mask));
    EXPECT_EQ(mask, kTraceVm | kTraceMm | kTraceCounter);
    std::uint32_t untouched = 42;
    EXPECT_FALSE(parseTraceCategories("vm,bogus", &untouched));
    EXPECT_EQ(untouched, 42u);
    EXPECT_FALSE(parseTraceCategories("", &untouched));
}

TEST(TraceExportTest, RoundTripsThroughReader)
{
    Tracer t(enabledConfig(64));
    t.asyncBegin(kTraceMm, TraceTrack::Mm, "frame",
                 traceId(TraceIdSpace::Frame, 3), 10, {"app", 1});
    t.asyncInstant(kTraceMm, TraceTrack::Mm, "frame.coalesce",
                   traceId(TraceIdSpace::Frame, 3), 20, {"resident", 512});
    t.asyncInstant(kTraceMm, TraceTrack::Mm, "frame.splinter",
                   traceId(TraceIdSpace::Frame, 3), 30);
    t.asyncEnd(kTraceMm, TraceTrack::Mm, "frame",
               traceId(TraceIdSpace::Frame, 3), 40);
    t.counter("mm.coalesceOps", 50, 1);
    t.counter("mm.splinterOps", 50, 1);

    const std::string json = chromeTraceJson(t, "unit-test");
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(json, root, &error)) << error;
    const JsonValue *events = root.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // 6 recorded + 2 x 7 metadata (process + track names).
    EXPECT_GT(events->array.size(), 6u);

    const TraceCheckResult check = validateChromeTrace(root);
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? ""
                                                   : check.errors.front());
    EXPECT_EQ(check.frameLifecycles, 1u);
    EXPECT_EQ(check.completeLifecycles, 1u);
    EXPECT_EQ(check.coalesces, 1u);
    EXPECT_EQ(check.splinters, 1u);
    EXPECT_EQ(check.counterSamples, 2u);
    EXPECT_EQ(check.openSpans, 0u);
}

TEST(TraceExportTest, NestedSpansOnOneIdValidate)
{
    // The walker nests walk.queued / walk.L* under the walk's own id
    // (nestable async semantics are positional); the validator must
    // treat per-id opens as a stack, not a single slot.
    Tracer t(enabledConfig(64));
    const auto id = traceId(TraceIdSpace::Walk, 1);
    t.asyncBegin(kTraceVm, TraceTrack::Vm, "walk", id, 10);
    t.asyncBegin(kTraceVm, TraceTrack::Vm, "walk.L1", id, 12);
    t.asyncEnd(kTraceVm, TraceTrack::Vm, "walk.L1", id, 20);
    t.asyncBegin(kTraceVm, TraceTrack::Vm, "walk.L2", id, 20);
    t.asyncEnd(kTraceVm, TraceTrack::Vm, "walk.L2", id, 30);
    t.asyncEnd(kTraceVm, TraceTrack::Vm, "walk", id, 31);
    const TraceCheckResult check =
        validateChromeTraceText(chromeTraceJson(t));
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? ""
                                                   : check.errors.front());
    EXPECT_EQ(check.walkSpans, 1u);
    EXPECT_EQ(check.openSpans, 0u);
}

TEST(TraceExportTest, DroppedByCategoryIsExportedAndValidated)
{
    // Overflow a tiny ring with a known category mix; the exporter's
    // droppedByCategory object must account for every drop and the
    // validator must agree with otherData.dropped.
    Tracer t(enabledConfig(4, kTraceMm | kTraceIo));
    for (Cycles ts = 0; ts < 6; ++ts)
        t.instant(kTraceMm, TraceTrack::Mm, "mm", ts);
    for (Cycles ts = 6; ts < 9; ++ts)
        t.instant(kTraceIo, TraceTrack::Io, "io", ts);
    ASSERT_EQ(t.dropped(), 5u);

    const std::string json = chromeTraceJson(t);
    EXPECT_NE(json.find("droppedByCategory"), std::string::npos);
    const TraceCheckResult check = validateChromeTraceText(json);
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? ""
                                                   : check.errors.front());
    EXPECT_EQ(check.dropped, 5u);
    std::uint64_t sum = 0, mm = 0;
    for (const auto &[cat, n] : check.droppedByCategory) {
        sum += n;
        if (cat == "mm")
            mm = n;
    }
    EXPECT_EQ(sum, 5u);
    EXPECT_GE(mm, 4u);  // at least the first wrap consumed mm events
}

TEST(TraceExportTest, LosslessExportOmitsDroppedByCategory)
{
    // The zero-drop export (every golden trace) must not change shape.
    Tracer t(enabledConfig(64));
    t.instant(kTraceMm, TraceTrack::Mm, "e", 1);
    EXPECT_EQ(chromeTraceJson(t).find("droppedByCategory"),
              std::string::npos);
}

TEST(TraceExportTest, OrdersByTimeThenRecordOrder)
{
    // Components that resolve latencies synchronously record some
    // events ahead of time; the export sorts by timestamp, and events
    // at one timestamp keep their record order.
    Tracer t(enabledConfig(64));
    t.instant(kTraceVm, TraceTrack::Vm, "late", 10);
    t.instant(kTraceMm, TraceTrack::Mm, "tie-first", 7);
    t.instant(kTraceVm, TraceTrack::Vm, "tie-second", 7);
    t.instant(kTraceVm, TraceTrack::Vm, "early", 5);

    const std::string json = chromeTraceJson(t);
    JsonValue root;
    ASSERT_TRUE(parseJson(json, root, nullptr));
    std::vector<std::string> order;
    std::vector<double> tids;
    for (const JsonValue &e : root.get("traceEvents")->array) {
        if (e.str("ph") == "M")
            continue;
        order.push_back(e.str("name"));
        tids.push_back(e.num("tid"));
    }
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "early");
    EXPECT_EQ(order[1], "tie-first");
    EXPECT_EQ(order[2], "tie-second");
    EXPECT_EQ(order[3], "late");
    // tid is the track number.
    EXPECT_EQ(tids[1], static_cast<double>(TraceTrack::Mm));
    EXPECT_EQ(tids[2], static_cast<double>(TraceTrack::Vm));

    const TraceCheckResult check = validateChromeTraceText(json);
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? ""
                                                   : check.errors.front());
}

TEST(TraceValidateTest, CollectsSpanDurationStats)
{
    Tracer t(enabledConfig(64));
    t.complete(kTraceEngine, TraceTrack::Engine, "tick", 0, 10);
    t.complete(kTraceEngine, TraceTrack::Engine, "tick", 20, 30);
    t.complete(kTraceEngine, TraceTrack::Engine, "tick", 60, 20);
    const auto id = traceId(TraceIdSpace::Walk, 1);
    t.asyncBegin(kTraceVm, TraceTrack::Vm, "walk", id, 100);
    t.asyncEnd(kTraceVm, TraceTrack::Vm, "walk", id, 140);

    const TraceCheckResult check =
        validateChromeTraceText(chromeTraceJson(t), /*collectStats=*/true);
    ASSERT_TRUE(check.ok) << (check.errors.empty() ? ""
                                                   : check.errors.front());
    ASSERT_EQ(check.spanStats.size(), 2u);
    const SpanStats &tick = check.spanStats[0];
    EXPECT_EQ(tick.name, "tick");
    EXPECT_EQ(tick.count, 3u);
    EXPECT_DOUBLE_EQ(tick.mean, 20.0);
    EXPECT_DOUBLE_EQ(tick.p50, 20.0);  // nearest rank of {10, 20, 30}
    EXPECT_DOUBLE_EQ(tick.p95, 30.0);
    EXPECT_DOUBLE_EQ(tick.max, 30.0);
    const SpanStats &walk = check.spanStats[1];
    EXPECT_EQ(walk.name, "walk");
    EXPECT_EQ(walk.count, 1u);
    EXPECT_DOUBLE_EQ(walk.p99, 40.0);
}

TEST(TraceValidateTest, CatchesAsyncSeriesChangingTracks)
{
    // An async span that begins on one track's tid and ends on
    // another's is malformed.
    Tracer t(enabledConfig(64));
    const auto id = traceId(TraceIdSpace::TlbMiss, 7);
    t.asyncBegin(kTraceVm, TraceTrack::Vm, "tlbMiss", id, 10);
    t.asyncEnd(kTraceVm, TraceTrack::Mm, "tlbMiss", id, 20);
    const TraceCheckResult check =
        validateChromeTraceText(chromeTraceJson(t));
    EXPECT_FALSE(check.ok);
    ASSERT_FALSE(check.errors.empty());
    EXPECT_NE(check.errors.front().find("moved from tid"),
              std::string::npos);
}

TEST(TraceValidateTest, CatchesLifecycleViolations)
{
    Tracer t(enabledConfig(64));
    const auto id = traceId(TraceIdSpace::Frame, 9);
    t.asyncBegin(kTraceMm, TraceTrack::Mm, "frame", id, 10);
    // Splinter without a preceding coalesce is illegal.
    t.asyncInstant(kTraceMm, TraceTrack::Mm, "frame.splinter", id, 20);
    const TraceCheckResult check =
        validateChromeTraceText(chromeTraceJson(t));
    EXPECT_FALSE(check.ok);
    ASSERT_FALSE(check.errors.empty());
    EXPECT_NE(check.errors.front().find("splinter"), std::string::npos);
}

TEST(TraceValidateTest, CatchesCounterEventMismatch)
{
    Tracer t(enabledConfig(64, kTraceMm | kTraceCounter));
    const auto id = traceId(TraceIdSpace::Frame, 1);
    t.asyncBegin(kTraceMm, TraceTrack::Mm, "frame", id, 10);
    t.asyncInstant(kTraceMm, TraceTrack::Mm, "frame.coalesce", id, 20);
    t.counter("mm.coalesceOps", 30, 5);  // stream only contains 1
    const TraceCheckResult check =
        validateChromeTraceText(chromeTraceJson(t));
    EXPECT_FALSE(check.ok);
}

TEST(TraceValidateTest, RejectsMalformedDocuments)
{
    EXPECT_FALSE(validateChromeTraceText("not json").ok);
    EXPECT_FALSE(validateChromeTraceText("[]").ok);
    EXPECT_FALSE(validateChromeTraceText("{}").ok);
    EXPECT_TRUE(
        validateChromeTraceText("{\"traceEvents\":[]}").ok);
}

// ---------------------------------------------------------------------
// End-to-end: tracing a real simulation.

Workload
tracedWorkload()
{
    Workload w = scaledWorkload(homogeneousWorkload("HISTO", 2), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    return w;
}

SimConfig
tracedConfig()
{
    SimConfig c = SimConfig::mosaicDefault();
    c.gpu.sm.warpsPerSm = 8;
    c = c.withIoCompression(16.0);
    c.churn.enabled = true;
    // Tight memory so CAC compaction has something to do.
    c.pageTablePoolBytes = 16ull << 20;
    c.dram.capacityBytes = std::max<std::uint64_t>(
        roundUp(tracedWorkload().workingSetBytes() * 8, kLargePageSize) +
            c.pageTablePoolBytes + (8ull << 20),
        64ull << 20);
    return c.withTracing();
}

TEST(TraceSimulationTest, TracedRunProducesValidLifecycles)
{
    const SimResult r = runSimulation(tracedWorkload(), tracedConfig());
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->size(), 0u);

    const TraceCheckResult check =
        validateChromeTraceText(chromeTraceJson(*r.trace, r.configLabel));
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? ""
                                                   : check.errors.front());
    EXPECT_EQ(check.dropped, 0u);
    EXPECT_GT(check.walkSpans, 0u);
    EXPECT_GT(check.frameLifecycles, 0u);
    EXPECT_GT(check.completeLifecycles, 0u);
    EXPECT_GT(check.coalesces, 0u);
    EXPECT_GT(check.splinters, 0u);
    EXPECT_GT(check.counterSamples, 0u);
}

TEST(TraceSimulationTest, TracingIsObservationOnly)
{
    const Workload w = tracedWorkload();
    SimConfig off = tracedConfig();
    off.trace.enabled = false;
    const SimResult traced = runSimulation(w, tracedConfig());
    const SimResult plain = runSimulation(w, off);
    EXPECT_EQ(plain.trace, nullptr);
    // Byte-identical result reports (SimResult::trace is not part of
    // the report, so this compares every metric the run produced).
    EXPECT_EQ(toJson(traced), toJson(plain));
    EXPECT_EQ(traced.totalCycles, plain.totalCycles);
}

TEST(TraceSimulationTest, TraceIsDeterministicSerially)
{
    const Workload w = tracedWorkload();
    const SimConfig c = tracedConfig();
    const SimResult a = runSimulation(w, c);
    const SimResult b = runSimulation(w, c);
    ASSERT_NE(a.trace, nullptr);
    ASSERT_NE(b.trace, nullptr);
    EXPECT_EQ(chromeTraceJson(*a.trace), chromeTraceJson(*b.trace));
}

TEST(TraceSimulationTest, TraceIsDeterministicUnderSweepRunner)
{
    const Workload w = tracedWorkload();
    const SimConfig c = tracedConfig();
    const SimResult serial = runSimulation(w, c);
    SweepRunner runner(2);
    auto f1 = runner.submitSimulation(w, c, "t1");
    auto f2 = runner.submitSimulation(w, c, "t2");
    const SimResult p1 = f1.get();
    const SimResult p2 = f2.get();
    ASSERT_NE(serial.trace, nullptr);
    ASSERT_NE(p1.trace, nullptr);
    ASSERT_NE(p2.trace, nullptr);
    const std::string expected = chromeTraceJson(*serial.trace);
    EXPECT_EQ(chromeTraceJson(*p1.trace), expected);
    EXPECT_EQ(chromeTraceJson(*p2.trace), expected);
}

}  // namespace
}  // namespace mosaic
