#include "trace/trace_validate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mosaic {

namespace {

/** Nearest-rank percentile of an ascending-sorted sample. */
double
percentileOf(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

/** Replay state for one large-frame lifecycle flow. */
struct FrameState
{
    bool coalesced = false;
    bool sawCoalesce = false;
    bool sawSplinter = false;
    bool sawCompact = false;
};

void
err(TraceCheckResult &r, std::string msg)
{
    r.ok = false;
    r.errors.push_back(std::move(msg));
}

std::string
at(const JsonValue &e)
{
    return " (event '" + e.str("name") + "' id " + e.str("id") + " ts " +
           std::to_string(static_cast<long long>(e.num("ts"))) + ")";
}

}  // namespace

TraceCheckResult
validateChromeTrace(const JsonValue &root, bool collectStats)
{
    TraceCheckResult r;
    if (!root.isObject()) {
        err(r, "trace document is not a JSON object");
        return r;
    }
    const JsonValue *events = root.get("traceEvents");
    if (events == nullptr || !events->isArray()) {
        err(r, "missing traceEvents array");
        return r;
    }
    std::uint32_t categories = ~0u;
    if (const JsonValue *other = root.get("otherData");
        other != nullptr && other->isObject()) {
        r.dropped = static_cast<std::uint64_t>(other->num("dropped"));
        categories = static_cast<std::uint32_t>(other->num("categories", ~0u));
        // Per-category drop accounting must cover every drop exactly.
        if (const JsonValue *byCat = other->get("droppedByCategory");
            byCat != nullptr && byCat->isObject()) {
            std::uint64_t sum = 0;
            for (const auto &[cat, v] : byCat->object) {
                const auto n = static_cast<std::uint64_t>(v.number);
                r.droppedByCategory.emplace_back(cat, n);
                sum += n;
            }
            if (sum != r.dropped)
                err(r, "droppedByCategory sums to " + std::to_string(sum) +
                           " but otherData.dropped is " +
                           std::to_string(r.dropped));
        } else if (byCat != nullptr) {
            err(r, "otherData.droppedByCategory is not an object");
        }
    }
    // With ring-buffer drops, the oldest events (and thus any span's
    // opening edge) may be missing: only shape checks stay meaningful.
    const bool strict = r.dropped == 0;
    if (!strict)
        r.notes.push_back("ring buffer dropped " +
                          std::to_string(r.dropped) +
                          " events; lifecycle checks skipped");

    // (cat, id) -> stack of begin timestamps. Nestable async events
    // share one id per flow; nesting is positional, so each "b" pushes
    // and each "e" closes the innermost open span (stack semantics).
    std::map<std::pair<std::string, std::string>, std::vector<double>> open;
    // (cat, id) -> tid of the series' first event. A span never
    // changes track: every event of one flow records on the same one.
    std::map<std::pair<std::string, std::string>, unsigned> seriesTid;
    // frame id -> lifecycle replay state.
    std::map<std::string, FrameState> frames;
    // counter name -> last sampled value.
    std::map<std::string, double> counters;
    // span name -> observed durations (collectStats only).
    std::map<std::string, std::vector<double>> durations;
    std::set<unsigned> metaTids;  ///< tids declared via thread_name
    std::set<unsigned> usedTids;  ///< tids referenced by trace events

    double lastTs = 0.0;
    bool sawEvent = false;
    for (const JsonValue &e : events->array) {
        if (!e.isObject()) {
            err(r, "traceEvents entry is not an object");
            continue;
        }
        const std::string ph = e.str("ph");
        if (ph == "M") {  // metadata carries no timestamp
            if (e.str("name") == "thread_name")
                metaTids.insert(static_cast<unsigned>(e.num("tid")));
            continue;
        }
        ++r.events;

        const std::string name = e.str("name");
        if (name.empty())
            err(r, "event without a name" + at(e));
        if (ph.empty()) {
            err(r, "event without a phase" + at(e));
            continue;
        }
        const JsonValue *ts = e.get("ts");
        if (ts == nullptr || !ts->isNumber()) {
            err(r, "event without a numeric ts" + at(e));
            continue;
        }
        if (ts->number < 0)
            err(r, "negative timestamp" + at(e));
        // The exporter replays the ring in record order; simulated time
        // never goes backwards, so neither may the stream.
        if (sawEvent && ts->number < lastTs)
            err(r, "timestamps out of order" + at(e));
        lastTs = ts->number;
        sawEvent = true;

        // Every event's tid is a known track with a named metadata
        // track.
        unsigned tid = ~0u;
        if (const JsonValue *tv = e.get("tid");
            tv == nullptr || !tv->isNumber()) {
            err(r, "event without a numeric tid" + at(e));
        } else {
            tid = static_cast<unsigned>(tv->number);
            if (tid < 1 || tid > 6)
                err(r, "tid " + std::to_string(tid) +
                           " names an unknown track" + at(e));
            usedTids.insert(tid);
        }

        if (ph == "C") {
            ++r.counterSamples;
            const JsonValue *args = e.get("args");
            if (args == nullptr || !args->isObject() ||
                args->get("value") == nullptr) {
                err(r, "counter sample without args.value" + at(e));
                continue;
            }
            counters[name] = args->num("value");
            continue;
        }
        if (ph == "X") {
            if (e.get("dur") == nullptr)
                err(r, "complete event without dur" + at(e));
            else if (collectStats)
                durations[name].push_back(e.num("dur"));
            continue;
        }
        if (ph == "i") {
            if (name == "mm.softGuaranteeViolation")
                ++r.violations;
            continue;
        }
        if (ph != "b" && ph != "n" && ph != "e") {
            err(r, "unknown phase '" + ph + "'" + at(e));
            continue;
        }

        // Nestable async events: matched by (cat, id).
        const std::string id = e.str("id");
        if (id.empty()) {
            err(r, "async event without an id" + at(e));
            continue;
        }
        const auto key = std::make_pair(e.str("cat"), id);
        // Every event of one async series must live on the tid that
        // opened it.
        if (tid != ~0u) {
            const auto [series, inserted] = seriesTid.emplace(key, tid);
            if (!inserted && series->second != tid)
                err(r, "async series moved from tid " +
                           std::to_string(series->second) + " to tid " +
                           std::to_string(tid) + at(e));
        }
        auto stack = open.find(key);
        if (ph == "b") {
            open[key].push_back(ts->number);
            if (name == "walk")
                ++r.walkSpans;
        } else if (stack == open.end() || stack->second.empty()) {
            if (strict)
                err(r,
                    std::string(ph == "e" ? "span closed" : "span marked") +
                        " but never opened" + at(e));
        } else if (ph == "e") {
            if (ts->number < stack->second.back())
                err(r, "span ends before it begins" + at(e));
            if (collectStats)
                durations[name].push_back(ts->number -
                                          stack->second.back());
            stack->second.pop_back();
            if (stack->second.empty())
                open.erase(stack);
        }

        // Frame lifecycle state machine: alloc -> (coalesce ->
        // splinter)* -> free, with compaction only on uncoalesced live
        // frames. Only frames whose alloc is in the trace participate.
        if (name.rfind("frame", 0) != 0)
            continue;
        if (name == "frame" && ph == "b") {
            ++r.frameLifecycles;
            if (strict && frames.count(id) != 0)
                err(r, "frame allocated while already live" + at(e));
            frames[id] = FrameState{};
            continue;
        }
        auto it = frames.find(id);
        if (it == frames.end()) {
            if (strict)
                err(r, "frame event on a frame never allocated" + at(e));
            continue;
        }
        FrameState &f = it->second;
        if (name == "frame" && ph == "e") {
            if (f.coalesced)
                err(r, "frame freed while still coalesced" + at(e));
            ++r.completeLifecycles;
            frames.erase(it);
        } else if (name == "frame.coalesce") {
            ++r.coalesces;
            if (f.coalesced)
                err(r, "frame coalesced twice" + at(e));
            f.coalesced = true;
            f.sawCoalesce = true;
        } else if (name == "frame.splinter") {
            ++r.splinters;
            if (!f.coalesced)
                err(r, "uncoalesced frame splintered" + at(e));
            f.coalesced = false;
            f.sawSplinter = true;
        } else if (name == "frame.compact") {
            ++r.compactions;
            if (f.coalesced)
                err(r, "coalesced frame compacted without splinter" + at(e));
            f.sawCompact = true;
        }
        // Other frame markers (frame.fragmented,
        // frame.emergencySplinter) only require a live frame, which the
        // lookup above already proved.
    }

    // Track metadata: the exporter names every track, so a tid without
    // thread_name metadata means the document was not written by it.
    for (const unsigned tid : usedTids)
        if (metaTids.count(tid) == 0)
            err(r, "tid " + std::to_string(tid) +
                       " carries events but has no thread_name metadata");

    if (collectStats) {
        for (auto &[name, durs] : durations) {
            std::sort(durs.begin(), durs.end());
            SpanStats s;
            s.name = name;
            s.count = durs.size();
            double total = 0.0;
            for (const double d : durs)
                total += d;
            s.mean = total / static_cast<double>(durs.size());
            s.p50 = percentileOf(durs, 0.50);
            s.p95 = percentileOf(durs, 0.95);
            s.p99 = percentileOf(durs, 0.99);
            s.max = durs.back();
            r.spanStats.push_back(std::move(s));
        }
    }

    r.openSpans = 0;
    for (const auto &entry : open)
        r.openSpans += entry.second.size();
    if (r.openSpans > 0)
        r.notes.push_back(std::to_string(r.openSpans) +
                          " spans still open at end of trace (frames "
                          "live at shutdown are expected)");

    // Cross-check: the final counter samples must agree with the event
    // stream. Needs both the mm and counter categories recorded, an
    // intact ring, and at least one sample taken after the last event.
    const bool haveMm = (categories & 0x4u) != 0;      // kTraceMm
    const bool haveCtr = (categories & 0x20u) != 0;    // kTraceCounter
    if (strict && haveMm && haveCtr && r.counterSamples > 0) {
        const struct
        {
            const char *counter;
            std::uint64_t observed;
        } checks[] = {
            {"mm.coalesceOps", r.coalesces},
            {"mm.splinterOps", r.splinters},
            {"mm.compactions", r.compactions},
            {"mm.softGuaranteeViolations", r.violations},
        };
        for (const auto &c : checks) {
            const auto it = counters.find(c.counter);
            if (it == counters.end())
                continue;  // counter never crossed the sample window
            if (static_cast<std::uint64_t>(it->second) != c.observed)
                err(r, std::string(c.counter) + " counter track says " +
                           std::to_string(
                               static_cast<std::uint64_t>(it->second)) +
                           " but the event stream contains " +
                           std::to_string(c.observed) + " events");
        }
    } else if (strict && haveMm && haveCtr) {
        r.notes.push_back("no counter samples; cross-check skipped");
    }

    return r;
}

TraceCheckResult
validateChromeTraceText(const std::string &text, bool collectStats)
{
    JsonValue root;
    std::string error;
    if (!parseJson(text, root, &error)) {
        TraceCheckResult r;
        err(r, "JSON parse error: " + error);
        return r;
    }
    return validateChromeTrace(root, collectStats);
}

}  // namespace mosaic
