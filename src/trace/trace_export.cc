#include "trace/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/log.h"

namespace mosaic {

namespace {

/** Chrome "ph" letter for a phase. */
const char *
phaseLetter(TracePhase phase)
{
    switch (phase) {
    case TracePhase::Complete:
        return "X";
    case TracePhase::Instant:
        return "i";
    case TracePhase::AsyncBegin:
        return "b";
    case TracePhase::AsyncInstant:
        return "n";
    case TracePhase::AsyncEnd:
        return "e";
    case TracePhase::Counter:
        return "C";
    }
    return "i";
}

/** Track display name (Perfetto thread_name metadata). */
const char *
trackName(TraceTrack track)
{
    switch (track) {
    case TraceTrack::Engine:
        return "engine";
    case TraceTrack::Vm:
        return "vm (TLB / walker)";
    case TraceTrack::Mm:
        return "mm (CoCoA / IPC / CAC)";
    case TraceTrack::Io:
        return "iobus (PCIe / paging)";
    case TraceTrack::Dram:
        return "dram";
    case TraceTrack::Counter:
        return "counters";
    }
    return "?";
}

constexpr int kPid = 1;

void
writeEvent(JsonWriter &w, const TraceEvent &e)
{
    w.beginObject();
    w.field("name", e.name);
    w.field("cat", traceCategoryName(static_cast<TraceCategory>(e.cat)));
    w.field("ph", phaseLetter(e.phase));
    w.field("ts", e.ts);
    if (e.phase == TracePhase::Complete)
        w.field("dur", e.dur);
    w.field("pid", kPid);
    w.field("tid", static_cast<unsigned>(e.track));
    switch (e.phase) {
    case TracePhase::AsyncBegin:
    case TracePhase::AsyncInstant:
    case TracePhase::AsyncEnd: {
        // Chrome matches async events by (cat, id); hex keeps the
        // namespaced 64-bit ids readable.
        char idbuf[24];
        std::snprintf(idbuf, sizeof(idbuf), "0x%llx",
                      static_cast<unsigned long long>(e.id));
        w.field("id", idbuf);
        break;
    }
    case TracePhase::Instant:
        w.field("s", "t");  // thread-scoped instant
        break;
    default:
        break;
    }
    if (e.phase == TracePhase::Counter) {
        w.key("args");
        w.beginObject();
        w.field("value", e.id);
        w.endObject();
    } else if (e.args[0].key != nullptr) {
        w.key("args");
        w.beginObject();
        w.field(e.args[0].key, e.args[0].value);
        if (e.args[1].key != nullptr)
            w.field(e.args[1].key, e.args[1].value);
        w.endObject();
    }
    w.endObject();
}

/**
 * Per-category drop accounting in otherData. Only present when events
 * were actually dropped: the common lossless case stays byte-identical
 * to the historical document (and the golden-locked serial trace).
 */
void
writeDroppedByCategory(JsonWriter &w, const Tracer &tracer)
{
    if (tracer.dropped() == 0)
        return;
    w.key("droppedByCategory");
    w.beginObject();
    for (unsigned bit = 0; bit < kTraceCategoryCount; ++bit) {
        const std::uint64_t n = tracer.droppedInCategory(bit);
        if (n > 0)
            w.field(traceCategoryName(static_cast<TraceCategory>(1u << bit)),
                    n);
    }
    w.endObject();
}

}  // namespace

const char *
traceCategoryName(TraceCategory cat)
{
    switch (cat) {
    case kTraceEngine:
        return "engine";
    case kTraceVm:
        return "vm";
    case kTraceMm:
        return "mm";
    case kTraceIo:
        return "io";
    case kTraceDram:
        return "dram";
    case kTraceCounter:
        return "counter";
    default:
        return "trace";
    }
}

bool
parseTraceCategories(const std::string &spec, std::uint32_t *mask)
{
    if (spec.empty())
        return false;
    if (spec == "all") {
        *mask = kTraceAll;
        return true;
    }
    // Numeric masks: decimal or 0x-prefixed hex.
    if (spec.find_first_not_of("0123456789") == std::string::npos ||
        spec.rfind("0x", 0) == 0) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(spec.c_str(), &end, 0);
        if (end == nullptr || *end != '\0')
            return false;
        *mask = static_cast<std::uint32_t>(v) & kTraceAll;
        return true;
    }
    // Comma-separated category names.
    std::uint32_t out = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string token =
            spec.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
        bool matched = false;
        for (std::uint32_t bit = 1; bit < kTraceAll + 1; bit <<= 1) {
            if (token == traceCategoryName(static_cast<TraceCategory>(bit))) {
                out |= bit;
                matched = true;
                break;
            }
        }
        if (!matched)
            return false;
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    *mask = out;
    return true;
}

void
writeChromeTrace(const Tracer &tracer, JsonWriter &w,
                 const std::string &processName)
{
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();

    // Metadata: name the process and every virtual track so Perfetto
    // shows "vm (TLB / walker)" instead of bare thread numbers.
    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", kPid);
    w.key("args");
    w.beginObject();
    w.field("name", processName);
    w.endObject();
    w.endObject();
    for (const TraceTrack track :
         {TraceTrack::Engine, TraceTrack::Vm, TraceTrack::Mm,
          TraceTrack::Io, TraceTrack::Dram, TraceTrack::Counter}) {
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", kPid);
        w.field("tid", static_cast<unsigned>(track));
        w.key("args");
        w.beginObject();
        w.field("name", trackName(track));
        w.endObject();
        w.endObject();
    }

    // Components that resolve latencies synchronously (PCIe, DRAM bulk
    // copies) record a span's end before later-issued begins, so ring
    // order is not time order. Stable-sort by timestamp: deterministic,
    // and record order breaks ties so b/e pairs at one tick stay
    // ordered.
    std::vector<const TraceEvent *> ordered;
    ordered.reserve(tracer.size());
    tracer.forEach([&ordered](const TraceEvent &e) { ordered.push_back(&e); });
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TraceEvent *a, const TraceEvent *b) {
                         return a->ts < b->ts;
                     });
    for (const TraceEvent *e : ordered)
        writeEvent(w, *e);
    w.endArray();

    w.field("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    w.field("clock", "GPU core cycles (1 trace us == 1 cycle)");
    w.field("recorded", tracer.recorded());
    w.field("dropped", tracer.dropped());
    w.field("categories", tracer.mask());
    writeDroppedByCategory(w, tracer);
    w.endObject();
    w.endObject();
}

std::string
chromeTraceJson(const Tracer &tracer, const std::string &processName)
{
    JsonWriter w;
    writeChromeTrace(tracer, w, processName);
    return w.str();
}

bool
writeChromeTraceFile(const Tracer &tracer, const std::string &path,
                     const std::string &processName)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        MOSAIC_WARN("cannot open " + path + " for writing");
        return false;
    }
    const std::string json = chromeTraceJson(tracer, processName);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

}  // namespace mosaic
