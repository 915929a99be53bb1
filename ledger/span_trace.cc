#include "span_trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#define LEDGER_NO_HOOK __attribute__((no_instrument_function))

namespace ledger {

namespace {

/** Raw timestamp: the TSC where there is one (cheap enough to take at
 *  every layer change), else the steady clock in ns. */
LEDGER_NO_HOOK inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

constexpr std::int8_t kUnmapped = -1;
/** Layer index of the root frame: the uninstrumented ledger program. */
constexpr std::int8_t kOutside = kNumLayers;

/** Open-addressing map from function address to layer. */
struct Slot
{
    std::uintptr_t addr = 0;
    std::int8_t layer = kUnmapped;
};
std::vector<Slot> g_table;
std::uintptr_t g_mask = 0;
std::uintptr_t g_dispatch = 0;

LEDGER_NO_HOOK inline std::size_t
slotOf(std::uintptr_t addr)
{
    return static_cast<std::size_t>(((addr >> 4) * 0x9E3779B97F4A7C15ull) >>
                                    20) &
           g_mask;
}

LEDGER_NO_HOOK inline std::int8_t
layerOf(std::uintptr_t addr)
{
    for (std::size_t i = slotOf(addr);; i = (i + 1) & g_mask) {
        const Slot &s = g_table[i];
        if (s.addr == addr)
            return s.layer;
        if (s.addr == 0)
            return kUnmapped;
    }
}

struct Frame
{
    std::int8_t layer;
    std::uint32_t depth;  ///< same-layer calls nested inside this span
    std::uint32_t span;   ///< span id (0 = the root frame)
    std::uint64_t start;
    std::uint64_t child;  ///< ticks covered by child spans
};

struct SpanRec
{
    std::uint32_t parent;
    std::int8_t layer;
    std::uint64_t start;
    std::uint64_t end;
};

bool g_active = false;
std::vector<Frame> g_stack;
std::vector<SpanRec> g_kept;
std::uint64_t g_selfTicks[kNumLayers + 1];
std::uint64_t g_calls[kNumLayers + 1];
std::uint64_t g_setupTicks[kNumLayers + 1];
bool g_sawEvent = false;
std::uint64_t g_events = 0;
std::uint64_t g_unmapped = 0;
std::uint32_t g_nextSpan = 0;
/** Id of the first kept span: the first one opened after the first
 *  event, so the kept window shows the simulation, not its set-up. */
std::uint32_t g_keepFrom = ~std::uint32_t{0};
std::uint64_t g_t0 = 0, g_t1 = 0;
std::chrono::steady_clock::time_point g_c0, g_c1;

/** Self time per layer as of @p now, counting still-open spans. */
LEDGER_NO_HOOK void
snapshotSelf(std::uint64_t now, std::uint64_t *out)
{
    for (int l = 0; l <= kNumLayers; ++l)
        out[l] = g_selfTicks[l];
    for (const Frame &f : g_stack)
        out[f.layer] += now - f.start - f.child;
}

LEDGER_NO_HOOK double
nsPerTick()
{
    const double ns =
        std::chrono::duration<double, std::nano>(g_c1 - g_c0).count();
    return g_t1 > g_t0 ? ns / double(g_t1 - g_t0) : 1.0;
}

}  // namespace

std::string
loadLayerTable(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return "cannot open layer table " + path;
    std::vector<std::pair<std::uintptr_t, std::int8_t>> rows;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string addr, layer, role;
        if (!(fields >> addr >> layer >> role))
            return "malformed layer table line: " + line;
        std::int8_t index = kUnmapped;
        for (int l = 0; l < kNumLayers; ++l)
            if (layer == kLayerNames[l])
                index = static_cast<std::int8_t>(l);
        if (index == kUnmapped)
            return "unknown layer '" + layer + "' in layer table";
        const auto a =
            static_cast<std::uintptr_t>(std::stoull(addr, nullptr, 16));
        if (a == 0)
            return "zero address in layer table";
        rows.emplace_back(a, index);
        if (role == "event")
            g_dispatch = a;
    }
    if (rows.empty())
        return "empty layer table " + path;
    if (g_dispatch == 0)
        return "layer table names no event-dispatch function";
    std::size_t size = 1;
    while (size < rows.size() * 4)
        size <<= 1;
    g_table.assign(size, Slot{});
    g_mask = size - 1;
    for (const auto &[a, l] : rows) {
        std::size_t i = slotOf(a);
        while (g_table[i].addr != 0 && g_table[i].addr != a)
            i = (i + 1) & g_mask;
        g_table[i] = Slot{a, l};
    }
    return {};
}

void
beginTrace()
{
    g_stack.clear();
    g_stack.reserve(1024);
    g_kept.clear();
    g_kept.reserve(kMaxKeptSpans);
    for (int l = 0; l <= kNumLayers; ++l)
        g_selfTicks[l] = g_calls[l] = g_setupTicks[l] = 0;
    g_sawEvent = false;
    g_events = g_unmapped = 0;
    g_nextSpan = 0;
    g_keepFrom = ~std::uint32_t{0};
    g_c0 = std::chrono::steady_clock::now();
    g_t0 = ticks();
    g_stack.push_back(Frame{kOutside, 0, 0, g_t0, 0});
    g_active = true;
}

LayerProfile
endTrace()
{
    g_active = false;
    g_t1 = ticks();
    g_c1 = std::chrono::steady_clock::now();
    const double scale = nsPerTick() * 1e-9;
    std::uint64_t self[kNumLayers + 1];
    snapshotSelf(g_t1, self);
    LayerProfile p;
    p.wallS = double(g_t1 - g_t0) * scale;
    for (int l = 0; l < kNumLayers; ++l) {
        p.selfS[l] = double(self[l]) * scale;
        p.calls[l] = g_calls[l];
        p.setupSelfS[l] = double(g_setupTicks[l]) * scale;
    }
    p.events = g_events;
    p.unmappedEntries = g_unmapped;
    p.spans = g_nextSpan;
    p.spansKept = g_kept.size();
    return p;
}

bool
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const double scale = nsPerTick();
    std::fprintf(f, "id,parent,layer,start_ns,end_ns\n");
    for (std::size_t i = 0; i < g_kept.size(); ++i) {
        const SpanRec &s = g_kept[i];
        std::fprintf(f, "%zu,%u,%s,%.0f,%.0f\n", g_keepFrom + i, s.parent,
                     kLayerNames[s.layer], double(s.start - g_t0) * scale,
                     double(s.end - g_t0) * scale);
    }
    return std::fclose(f) == 0;
}

}  // namespace ledger

using namespace ledger;

extern "C" LEDGER_NO_HOOK void
__cyg_profile_func_enter(void *fn, void *)
{
    if (!g_active)
        return;
    const auto addr = reinterpret_cast<std::uintptr_t>(fn);
    if (addr == g_dispatch) {
        ++g_events;
        if (!g_sawEvent) {
            g_sawEvent = true;
            snapshotSelf(ticks(), g_setupTicks);
            g_keepFrom = g_nextSpan + 1;
        }
    }
    const std::int8_t layer = layerOf(addr);
    Frame &top = g_stack.back();
    if (layer == kUnmapped)
        ++g_unmapped;
    if (layer == kUnmapped || layer == top.layer) {
        ++top.depth;
        return;
    }
    const std::uint32_t id = ++g_nextSpan;
    const std::uint64_t now = ticks();
    if (id >= g_keepFrom && g_kept.size() < kMaxKeptSpans)
        g_kept.push_back(SpanRec{top.span, layer, now, 0});
    ++g_calls[layer];
    g_stack.push_back(Frame{layer, 0, id, now, 0});
}

extern "C" LEDGER_NO_HOOK void
__cyg_profile_func_exit(void *, void *)
{
    if (!g_active)
        return;
    Frame &top = g_stack.back();
    if (top.depth > 0) {
        --top.depth;
        return;
    }
    if (g_stack.size() == 1)
        return;  // the root frame never closes before endTrace()
    const std::uint64_t now = ticks();
    const std::uint64_t dur = now - top.start;
    g_selfTicks[top.layer] += dur - top.child;
    if (top.span >= g_keepFrom && top.span - g_keepFrom < g_kept.size())
        g_kept[top.span - g_keepFrom].end = now;
    g_stack.pop_back();
    g_stack.back().child += dur;
}
