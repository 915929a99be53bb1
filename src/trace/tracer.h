/**
 * @file
 * Low-overhead structured event tracer: the temporal-causal complement
 * to the StatsRegistry (DESIGN.md §8 answers "how much"; this answers
 * "when" and "why").
 *
 * One Tracer per simulation, owned by runSimulation() alongside the
 * StatsRegistry and following the same thread-safety contract
 * (DESIGN.md §7): no shared mutable globals, never touched by two
 * threads, so concurrent sweeps each trace into private buffers.
 *
 * Components hold an optional `Tracer *` (nullptr when tracing is off),
 * so the fully-disabled hot path costs exactly one branch at each call
 * site. With a live tracer, category gating is a single bitmask test.
 * Events land in a fixed-capacity ring buffer of POD records -- no
 * allocation per event; when full, the oldest events are overwritten so
 * a trace always holds the *end* of a run (where the interesting
 * coalesce/splinter interference usually is) and `dropped()` reports
 * the loss.
 *
 * Event names and argument keys must be string literals (or otherwise
 * outlive the tracer): records store `const char *`, never copies.
 *
 * The exporter (trace/trace_export.h) renders the buffer as Chrome
 * Trace Event Format JSON, loadable in Perfetto / chrome://tracing.
 */

#ifndef MOSAIC_TRACE_TRACER_H
#define MOSAIC_TRACE_TRACER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace mosaic {

/** Trace categories; one bit each so gating is a single mask test. */
enum TraceCategory : std::uint32_t {
    kTraceEngine  = 1u << 0,  ///< event-loop dispatch samples
    kTraceVm      = 1u << 1,  ///< TLB misses, page-table walks
    kTraceMm      = 1u << 2,  ///< frame lifecycles, CoCoA/IPC/CAC ops
    kTraceIo      = 1u << 3,  ///< PCIe transfers, far-faults
    kTraceDram    = 1u << 4,  ///< bulk copies
    kTraceCounter = 1u << 5,  ///< sampled StatsRegistry counter tracks
    kTraceAll     = (1u << 6) - 1,
};

/** Number of defined category bits (drop accounting is per bit). */
constexpr unsigned kTraceCategoryCount = 6;

/** Bit index of a one-bit category mask (kTraceVm -> 1, ...). */
constexpr unsigned
traceCategoryIndex(std::uint32_t cat)
{
    unsigned idx = 0;
    while (cat > 1u) {
        cat >>= 1;
        ++idx;
    }
    return idx;
}

/** Display name of a single category bit ("vm", "mm", ...). */
const char *traceCategoryName(TraceCategory cat);

/**
 * Parses a category mask: a decimal/hex number ("63", "0x3f"), "all",
 * or a comma-separated list of names ("vm,mm,counter").
 * @return false (mask untouched) on an unrecognized token.
 */
bool parseTraceCategories(const std::string &spec, std::uint32_t *mask);

/** Chrome Trace Event phases the tracer can record. */
enum class TracePhase : std::uint8_t {
    Complete,      ///< "X": span with explicit duration
    Instant,       ///< "i": point event
    AsyncBegin,    ///< "b": open an async span keyed by id
    AsyncInstant,  ///< "n": marker on an open async span
    AsyncEnd,      ///< "e": close an async span
    Counter,       ///< "C": one sample of a counter track
};

/** Virtual timeline a synchronous event renders on (Perfetto "tid"). */
enum class TraceTrack : std::uint8_t {
    Engine = 1,
    Vm,
    Mm,
    Io,
    Dram,
    Counter,
};

/**
 * Id namespaces for async/flow events. Chrome matches async begin/end
 * pairs by (category, id); prefixing the id with its namespace keeps
 * walk ids from ever colliding with frame or transfer ids.
 */
enum class TraceIdSpace : std::uint64_t {
    Walk = 1,
    TlbMiss,
    Frame,
    Pcie,
    Fault,
    BulkCopy,
};

/** Builds a namespaced async id. */
constexpr std::uint64_t
traceId(TraceIdSpace space, std::uint64_t v)
{
    return (static_cast<std::uint64_t>(space) << 56) |
           (v & ((1ull << 56) - 1));
}

/** One optional key/value argument attached to an event. */
struct TraceArg
{
    const char *key = nullptr;  ///< string literal
    std::uint64_t value = 0;
};

/** One fixed-size trace record (ring-buffer element). */
struct TraceEvent
{
    Cycles ts = 0;            ///< simulation time (cycles)
    Cycles dur = 0;           ///< Complete spans only
    std::uint64_t id = 0;     ///< async series id / counter value
    TraceArg args[2];
    const char *name = nullptr;  ///< string literal
    std::uint32_t cat = 0;       ///< one TraceCategory bit
    TracePhase phase = TracePhase::Instant;
    TraceTrack track = TraceTrack::Engine;
};

/** Tracer knobs (SimConfig::trace). */
struct TraceConfig
{
    bool enabled = false;
    /** Bitmask of TraceCategory; disabled categories cost one branch. */
    std::uint32_t categories = kTraceAll;
    /** Ring capacity in events (~80B each); oldest drop when full. */
    std::size_t ringCapacity = 1u << 18;
    /** StatsRegistry counter-track sample interval; 0 disables. */
    Cycles counterPeriodCycles = 50000;
    /** Engine dispatch sampling: one instant every N executed events. */
    std::uint64_t engineSampleEvery = 4096;
};

/** The per-simulation trace recorder: one ring buffer of events. */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &config)
        : config_(config), mask_(config.enabled ? config.categories : 0)
    {
        buf_.reserve(config_.ringCapacity);
    }

    /** Hot-path gate: is @p cat (a TraceCategory bit) recording? */
    bool on(std::uint32_t cat) const { return (mask_ & cat) != 0; }

    /** Active category mask (0 when disabled). */
    std::uint32_t mask() const { return mask_; }

    const TraceConfig &config() const { return config_; }

    /** This ring. Kept only because ledger/ledger_main.cc reads the
     *  trace through it; drop it together with that call. */
    const Tracer &hubRing() const { return *this; }

    /** Monotonic id source for async spans (deterministic per run):
     *  1, 2, 3, ... */
    std::uint64_t nextId() { return ++lastId_; }

    /** Records a complete span [ts, ts+dur). */
    void
    complete(std::uint32_t cat, TraceTrack track, const char *name,
             Cycles ts, Cycles dur, TraceArg a0 = {}, TraceArg a1 = {})
    {
        if (!on(cat))
            return;
        push(TraceEvent{ts, dur, 0, {a0, a1}, name, cat,
                        TracePhase::Complete, track});
    }

    /** Records a point event at @p ts. */
    void
    instant(std::uint32_t cat, TraceTrack track, const char *name,
            Cycles ts, TraceArg a0 = {}, TraceArg a1 = {})
    {
        if (!on(cat))
            return;
        push(TraceEvent{ts, 0, 0, {a0, a1}, name, cat,
                        TracePhase::Instant, track});
    }

    /** Opens async span @p id. */
    void
    asyncBegin(std::uint32_t cat, TraceTrack track, const char *name,
               std::uint64_t id, Cycles ts, TraceArg a0 = {},
               TraceArg a1 = {})
    {
        if (!on(cat))
            return;
        push(TraceEvent{ts, 0, id, {a0, a1}, name, cat,
                        TracePhase::AsyncBegin, track});
    }

    /** Marks an instant on open async span @p id. */
    void
    asyncInstant(std::uint32_t cat, TraceTrack track, const char *name,
                 std::uint64_t id, Cycles ts, TraceArg a0 = {},
                 TraceArg a1 = {})
    {
        if (!on(cat))
            return;
        push(TraceEvent{ts, 0, id, {a0, a1}, name, cat,
                        TracePhase::AsyncInstant, track});
    }

    /** Closes async span @p id. */
    void
    asyncEnd(std::uint32_t cat, TraceTrack track, const char *name,
             std::uint64_t id, Cycles ts, TraceArg a0 = {},
             TraceArg a1 = {})
    {
        if (!on(cat))
            return;
        push(TraceEvent{ts, 0, id, {a0, a1}, name, cat,
                        TracePhase::AsyncEnd, track});
    }

    /** Records one sample of counter track @p name. */
    void
    counter(const char *name, Cycles ts, std::uint64_t value)
    {
        if (!on(kTraceCounter))
            return;
        push(TraceEvent{ts, 0, value, {}, name, kTraceCounter,
                        TracePhase::Counter, TraceTrack::Counter});
    }

    /** Number of events currently held. */
    std::size_t size() const { return buf_.size(); }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Drops charged to category bit @p bit (the *overwritten* event's
     *  category: who lost history, not who caused the flood). */
    std::uint64_t
    droppedInCategory(unsigned bit) const
    {
        return bit < kTraceCategoryCount ? droppedByCat_[bit] : 0;
    }

    /** Total events ever recorded (held + dropped). */
    std::uint64_t recorded() const { return size() + dropped_; }

    /** Visits events oldest-first (record order, survivors only). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = head_; i < buf_.size(); ++i)
            fn(buf_[i]);
        for (std::size_t i = 0; i < head_; ++i)
            fn(buf_[i]);
    }

  private:
    void
    push(TraceEvent &&e)
    {
        if (buf_.size() < config_.ringCapacity) {
            buf_.push_back(e);
            return;
        }
        // Full: overwrite the oldest record (head_ is the ring cursor).
        ++droppedByCat_[traceCategoryIndex(buf_[head_].cat)];
        buf_[head_] = e;
        head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
        ++dropped_;
    }

    TraceConfig config_;
    std::uint32_t mask_ = 0;
    std::uint64_t lastId_ = 0;
    std::vector<TraceEvent> buf_;
    std::size_t head_ = 0;  ///< oldest record once the ring wrapped
    std::uint64_t dropped_ = 0;
    std::uint64_t droppedByCat_[kTraceCategoryCount] = {};
};

}  // namespace mosaic

#endif  // MOSAIC_TRACE_TRACER_H
