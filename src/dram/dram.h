/**
 * @file
 * GDDR5-style DRAM model with per-channel FR-FCFS scheduling.
 *
 * Matches the paper's Table 1 memory partition configuration: 6 channels,
 * 8 banks per rank, FR-FCFS scheduling, burst length 8. Banks keep an open
 * row; row hits are served faster than row conflicts; each channel's data
 * bus serializes bursts while banks operate in parallel. The model also
 * implements page-granularity bulk copy, both through the normal data bus
 * (64 bits at a time) and via in-DRAM mechanisms (RowClone/LISA) used by
 * Mosaic's CAC-BC compaction variant.
 */

#ifndef MOSAIC_DRAM_DRAM_H
#define MOSAIC_DRAM_DRAM_H

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "common/types.h"
#include "engine/event_queue.h"
#include "trace/tracer.h"

namespace mosaic {

/**
 * Granularity at which physical addresses interleave across channels.
 *
 * Line maximizes bandwidth (consecutive cache lines hit different
 * channels) and is the default, matching the paper's Table 1 memory
 * system. Page/Frame keep a whole 4KB page / 2MB frame in one channel,
 * which is what makes CAC-BC's in-DRAM copy (RowClone/LISA: src and dst
 * rows must share a channel) actually attainable for migrations.
 */
enum class ChannelInterleave
{
    Line,
    Page,
    Frame,
};

/** Timing and geometry parameters of the DRAM model. */
struct DramConfig
{
    unsigned channels = 6;          ///< independent memory partitions
    ChannelInterleave channelInterleave = ChannelInterleave::Line;
    unsigned banksPerChannel = 8;   ///< banks per rank (one rank modeled)
    std::uint64_t rowBytes = 2048;  ///< row buffer size per bank
    Cycles rowHitCycles = 60;       ///< access latency on a row-buffer hit
    Cycles rowMissCycles = 160;     ///< latency on a row conflict
    Cycles bankBusyHitCycles = 8;   ///< bank issue interval on a row hit
    Cycles bankBusyMissCycles = 48; ///< bank occupancy (tRC) on a conflict
    Cycles burstCycles = 2;         ///< channel data-bus occupancy per line
    std::uint64_t capacityBytes = 3ull * 1024 * 1024 * 1024;
    Cycles bulkCopyInDramCycles = 82;     ///< RowClone/LISA 4KB copy (~80ns)
    Cycles bulkCopyViaBusCyclesPerLine = 8;  ///< read+write per line, no BC
    /** FR-FCFS only considers the oldest this-many queued requests. */
    std::size_t schedulerWindow = 48;
};

/**
 * The DRAM subsystem: all channels, banks, and the FR-FCFS scheduler.
 *
 * Accesses are line-granularity (kCacheLineSize). Completion callbacks run
 * on the event queue when the access finishes.
 */
class DramModel
{
  public:
    /** Aggregate DRAM statistics (merged over all channels). */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t bulkCopies = 0;
        std::uint64_t bulkCopyCycles = 0;
        Histogram latency{32, 64};
    };

    /**
     * @param metrics when non-null, counters register under "dram.*"
     *                at construction (DESIGN.md §8).
     * @param tracer when non-null, bulk copies record spans (regular
     *               line accesses are far too hot to trace).
     */
    DramModel(EventQueue &events, const DramConfig &config,
              StatsRegistry *metrics = nullptr, Tracer *tracer = nullptr);

    /** Issues a line access to @p addr; @p onDone runs at completion. */
    void access(Addr addr, bool isWrite, SimCallback onDone);

    /**
     * Copies one base page from @p src to @p dst.
     *
     * With @p inDramCopy the copy uses RowClone/LISA-style in-DRAM
     * operations (fast, fixed latency). Otherwise the copy streams through
     * the channel data bus, occupying it for the full duration. Cross-
     * channel copies always use the bus path (in-DRAM copy only works
     * within a channel), mirroring CAC's same-channel migration policy.
     */
    void bulkCopyPage(Addr src, Addr dst, bool inDramCopy,
                      SimCallback onDone);

    /** Memory channel servicing @p addr (used by CAC's placement policy). */
    unsigned channelOf(Addr addr) const;

    /**
     * Cycles a bulkCopyPage(src, dst, inDramCopy) would take, without
     * performing it. The single source of truth for the copy-path choice:
     * CAC charges migration stalls through this, so the cost model can
     * never disagree with the timing model about in-DRAM eligibility.
     */
    Cycles bulkCopyCycles(Addr src, Addr dst, bool inDramCopy) const;

    /** DRAM statistics, merged over all channel slices. */
    Stats stats() const;

    /** Configuration used to build this model. */
    const DramConfig &config() const { return config_; }

    /** Number of requests queued and not yet dispatched. */
    std::size_t inFlight() const;

    /**
     * @name Checkpoint hooks (DESIGN.md §14)
     * Captures per-channel bank state (open rows, ready times), bus and
     * dispatch timing, and all counters. Request queues must be empty —
     * a queued request holds a completion continuation that cannot be
     * serialized, so the quiesce protocol drains them first (asserted).
     */
    ///@{
    void saveState(ckpt::Writer &w) const;
    void loadState(ckpt::Reader &r);
    ///@}

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        Cycles readyAt = 0;
    };

    /** Per-channel counters, summed on demand. */
    struct ChannelStats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        Histogram latency{32, 64};
    };

    /**
     * What the FR-FCFS scan reads of one queued request: bank and row,
     * decoded once at enqueue (decode divides by runtime config values),
     * and the request's payload slot. 16 trivially-copyable bytes, so a
     * 48-request window spans 12 cache lines and a mid-queue erase is a
     * memmove that never touches a continuation.
     */
    struct ScanRecord
    {
        std::uint64_t row;
        std::uint32_t bank;
        std::uint32_t slot;
    };

    /** The rest of a queued request, read only once it dispatches. */
    struct Payload
    {
        Cycles issued = 0;
        SimCallback onDone;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        /** Queued requests in arrival order (DESIGN.md §11). */
        std::vector<ScanRecord> queue;
        /** Payloads indexed by ScanRecord::slot; free slots are reused
         *  LIFO, so steady-state queueing allocates nothing. */
        std::vector<Payload> slab;
        std::vector<std::uint32_t> freeSlots;
        Cycles busFreeAt = 0;
        /** Retry bookkeeping: a dispatch event is pending at dispatchAt.
         *  Tracking the time (not just a flag) lets an *earlier* retry
         *  request reschedule instead of being dropped. */
        bool dispatchScheduled = false;
        Cycles dispatchAt = 0;
        ChannelStats stats;
    };

    struct Decoded
    {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
    };

    Decoded decode(Addr addr) const;
    void enqueue(const Decoded &d, bool isWrite, SimCallback onDone);
    void tryDispatch(unsigned channelIdx);
    void scheduleDispatch(unsigned channelIdx, Cycles when);
    Histogram mergedLatency() const;

    EventQueue &events_;
    DramConfig config_;
    Tracer *tracer_;
    std::vector<Channel> channels_;
    std::uint64_t bulkCopies_ = 0;
    std::uint64_t bulkCopyCycles_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_DRAM_DRAM_H
