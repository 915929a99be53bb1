#include "dram/dram.h"

#include <algorithm>
#include <limits>

#include "common/log.h"

namespace mosaic {

DramModel::DramModel(EventQueue &events, const DramConfig &config,
                     StatsRegistry *metrics, Tracer *tracer)
    : events_(events), config_(config), tracer_(tracer),
      channels_(config.channels)
{
    for (auto &channel : channels_)
        channel.banks.assign(config_.banksPerChannel, Bank{});
    if (metrics != nullptr) {
        // Counters are per-channel slices; snapshots read the merged
        // sums.
        const auto sum = [this](std::uint64_t ChannelStats::*field) {
            return [this, field] {
                std::uint64_t total = 0;
                for (const Channel &ch : channels_)
                    total += ch.stats.*field;
                return total;
            };
        };
        metrics->bindCounterFn("dram.reads", sum(&ChannelStats::reads));
        metrics->bindCounterFn("dram.writes", sum(&ChannelStats::writes));
        metrics->bindCounterFn("dram.rowHits", sum(&ChannelStats::rowHits));
        metrics->bindCounterFn("dram.rowMisses",
                               sum(&ChannelStats::rowMisses));
        metrics->bindCounter("dram.bulkCopies", bulkCopies_);
        metrics->bindCounter("dram.bulkCopyCycles", bulkCopyCycles_);
        // Same exploded entries bindHistogram would emit, computed from
        // the merged per-channel slices at snapshot time.
        metrics->bindCounterFn("dram.latency.samples", [this] {
            return mergedLatency().samples();
        });
        metrics->bindGaugeFn("dram.latency.mean",
                             [this] { return mergedLatency().mean(); });
        metrics->bindCounterFn("dram.latency.max",
                               [this] { return mergedLatency().max(); });
        metrics->bindGaugeFn("dram.latency.p50", [this] {
            return mergedLatency().percentile(50);
        });
        metrics->bindGaugeFn("dram.latency.p95", [this] {
            return mergedLatency().percentile(95);
        });
    }
}

Histogram
DramModel::mergedLatency() const
{
    Histogram merged{32, 64};
    for (const Channel &ch : channels_)
        merged.merge(ch.stats.latency);
    return merged;
}

DramModel::Stats
DramModel::stats() const
{
    Stats s;
    for (const Channel &ch : channels_) {
        s.reads += ch.stats.reads;
        s.writes += ch.stats.writes;
        s.rowHits += ch.stats.rowHits;
        s.rowMisses += ch.stats.rowMisses;
        s.latency.merge(ch.stats.latency);
    }
    s.bulkCopies = bulkCopies_;
    s.bulkCopyCycles = bulkCopyCycles_;
    return s;
}

std::size_t
DramModel::inFlight() const
{
    std::size_t total = 0;
    for (const Channel &ch : channels_)
        total += ch.queue.size();
    return total;
}

DramModel::Decoded
DramModel::decode(Addr addr) const
{
    // Channel selection follows the configured interleave granularity;
    // within a channel, banks interleave at row granularity so streaming
    // accesses enjoy row-buffer hits. idx is the line's sequence number
    // within its channel under each scheme.
    const std::uint64_t line = addr / kCacheLineSize;
    unsigned channel = 0;
    std::uint64_t idx = 0;
    switch (config_.channelInterleave) {
    case ChannelInterleave::Line:
        channel = line % config_.channels;
        idx = line / config_.channels;
        break;
    case ChannelInterleave::Page: {
        const std::uint64_t page = addr / kBasePageSize;
        const std::uint64_t lines_per_page = kBasePageSize / kCacheLineSize;
        channel = page % config_.channels;
        idx = (page / config_.channels) * lines_per_page +
              (line % lines_per_page);
        break;
    }
    case ChannelInterleave::Frame: {
        const std::uint64_t frame = addr / kLargePageSize;
        const std::uint64_t lines_per_frame = kLargePageSize / kCacheLineSize;
        channel = frame % config_.channels;
        idx = (frame / config_.channels) * lines_per_frame +
              (line % lines_per_frame);
        break;
    }
    }
    const std::uint64_t lines_per_row = config_.rowBytes / kCacheLineSize;
    const std::uint64_t row_seq = idx / lines_per_row;
    const unsigned bank = row_seq % config_.banksPerChannel;
    const std::uint64_t row = row_seq / config_.banksPerChannel;
    return Decoded{channel, bank, row};
}

unsigned
DramModel::channelOf(Addr addr) const
{
    return decode(addr).channel;
}

void
DramModel::enqueue(const Decoded &d, bool isWrite, SimCallback onDone)
{
    Channel &channel = channels_[d.channel];
    if (channel.freeSlots.empty()) {
        channel.freeSlots.push_back(
            static_cast<std::uint32_t>(channel.slab.size()));
        channel.slab.emplace_back();
    }
    const std::uint32_t slot = channel.freeSlots.back();
    channel.freeSlots.pop_back();
    Payload &p = channel.slab[slot];
    p.issued = events_.now();
    p.onDone = std::move(onDone);
    channel.queue.push_back(ScanRecord{d.row, d.bank, slot});
    if (isWrite)
        ++channel.stats.writes;
    else
        ++channel.stats.reads;
}

void
DramModel::access(Addr addr, bool isWrite, SimCallback onDone)
{
    const Decoded d = decode(addr);
    enqueue(d, isWrite, std::move(onDone));
    tryDispatch(d.channel);
}

void
DramModel::scheduleDispatch(unsigned channelIdx, Cycles when)
{
    Channel &channel = channels_[channelIdx];
    when = std::max(when, events_.now());
    // An equal-or-earlier retry already pending covers this request; a
    // *later* pending retry must not swallow an earlier one (it used to:
    // a bare "scheduled" flag dropped the earlier cycle and delayed the
    // dispatch until the stale retry fired), so reschedule instead. The
    // superseded event still fires and no-ops via the dispatchAt check.
    if (channel.dispatchScheduled && channel.dispatchAt <= when)
        return;
    channel.dispatchScheduled = true;
    channel.dispatchAt = when;
    events_.schedule(when, [this, channelIdx, when] {
        Channel &channel = channels_[channelIdx];
        if (!channel.dispatchScheduled || channel.dispatchAt != when)
            return;  // superseded by an earlier reschedule
        channel.dispatchScheduled = false;
        tryDispatch(channelIdx);
    });
}

void
DramModel::tryDispatch(unsigned channelIdx)
{
    Channel &channel = channels_[channelIdx];
    const Cycles now = events_.now();

    while (!channel.queue.empty()) {
        // FR-FCFS: among requests whose bank is ready, prefer the oldest
        // row hit, then the oldest request overall. The queue preserves
        // arrival order, so a linear scan finds both candidates.
        const std::size_t window =
            std::min(channel.queue.size(), config_.schedulerWindow);
        std::size_t pick = window;
        bool pick_is_hit = false;
        Cycles earliest_ready = std::numeric_limits<Cycles>::max();
        for (std::size_t i = 0; i < window; ++i) {
            const ScanRecord &cand = channel.queue[i];
            const Bank &bank = channel.banks[cand.bank];
            if (bank.readyAt > now) {
                earliest_ready = std::min(earliest_ready, bank.readyAt);
                continue;
            }
            const bool hit =
                bank.openRow == static_cast<std::int64_t>(cand.row);
            if (hit) {
                pick = i;
                pick_is_hit = true;
                break;  // oldest ready row hit wins immediately
            }
            if (pick == window)
                pick = i;  // remember the oldest ready request
        }

        if (pick == window) {
            // Every request in the window targets a busy bank; retry
            // when the first bank frees up.
            if (earliest_ready != std::numeric_limits<Cycles>::max())
                scheduleDispatch(channelIdx, earliest_ready);
            return;
        }

        const ScanRecord req = channel.queue[pick];
        channel.queue.erase(channel.queue.begin() +
                            static_cast<std::ptrdiff_t>(pick));

        Bank &bank = channel.banks[req.bank];
        const Cycles access_latency =
            pick_is_hit ? config_.rowHitCycles : config_.rowMissCycles;
        if (pick_is_hit)
            ++channel.stats.rowHits;
        else
            ++channel.stats.rowMisses;

        // The data burst occupies the channel bus after the bank access;
        // consecutive bursts on one channel serialize on busFreeAt. The
        // bank frees earlier than the data arrives (it only needs tCCD on
        // a hit / tRC on a conflict before accepting the next access).
        const Cycles data_ready = now + access_latency;
        const Cycles burst_start = std::max(data_ready, channel.busFreeAt);
        const Cycles done = burst_start + config_.burstCycles;
        channel.busFreeAt = done;
        bank.openRow = static_cast<std::int64_t>(req.row);
        bank.readyAt = now + (pick_is_hit ? config_.bankBusyHitCycles
                                          : config_.bankBusyMissCycles);

        // The moved-from slot is left empty for the free list to reuse.
        Payload &p = channel.slab[req.slot];
        channel.stats.latency.record(done - p.issued);
        events_.schedule(done, std::move(p.onDone));
        channel.freeSlots.push_back(req.slot);
    }
}

Cycles
DramModel::bulkCopyCycles(Addr src, Addr dst, bool inDramCopy) const
{
    const bool same_channel = decode(src).channel == decode(dst).channel;
    if (inDramCopy && same_channel)
        return config_.bulkCopyInDramCycles;
    const std::uint64_t lines = kBasePageSize / kCacheLineSize;
    return lines * config_.bulkCopyViaBusCyclesPerLine;
}

void
DramModel::bulkCopyPage(Addr src, Addr dst, bool inDramCopy,
                        SimCallback onDone)
{
    const unsigned src_channel = decode(src).channel;
    const unsigned dst_channel = decode(dst).channel;
    const bool same_channel = src_channel == dst_channel;

    const Cycles duration = bulkCopyCycles(src, dst, inDramCopy);

    // The copy occupies the destination channel's bus (and the source's
    // too when they differ); model it by pushing out busFreeAt. A
    // cross-channel copy cannot start until *both* buses are free: it
    // streams reads off the source bus and writes onto the destination.
    Channel &dst_ch = channels_[dst_channel];
    Cycles start = std::max(events_.now(), dst_ch.busFreeAt);
    if (!same_channel)
        start = std::max(start, channels_[src_channel].busFreeAt);
    const Cycles done = start + duration;
    dst_ch.busFreeAt = done;
    if (!same_channel) {
        Channel &src_ch = channels_[src_channel];
        src_ch.busFreeAt = std::max(src_ch.busFreeAt, done);
    }

    ++bulkCopies_;
    bulkCopyCycles_ += duration;
    if (tracer_ != nullptr && tracer_->on(kTraceDram)) {
        const std::uint64_t id = traceId(TraceIdSpace::BulkCopy, bulkCopies_);
        tracer_->asyncBegin(kTraceDram, TraceTrack::Dram, "dram.bulkCopy",
                            id, start,
                            {"inDram", inDramCopy && same_channel ? 1u : 0u},
                            {"channel", dst_channel});
        tracer_->asyncEnd(kTraceDram, TraceTrack::Dram, "dram.bulkCopy", id,
                          done);
    }
    events_.schedule(done, std::move(onDone));
}

void
DramModel::saveState(ckpt::Writer &w) const
{
    for (const Channel &ch : channels_) {
        MOSAIC_ASSERT(ch.queue.empty() && !ch.dispatchScheduled,
                      "checkpointing a DRAM channel with queued requests");
        for (const Bank &bank : ch.banks) {
            w.u64(static_cast<std::uint64_t>(bank.openRow));
            w.u64(bank.readyAt);
        }
        w.u64(ch.busFreeAt);
        w.u64(ch.stats.reads);
        w.u64(ch.stats.writes);
        w.u64(ch.stats.rowHits);
        w.u64(ch.stats.rowMisses);
        saveHistogram(w, ch.stats.latency);
    }
    w.u64(bulkCopies_);
    w.u64(bulkCopyCycles_);
}

void
DramModel::loadState(ckpt::Reader &r)
{
    for (Channel &ch : channels_) {
        for (Bank &bank : ch.banks) {
            bank.openRow = static_cast<std::int64_t>(r.u64());
            bank.readyAt = r.u64();
        }
        ch.busFreeAt = r.u64();
        ch.stats.reads = r.u64();
        ch.stats.writes = r.u64();
        ch.stats.rowHits = r.u64();
        ch.stats.rowMisses = r.u64();
        loadHistogram(r, ch.stats.latency);
    }
    bulkCopies_ = r.u64();
    bulkCopyCycles_ = r.u64();
}

}  // namespace mosaic
