/**
 * @file
 * Property tests for the DRAM channel model, run under every
 * ChannelInterleave mode (Line, Page, Frame).
 *
 * Randomized schedules of line accesses and page bulk copies check the
 * invariants the timing model must uphold regardless of interleave:
 *
 *  - channel bus exclusivity: the data-bus occupancy intervals of all
 *    bursts and bulk copies touching one channel never overlap;
 *  - latency floor: no access completes faster than the best case
 *    (row hit + burst), and latency histograms record every request;
 *  - conservation: every issued request completes exactly once and the
 *    per-channel stats slices merge to the issued totals;
 *  - FR-FCFS precedence: among ready requests the oldest row hit
 *    dispatches first, else the oldest request overall, and only the
 *    oldest schedulerWindow requests are candidates;
 *  - scheduler equivalence: a reference copy of the straightforward
 *    scheduler (whole requests in a std::deque, scanned in place)
 *    completes every request of a deep randomized schedule on the same
 *    cycle as the model.
 *
 * The test re-derives (channel, bank, row) with its own copy of the
 * interleave math so the directed FR-FCFS cases can construct same-bank
 * conflicts in any mode; the reference decode is cross-checked against
 * DramModel::channelOf on random addresses first.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "dram/dram.h"
#include "engine/event_queue.h"

namespace mosaic {
namespace {

DramConfig
testConfig(ChannelInterleave mode)
{
    DramConfig c;
    c.channels = 3;  // odd, so Line/Page/Frame map addresses differently
    c.channelInterleave = mode;
    c.banksPerChannel = 2;
    c.rowBytes = 512;  // 4 lines per row
    c.rowHitCycles = 10;
    c.rowMissCycles = 40;
    c.bankBusyHitCycles = 2;
    c.bankBusyMissCycles = 20;
    c.burstCycles = 2;
    return c;
}

struct Decoded
{
    unsigned channel;
    unsigned bank;
    std::uint64_t row;
};

/** Reference reimplementation of the model's address interleave. */
Decoded
refDecode(const DramConfig &cfg, Addr addr)
{
    const std::uint64_t line = addr / kCacheLineSize;
    unsigned channel = 0;
    std::uint64_t idx = 0;
    switch (cfg.channelInterleave) {
    case ChannelInterleave::Line:
        channel = line % cfg.channels;
        idx = line / cfg.channels;
        break;
    case ChannelInterleave::Page: {
        const std::uint64_t page = addr / kBasePageSize;
        const std::uint64_t lines_per_page = kBasePageSize / kCacheLineSize;
        channel = page % cfg.channels;
        idx = (page / cfg.channels) * lines_per_page +
              (line % lines_per_page);
        break;
    }
    case ChannelInterleave::Frame: {
        const std::uint64_t frame = addr / kLargePageSize;
        const std::uint64_t lines_per_frame = kLargePageSize / kCacheLineSize;
        channel = frame % cfg.channels;
        idx = (frame / cfg.channels) * lines_per_frame +
              (line % lines_per_frame);
        break;
    }
    }
    const std::uint64_t lines_per_row = cfg.rowBytes / kCacheLineSize;
    const std::uint64_t row_seq = idx / lines_per_row;
    return Decoded{channel, static_cast<unsigned>(row_seq %
                                                  cfg.banksPerChannel),
                   row_seq / cfg.banksPerChannel};
}

/** First line-aligned address matching (channel, bank, row), skipping
 *  any address in @p avoid. */
Addr
findAddr(const DramConfig &cfg, unsigned channel, unsigned bank,
         std::uint64_t row, const std::vector<Addr> &avoid = {})
{
    for (std::uint64_t line = 0; line < 1u << 20; ++line) {
        const Addr addr = line * kCacheLineSize;
        const Decoded d = refDecode(cfg, addr);
        if (d.channel == channel && d.bank == bank && d.row == row &&
            std::find(avoid.begin(), avoid.end(), addr) == avoid.end())
            return addr;
    }
    ADD_FAILURE() << "no address maps to channel " << channel << " bank "
                  << bank << " row " << row;
    return 0;
}

const ChannelInterleave kModes[] = {ChannelInterleave::Line,
                                    ChannelInterleave::Page,
                                    ChannelInterleave::Frame};

const char *
modeName(ChannelInterleave mode)
{
    switch (mode) {
    case ChannelInterleave::Line: return "Line";
    case ChannelInterleave::Page: return "Page";
    case ChannelInterleave::Frame: return "Frame";
    }
    return "?";
}

TEST(DramChannelPropertyTest, ReferenceDecodeMatchesModel)
{
    Rng rng(0xDEC0DEull);
    for (ChannelInterleave mode : kModes) {
        const DramConfig cfg = testConfig(mode);
        EventQueue ev;
        DramModel dram(ev, cfg);
        for (int i = 0; i < 1000; ++i) {
            const Addr addr =
                rng.below(64 * kLargePageSize) / kCacheLineSize *
                kCacheLineSize;
            EXPECT_EQ(refDecode(cfg, addr).channel, dram.channelOf(addr))
                << modeName(mode) << " addr " << addr;
        }
    }
}

/** One completed bus occupancy: [done - duration, done) on a channel. */
struct BusInterval
{
    Cycles start;
    Cycles end;
};

void
expectChannelExclusive(std::vector<std::vector<BusInterval>> &perChannel,
                       ChannelInterleave mode)
{
    for (std::size_t c = 0; c < perChannel.size(); ++c) {
        auto &iv = perChannel[c];
        std::sort(iv.begin(), iv.end(),
                  [](const BusInterval &a, const BusInterval &b) {
                      return a.start < b.start;
                  });
        for (std::size_t i = 1; i < iv.size(); ++i) {
            EXPECT_GE(iv[i].start, iv[i - 1].end)
                << modeName(mode) << " channel " << c
                << ": bus bursts overlap ([" << iv[i - 1].start << ", "
                << iv[i - 1].end << ") vs [" << iv[i].start << ", "
                << iv[i].end << "))";
        }
    }
}

TEST(DramChannelPropertyTest, RandomAccessesKeepChannelInvariants)
{
    for (ChannelInterleave mode : kModes) {
        const DramConfig cfg = testConfig(mode);
        EventQueue ev;
        DramModel dram(ev, cfg);
        Rng rng(0xACCE55ull + static_cast<std::uint64_t>(mode));

        const int kOps = 500;
        int completed = 0;
        std::uint64_t reads = 0, writes = 0;
        std::vector<std::vector<BusInterval>> busy(cfg.channels);
        std::vector<Cycles> latencies;

        for (int i = 0; i < kOps; ++i) {
            // Cluster addresses over a few rows per bank so the schedule
            // mixes row hits, conflicts, and bank contention.
            const Addr addr = rng.below(16 * kBasePageSize) /
                              kCacheLineSize * kCacheLineSize;
            const bool is_write = rng.chance(0.25);
            const Cycles at = rng.below(2000);
            is_write ? ++writes : ++reads;
            ev.schedule(at, [&, addr, is_write] {
                const Cycles issued = ev.now();
                const unsigned channel = dram.channelOf(addr);
                dram.access(addr, is_write, [&, issued, channel] {
                    const Cycles done = ev.now();
                    ++completed;
                    latencies.push_back(done - issued);
                    busy[channel].push_back(
                        BusInterval{done - cfg.burstCycles, done});
                });
            });
        }
        ev.runAll();

        EXPECT_EQ(completed, kOps) << modeName(mode);
        EXPECT_EQ(dram.inFlight(), 0u) << modeName(mode);

        const DramModel::Stats stats = dram.stats();
        EXPECT_EQ(stats.reads, reads) << modeName(mode);
        EXPECT_EQ(stats.writes, writes) << modeName(mode);
        EXPECT_EQ(stats.rowHits + stats.rowMisses, reads + writes)
            << modeName(mode) << ": every dispatch is a hit or a miss";

        // Latency floor: nothing beats an immediate row hit + burst.
        const Cycles floor = cfg.rowHitCycles + cfg.burstCycles;
        for (Cycles lat : latencies)
            EXPECT_GE(lat, floor) << modeName(mode);

        expectChannelExclusive(busy, mode);
    }
}

TEST(DramChannelPropertyTest, BulkCopiesShareTheBusExclusively)
{
    for (ChannelInterleave mode : kModes) {
        const DramConfig cfg = testConfig(mode);
        EventQueue ev;
        DramModel dram(ev, cfg);
        Rng rng(0xC0B7ull + static_cast<std::uint64_t>(mode));

        int completed = 0;
        std::uint64_t copies = 0, copy_cycles = 0;
        std::vector<std::vector<BusInterval>> busy(cfg.channels);

        const int kOps = 300;
        for (int i = 0; i < kOps; ++i) {
            const Cycles at = rng.below(4000);
            if (rng.chance(0.2)) {
                const Addr src = rng.below(64) * kBasePageSize;
                const Addr dst = rng.below(64) * kBasePageSize;
                const bool in_dram = rng.chance(0.5);
                ++copies;
                copy_cycles += dram.bulkCopyCycles(src, dst, in_dram);
                ev.schedule(at, [&, src, dst, in_dram] {
                    const Cycles duration =
                        dram.bulkCopyCycles(src, dst, in_dram);
                    const unsigned src_ch = dram.channelOf(src);
                    const unsigned dst_ch = dram.channelOf(dst);
                    dram.bulkCopyPage(src, dst, in_dram,
                                      [&, duration, src_ch, dst_ch] {
                        const Cycles done = ev.now();
                        ++completed;
                        busy[dst_ch].push_back(
                            BusInterval{done - duration, done});
                        if (src_ch != dst_ch)
                            busy[src_ch].push_back(
                                BusInterval{done - duration, done});
                    });
                });
            } else {
                const Addr addr = rng.below(16 * kBasePageSize) /
                                  kCacheLineSize * kCacheLineSize;
                const bool is_write = rng.chance(0.25);
                ev.schedule(at, [&, addr, is_write] {
                    const unsigned channel = dram.channelOf(addr);
                    dram.access(addr, is_write, [&, channel] {
                        const Cycles done = ev.now();
                        ++completed;
                        busy[channel].push_back(
                            BusInterval{done - cfg.burstCycles, done});
                    });
                });
            }
        }
        ev.runAll();

        EXPECT_EQ(completed, kOps) << modeName(mode);
        EXPECT_EQ(dram.inFlight(), 0u) << modeName(mode);
        EXPECT_EQ(dram.stats().bulkCopies, copies) << modeName(mode);
        EXPECT_EQ(dram.stats().bulkCopyCycles, copy_cycles)
            << modeName(mode);

        expectChannelExclusive(busy, mode);
    }
}

TEST(DramChannelPropertyTest, FrFcfsPrefersReadyRowHitInEveryMode)
{
    for (ChannelInterleave mode : kModes) {
        const DramConfig cfg = testConfig(mode);
        // Same channel, same bank: prime opens row 0; the younger row-0
        // request must overtake the older row-1 conflict once the bank
        // frees up.
        const Addr prime = findAddr(cfg, 0, 0, 0);
        const Addr conflict = findAddr(cfg, 0, 0, 1);
        const Addr hit = findAddr(cfg, 0, 0, 0, {prime});
        ASSERT_EQ(refDecode(cfg, hit).row, refDecode(cfg, prime).row);
        ASSERT_NE(hit, prime);

        EventQueue ev;
        DramModel dram(ev, cfg);
        Cycles conflict_done = 0, hit_done = 0;
        dram.access(prime, false, [] {});
        dram.access(conflict, false, [&] { conflict_done = ev.now(); });
        dram.access(hit, false, [&] { hit_done = ev.now(); });
        ev.runAll();

        EXPECT_LT(hit_done, conflict_done)
            << modeName(mode) << ": ready row hit must dispatch before "
            << "the older row conflict";
        EXPECT_EQ(dram.stats().rowHits, 1u) << modeName(mode);
    }
}

TEST(DramChannelPropertyTest, FrFcfsFallsBackToOldestInEveryMode)
{
    for (ChannelInterleave mode : kModes) {
        const DramConfig cfg = testConfig(mode);
        // Three different rows on one bank: no hits anywhere, so pure
        // arrival order must win.
        const Addr a = findAddr(cfg, 0, 0, 0);
        const Addr b = findAddr(cfg, 0, 0, 1);
        const Addr c = findAddr(cfg, 0, 0, 2);

        EventQueue ev;
        DramModel dram(ev, cfg);
        Cycles b_done = 0, c_done = 0;
        dram.access(a, false, [] {});
        dram.access(b, false, [&] { b_done = ev.now(); });
        dram.access(c, false, [&] { c_done = ev.now(); });
        ev.runAll();

        EXPECT_LT(b_done, c_done)
            << modeName(mode) << ": with no row hits the oldest queued "
            << "request dispatches first";
        EXPECT_EQ(dram.stats().rowHits, 0u) << modeName(mode);
        EXPECT_EQ(dram.stats().rowMisses, 3u) << modeName(mode);
    }
}

TEST(DramChannelPropertyTest, FrFcfsWindowHidesOlderThanWindowRowHits)
{
    for (ChannelInterleave mode : kModes) {
        const DramConfig cfg = testConfig(mode);
        const std::size_t window = cfg.schedulerWindow;
        // prime opens row 0 of bank 0 and makes it busy. Behind it,
        // conflicts on rows 1, 2, ... of the same bank queue up, then one
        // row-0 hit at queue position hit_pos. When the bank frees, the
        // hit wins only if it sits inside the window. Otherwise the
        // oldest conflict dispatches and reopens the bank on another
        // row, so the hit never gets to be one.
        for (const std::size_t hit_pos : {window - 1, window}) {
            const Addr prime = findAddr(cfg, 0, 0, 0);
            const Addr hit = findAddr(cfg, 0, 0, 0, {prime});

            EventQueue ev;
            DramModel dram(ev, cfg);
            Cycles first_conflict_done = 0, hit_done = 0;
            dram.access(prime, false, [] {});
            for (std::size_t i = 0; i < hit_pos; ++i) {
                const Addr conflict = findAddr(cfg, 0, 0, 1 + i);
                if (i == 0)
                    dram.access(conflict, false,
                                [&] { first_conflict_done = ev.now(); });
                else
                    dram.access(conflict, false, [] {});
            }
            dram.access(hit, false, [&] { hit_done = ev.now(); });
            ASSERT_EQ(dram.inFlight(), hit_pos + 1) << modeName(mode);
            ev.runAll();

            if (hit_pos < window) {
                EXPECT_LT(hit_done, first_conflict_done)
                    << modeName(mode) << ": a ready row hit at window "
                    << "position " << hit_pos << " dispatches first";
                EXPECT_EQ(dram.stats().rowHits, 1u) << modeName(mode);
            } else {
                EXPECT_LT(first_conflict_done, hit_done)
                    << modeName(mode) << ": a row hit at queue position "
                    << hit_pos << " is outside the window, so the oldest "
                    << "ready request dispatches first";
                EXPECT_EQ(dram.stats().rowHits, 0u) << modeName(mode);
            }
        }
    }
}

/**
 * The FR-FCFS channel scheduler as it stood before the queue became flat
 * scan records plus a payload slab: whole requests in a std::deque,
 * scanned in place and erased from the middle. Serial engine only. It
 * counts the retry events that fire after an earlier reschedule
 * superseded them, so the differential test can show it exercises that
 * path.
 */
class DequeFrFcfsReference
{
  public:
    DequeFrFcfsReference(EventQueue &events, const DramConfig &config)
        : events_(events), config_(config), channels_(config.channels)
    {
        for (Channel &ch : channels_)
            ch.banks.assign(config_.banksPerChannel, Bank{});
    }

    void
    access(Addr addr, SimCallback onDone)
    {
        const Decoded d = refDecode(config_, addr);
        Channel &ch = channels_[d.channel];
        ch.queue.push_back(
            Request{events_.now(), d.bank, d.row, std::move(onDone)});
        maxDepth_ = std::max(maxDepth_, ch.queue.size());
        tryDispatch(d.channel);
    }

    std::uint64_t rowHits() const { return rowHits_; }
    std::size_t maxDepth() const { return maxDepth_; }
    std::uint64_t supersededRetries() const { return superseded_; }

  private:
    struct Request
    {
        Cycles issued;
        unsigned bank;
        std::uint64_t row;
        SimCallback onDone;
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        Cycles readyAt = 0;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        std::deque<Request> queue;
        Cycles busFreeAt = 0;
        bool dispatchScheduled = false;
        Cycles dispatchAt = 0;
    };

    void
    scheduleDispatch(unsigned c, Cycles when)
    {
        Channel &ch = channels_[c];
        when = std::max(when, events_.now());
        if (ch.dispatchScheduled && ch.dispatchAt <= when)
            return;
        ch.dispatchScheduled = true;
        ch.dispatchAt = when;
        events_.schedule(when, [this, c, when] {
            Channel &ch = channels_[c];
            if (!ch.dispatchScheduled || ch.dispatchAt != when) {
                ++superseded_;
                return;
            }
            ch.dispatchScheduled = false;
            tryDispatch(c);
        });
    }

    void
    tryDispatch(unsigned c)
    {
        Channel &ch = channels_[c];
        const Cycles now = events_.now();
        while (!ch.queue.empty()) {
            std::size_t pick = ch.queue.size();
            bool pick_is_hit = false;
            Cycles earliest_ready = std::numeric_limits<Cycles>::max();
            const std::size_t window =
                std::min(ch.queue.size(), config_.schedulerWindow);
            for (std::size_t i = 0; i < window; ++i) {
                const Request &cand = ch.queue[i];
                const Bank &bank = ch.banks[cand.bank];
                if (bank.readyAt > now) {
                    earliest_ready = std::min(earliest_ready, bank.readyAt);
                    continue;
                }
                if (bank.openRow == static_cast<std::int64_t>(cand.row)) {
                    pick = i;
                    pick_is_hit = true;
                    break;
                }
                if (pick == ch.queue.size())
                    pick = i;
            }
            if (pick == ch.queue.size()) {
                if (earliest_ready != std::numeric_limits<Cycles>::max())
                    scheduleDispatch(c, earliest_ready);
                return;
            }

            Request req = std::move(ch.queue[pick]);
            ch.queue.erase(ch.queue.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            Bank &bank = ch.banks[req.bank];
            if (pick_is_hit)
                ++rowHits_;
            const Cycles data_ready =
                now + (pick_is_hit ? config_.rowHitCycles
                                   : config_.rowMissCycles);
            const Cycles done =
                std::max(data_ready, ch.busFreeAt) + config_.burstCycles;
            ch.busFreeAt = done;
            bank.openRow = static_cast<std::int64_t>(req.row);
            bank.readyAt = now + (pick_is_hit ? config_.bankBusyHitCycles
                                              : config_.bankBusyMissCycles);
            events_.schedule(done, std::move(req.onDone));
        }
    }

    EventQueue &events_;
    DramConfig config_;
    std::vector<Channel> channels_;
    std::uint64_t rowHits_ = 0;
    std::size_t maxDepth_ = 0;
    std::uint64_t superseded_ = 0;
};

TEST(DramChannelPropertyTest, DeepQueuesMatchDequeReferenceInEveryMode)
{
    // Windows below, at and above the test's typical queue depth, so the
    // window boundary cuts through deep queues and shallow ones.
    const std::size_t kWindows[] = {1, 8, 48};
    for (ChannelInterleave mode : kModes) {
        std::size_t max_depth = 0;
        std::uint64_t superseded = 0;
        for (const std::size_t window : kWindows) {
            DramConfig cfg = testConfig(mode);
            cfg.banksPerChannel = 4;
            cfg.schedulerWindow = window;
            Rng rng(0xF1A7ull * (window + 1) +
                    static_cast<std::uint64_t>(mode));

            EventQueue model_ev, ref_ev;
            DramModel model(model_ev, cfg);
            DequeFrFcfsReference ref(ref_ev, cfg);

            // 3000 requests in bursts of up to 40 over 8000 cycles outrun
            // the channels, so queues reach 100+ deep: row hits hide
            // behind conflicts past the window, and arrivals land while
            // retries are pending. Addresses cover the first pages of
            // one large frame per channel, so Frame mode spreads over
            // every channel too, on a few rows per bank.
            const int kOps = 3000;
            std::vector<Cycles> model_done(kOps, 0), ref_done(kOps, 0);
            int op = 0;
            while (op < kOps) {
                const Cycles at = rng.below(8000);
                const int burst =
                    std::min<int>(kOps - op, 1 + rng.below(40));
                for (int b = 0; b < burst; ++b, ++op) {
                    const Addr addr =
                        rng.below(cfg.channels) * kLargePageSize +
                        rng.below(4 * kBasePageSize) / kCacheLineSize *
                            kCacheLineSize;
                    const bool is_write = rng.chance(0.25);
                    model_ev.schedule(at, [&, op, addr, is_write] {
                        model.access(addr, is_write, [&, op] {
                            model_done[op] = model_ev.now();
                        });
                    });
                    ref_ev.schedule(at, [&, op, addr] {
                        ref.access(addr,
                                   [&, op] { ref_done[op] = ref_ev.now(); });
                    });
                }
            }
            model_ev.runAll();
            ref_ev.runAll();

            for (int i = 0; i < kOps; ++i) {
                ASSERT_NE(ref_done[i], 0u);
                ASSERT_EQ(model_done[i], ref_done[i])
                    << modeName(mode) << " window " << window
                    << ": request " << i << " completes on another cycle";
            }
            EXPECT_EQ(model.stats().rowHits, ref.rowHits())
                << modeName(mode) << " window " << window;
            EXPECT_GT(ref.rowHits(), 0u) << modeName(mode);
            EXPECT_EQ(model_ev.now(), ref_ev.now());
            EXPECT_EQ(model.inFlight(), 0u);
            max_depth = std::max(max_depth, ref.maxDepth());
            superseded += ref.supersededRetries();
        }
        // The schedules must reach the paths they are meant to cover.
        EXPECT_GT(max_depth, kWindows[2]) << modeName(mode);
        EXPECT_GT(superseded, 0u) << modeName(mode);
    }
}

}  // namespace
}  // namespace mosaic
