/**
 * @file
 * Discrete-event simulation engine.
 *
 * All simulator components share one EventQueue. Components schedule
 * callbacks at absolute cycle times; the engine pops events in (time,
 * insertion-order) order, which gives deterministic execution. Skipping
 * directly to the next event makes long stalls (e.g., PCIe far-fault
 * transfers lasting tens of microseconds) cheap to simulate.
 *
 * Ordering structure (DESIGN.md §11): almost every event lands a few
 * cycles ahead of now(), so the queue is a timing wheel of kHorizon
 * one-cycle buckets covering [now, now + kHorizon), plus an overflow
 * min-heap of trivial {when, seq, slot} records for the rare events
 * beyond the horizon (PCIe transfers, far faults, CAC stalls). Each
 * bucket is a FIFO list threaded through next_, an index array
 * parallel to the callback slab, and an occupancy bitmap finds the
 * next non-empty bucket with a count-trailing-zeros scan. Scheduling
 * and dispatching a near event is O(1); only overflow events pay the
 * heap's O(log n).
 *
 * Ordering invariant: whenever now() advances, every overflow event
 * with when < now + kHorizon moves into its bucket, in heap (when,
 * seq) order, before any callback runs. Overflow events therefore all
 * lie beyond every wheel event, and FIFO order inside a bucket is
 * (when, seq) order: an event scheduled directly into a cycle's bucket
 * is scheduled after that cycle came within the horizon, hence after
 * every overflow event for that cycle, so it carries a larger seq.
 *
 * The callbacks live in a stable side slab indexed by slot, so the
 * callback type can afford a generous inline-capture buffer
 * (SimCallback, 96 bytes) while the ordering structures move only
 * indices and 24-byte records. Slots are recycled through a LIFO free
 * list, so steady-state scheduling allocates nothing and slot reuse is
 * deterministic.
 *
 * Move-pop contract: dispatch moves the callback out of its slab slot
 * before invoking it, leaving the slot's InlineFunction empty (the
 * moved-from state); the freed slot is reusable immediately, including
 * by events the running callback schedules.
 *
 * Thread-safety: an EventQueue is strictly single-threaded state. Every
 * simulation owns its own queue; concurrent simulations (SweepRunner)
 * each run on their own thread with their own EventQueue and never share
 * one. See DESIGN.md, "Thread-safety contract".
 */

#ifndef MOSAIC_ENGINE_EVENT_QUEUE_H
#define MOSAIC_ENGINE_EVENT_QUEUE_H

#include <array>
#include <bit>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/log.h"
#include "common/types.h"

namespace mosaic {

/** Central ordered queue of simulation events. */
class EventQueue
{
  public:
    using Callback = SimCallback;

    /**
     * Cycles the timing wheel covers ahead of now(): an event with
     * when - now() < kHorizon goes straight into its bucket, a later
     * one into the overflow heap. A power of two.
     */
    static constexpr Cycles kHorizon = 1024;

    /** Current simulation time in cycles. */
    Cycles now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return wheelCount_ + overflow_.size(); }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executed_; }

    /** Sentinel for nextEventAt() when the queue is empty. */
    static constexpr Cycles kNoEvent = ~Cycles{0};

    /**
     * Timestamp of the earliest pending event, or kNoEvent when empty.
     * The runner's checkpoint trigger peeks at it before each dispatch.
     */
    Cycles
    nextEventAt() const
    {
        if (wheelCount_ != 0)
            return now_ + ((firstBucket() - now_) & kMask);
        return overflow_.empty() ? kNoEvent : overflow_.top().when;
    }

    /**
     * Pre-sizes the callback slab and the overflow heap for
     * @p expectedEvents concurrently-pending events. Purely a
     * performance hint: the simulation assembly knows roughly how many
     * warps, walks, and transfers can be in flight, and reserving up
     * front avoids doubling reallocations during warm-up. The overflow
     * heap needs it too: reserving regions under memory pressure runs
     * CAC compaction during assembly, which can queue thousands of
     * page-copy completions beyond the horizon before the first
     * dispatch.
     */
    void
    reserve(std::size_t expectedEvents)
    {
        overflow_.reserve(expectedEvents);
        slab_.reserve(expectedEvents);
        next_.reserve(expectedEvents);
        freeSlots_.reserve(expectedEvents);
    }

    /** Events the slab holds without reallocating, for tests/benchmarks. */
    std::size_t capacity() const { return slab_.capacity(); }

    /**
     * Schedules @p fn to run at absolute time @p when.
     * @pre when >= now().
     */
    void
    schedule(Cycles when, Callback fn)
    {
        MOSAIC_ASSERT(when >= now_, "scheduling event in the past");
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            // Growing: move the callback straight into the new slot
            // instead of default-constructing and assigning over it.
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(std::move(fn));
            next_.push_back(0);
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slab_[slot] = std::move(fn);
        }
        if (when - now_ < kHorizon)
            append(when, slot);
        else
            overflow_.push(Far{when, nextSeq_, slot});
        ++nextSeq_;
    }

    /** Schedules @p fn to run @p delay cycles from now. */
    void
    scheduleAfter(Cycles delay, Callback fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    /**
     * Executes the next event, advancing time to its timestamp.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (empty())
            return false;
        dispatchTop();
        return true;
    }

    /**
     * Runs events until the queue drains or time would pass @p limit.
     * Leaves events at time > limit pending; sets now() to at most limit.
     */
    void
    runUntil(Cycles limit)
    {
        while (!empty() && nextEventAt() <= limit)
            dispatchTop();
        if (now_ < limit)
            advanceTo(limit);
    }

    /** Runs all events to completion (use only in tests). */
    void
    runAll()
    {
        while (runOne()) {
        }
    }

    /**
     * @name Checkpoint hooks (DESIGN.md §14)
     * A checkpoint is only taken with the queue fully drained (the
     * quiesce protocol), so the serializable state reduces to the three
     * clocks. The slab, its free list and the wheel are payload-only
     * storage -- empty after a drain -- and dispatch order is (when,
     * seq), so restoring the clocks and re-scheduling the resume events
     * in a canonical order reproduces the exact event order of a run
     * that was never saved.
     */
    ///@{
    struct Clock
    {
        Cycles now = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t executed = 0;
    };

    Clock saveClock() const { return {now_, nextSeq_, executed_}; }

    /** @pre the queue is empty (quiesced). */
    void
    restoreClock(const Clock &c)
    {
        MOSAIC_ASSERT(empty(), "restoreClock on a non-quiesced queue");
        now_ = c.now;
        nextSeq_ = c.nextSeq;
        executed_ = c.executed;
    }
    ///@}

  private:
    static constexpr Cycles kMask = kHorizon - 1;
    static constexpr std::size_t kWords = kHorizon / 64;
    static_assert(std::has_single_bit(kHorizon) && kWords >= 1);

    /** An event beyond the horizon, ordered by (when, seq). */
    struct Far
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;  ///< index of the callback in the slab

        bool
        operator>(const Far &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /** FIFO list of slab slots; meaningful only while its bit is set. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Appends @p slot to the bucket of @p when.
     *  @pre when - now_ < kHorizon */
    void
    append(Cycles when, std::uint32_t slot)
    {
        const std::size_t b = when & kMask;
        std::uint64_t &word = occupied_[b / 64];
        const std::uint64_t bit = std::uint64_t{1} << (b % 64);
        if (word & bit) {
            next_[buckets_[b].tail] = slot;
            buckets_[b].tail = slot;
        } else {
            word |= bit;
            buckets_[b] = {slot, slot};
        }
        ++wheelCount_;
    }

    /**
     * Index of the first non-empty bucket at or after now()'s bucket,
     * wrapping around the wheel. @pre wheelCount_ != 0
     */
    std::size_t
    firstBucket() const
    {
        const std::size_t from = now_ & kMask;
        std::size_t w = from / 64;
        std::uint64_t bits =
            occupied_[w] & (~std::uint64_t{0} << (from % 64));
        // Wrapping back to word w reads its whole word: the buckets
        // below `from` hold the cycles just short of now + kHorizon.
        while (bits == 0) {
            w = (w + 1) % kWords;
            bits = occupied_[w];
        }
        return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }

    /** Sets now() to @p t and pulls the overflow events now within
     *  the horizon into their buckets, in (when, seq) order. */
    void
    advanceTo(Cycles t)
    {
        now_ = t;
        while (!overflow_.empty() &&
               overflow_.top().when - now_ < kHorizon) {
            append(overflow_.top().when, overflow_.top().slot);
            overflow_.pop();
        }
    }

    /**
     * Pops and runs the earliest event. The single dispatch entry point:
     * every event passes through here exactly once. @pre !empty()
     */
    void
    dispatchTop()
    {
        if (wheelCount_ == 0)
            advanceTo(overflow_.top().when);
        const std::size_t b = firstBucket();
        const Cycles when = now_ + ((b - now_) & kMask);
        if (when != now_)
            advanceTo(when);
        Bucket &bucket = buckets_[b];
        const std::uint32_t slot = bucket.head;
        if (slot == bucket.tail)
            occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        else
            bucket.head = next_[slot];
        --wheelCount_;
        ++executed_;
        // Move the callback out and free its slot before invoking: the
        // callback may schedule new events, which can then reuse the
        // slot. The moved-from slab entry is empty per the InlineFunction
        // contract and is simply overwritten on reuse.
        Callback fn = std::move(slab_[slot]);
        freeSlots_.push_back(slot);
        fn();
    }

    /** priority_queue with reserve() on the backing vector. */
    struct FarHeap
        : std::priority_queue<Far, std::vector<Far>, std::greater<>>
    {
        void reserve(std::size_t n) { c.reserve(n); }
    };

    std::array<Bucket, kHorizon> buckets_{};
    std::array<std::uint64_t, kWords> occupied_{};
    std::size_t wheelCount_ = 0;
    FarHeap overflow_;
    std::vector<Callback> slab_;
    std::vector<std::uint32_t> next_;  ///< bucket successor of each slot
    std::vector<std::uint32_t> freeSlots_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_ENGINE_EVENT_QUEUE_H
