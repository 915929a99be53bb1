/** @file Unit tests for the discrete-event engine. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "engine/event_queue.h"

namespace mosaic {
namespace {

TEST(EventQueueTest, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, SameTimeEventsRunInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(2, [&] {
            ++fired;
            q.scheduleAfter(3, [&] { ++fired; });
        });
    });
    q.runAll();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Cycles seen = 0;
    q.schedule(100, [&] { q.scheduleAfter(50, [&] { seen = q.now(); }); });
    q.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    q.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueueTest, ExecutedCountsEvents)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Cycles>(i), [] {});
    q.runAll();
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueueTest, ReserveGrowsCapacityWithoutChangingBehavior)
{
    EventQueue q;
    q.reserve(4096);
    EXPECT_GE(q.capacity(), 4096u);
    const std::size_t reserved = q.capacity();
    std::vector<int> order;
    for (int i = 99; i >= 0; --i)
        q.schedule(static_cast<Cycles>(i), [&order, i] { order.push_back(i); });
    EXPECT_EQ(q.capacity(), reserved);  // no reallocation under the hint
    q.runAll();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, MovePopKeepsHeapCapturedCallbacksIntact)
{
    // Callbacks whose captures exceed std::function's small-buffer size
    // exercise the move-out-of-slot dispatch path: the moved-from
    // function left in the slab must never be invoked, and reusing its
    // slot must not disturb the order of the events still pending.
    EventQueue q;
    std::uint64_t sum = 0;
    struct Fat
    {
        std::uint64_t *sink;
        std::uint64_t a, b, c;
    };
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Fat fat{&sum, i, 1000, 1};
        // Reverse time order forces maximal sifting on every pop.
        q.schedule(static_cast<Cycles>(200 - i),
                   [fat] { *fat.sink += fat.a + fat.b + fat.c; });
    }
    q.runAll();
    // sum of (i + 1001) for i in [0, 200)
    EXPECT_EQ(sum, 199u * 200u / 2u + 200u * 1001u);
    EXPECT_EQ(q.executed(), 200u);
}

TEST(EventQueueTest, RunUntilInterleavesWithRescheduling)
{
    EventQueue q;
    std::vector<Cycles> fired;
    std::function<void()> tick = [&] {
        fired.push_back(q.now());
        if (q.now() < 100)
            q.scheduleAfter(10, tick);
    };
    q.schedule(0, tick);
    q.runUntil(55);
    EXPECT_EQ(fired, (std::vector<Cycles>{0, 10, 20, 30, 40, 50}));
    EXPECT_EQ(q.now(), 55u);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(200);
    EXPECT_EQ(fired.back(), 100u);
    EXPECT_EQ(q.now(), 200u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FarEventMigratesBeforeSameCycleDirectInsert)
{
    // The far event is scheduled first (smaller seq) into the overflow
    // heap; once its cycle comes within the horizon a callback schedules
    // a second event into the same cycle directly. (when, seq) order
    // runs the far one first.
    constexpr Cycles H = EventQueue::kHorizon;
    EventQueue q;
    std::vector<int> order;
    q.schedule(H + 10, [&] { order.push_back(1); });
    q.schedule(20, [&] {
        q.schedule(H + 10, [&] { order.push_back(2); });
    });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), H + 10);
}

TEST(EventQueueTest, RunUntilIdleAdvanceMigratesFarEvents)
{
    // runUntil's idle advance moves now() without a dispatch; the far
    // event must still enter the wheel ahead of later direct inserts.
    constexpr Cycles H = EventQueue::kHorizon;
    EventQueue q;
    std::vector<Cycles> fired;
    std::vector<int> order;
    q.schedule(5 * H, [&] { order.push_back(1); });
    q.runUntil(5 * H - 100);
    EXPECT_EQ(q.nextEventAt(), 5 * H);
    q.schedule(5 * H - 50, [&] { order.push_back(0); });
    q.schedule(5 * H, [&] { order.push_back(2); });
    q.schedule(5 * H + H - 101, [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

/**
 * The binary-heap queue the timing wheel replaced, kept as the
 * reference model: one heap of {when, seq, slot} records over a
 * callback slab, dispatching in (when, seq) order.
 */
class HeapEventQueueReference
{
  public:
    Cycles now() const { return now_; }
    std::size_t pending() const { return queue_.size(); }
    bool empty() const { return queue_.empty(); }

    Cycles
    nextEventAt() const
    {
        return queue_.empty() ? EventQueue::kNoEvent : queue_.top().when;
    }

    void
    schedule(Cycles when, EventQueue::Callback fn)
    {
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            slot = static_cast<std::uint32_t>(slab_.size());
            slab_.push_back(std::move(fn));
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
            slab_[slot] = std::move(fn);
        }
        queue_.push(Event{when, nextSeq_++, slot});
    }

    bool
    runOne()
    {
        if (queue_.empty())
            return false;
        dispatchTop();
        return true;
    }

    void
    runUntil(Cycles limit)
    {
        while (!queue_.empty() && queue_.top().when <= limit)
            dispatchTop();
        if (now_ < limit)
            now_ = limit;
    }

    EventQueue::Clock saveClock() const { return {now_, nextSeq_, 0}; }

    void
    restoreClock(const EventQueue::Clock &c)
    {
        now_ = c.now;
        nextSeq_ = c.nextSeq;
    }

  private:
    struct Event
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    void
    dispatchTop()
    {
        const Event ev = queue_.top();
        queue_.pop();
        now_ = ev.when;
        EventQueue::Callback fn = std::move(slab_[ev.slot]);
        freeSlots_.push_back(ev.slot);
        fn();
    }

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    std::vector<EventQueue::Callback> slab_;
    std::vector<std::uint32_t> freeSlots_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/** One dispatch as seen from inside its callback, after the callback
 *  scheduled its children: the queue state the next dispatch starts
 *  from. */
struct Dispatch
{
    Cycles now;
    std::uint64_t id;
    Cycles nextEventAt;
    std::size_t pending;

    bool
    operator==(const Dispatch &o) const
    {
        return now == o.now && id == o.id && nextEventAt == o.nextEventAt &&
               pending == o.pending;
    }
};

/** Delay mix around the horizon's edges plus near, same-cycle and far. */
Cycles
pickDelay(Rng &rng)
{
    constexpr Cycles H = EventQueue::kHorizon;
    switch (rng.below(10)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return H - 1;
    case 3: return H;
    case 4: return H + 1;
    case 5: return rng.between(2, 40) * H + rng.below(H);  // >> horizon
    case 6: return rng.below(3 * H);
    default: return rng.below(64);
    }
}

/**
 * Drives one queue with events whose callbacks spawn children from a
 * generator keyed by the event's id, so two queues that dispatch in
 * the same order make identical schedule calls.
 */
template <typename Queue>
struct Harness
{
    Queue q;
    std::vector<Dispatch> log;
    std::uint64_t seed;
    std::uint64_t nextId = 0;
    std::uint64_t budget;  ///< ids left for callbacks to spawn

    Harness(std::uint64_t s, std::uint64_t b) : seed(s), budget(b) {}

    void
    add(Cycles when)
    {
        const std::uint64_t id = nextId++;
        q.schedule(when, [this, id] { fire(id); });
    }

    void
    fire(std::uint64_t id)
    {
        Rng rng(seed * 0x9E3779B97F4A7C15ull + id);
        const std::uint64_t roll = rng.below(20);
        if (budget > 0 && roll == 0) {
            // Same-cycle burst.
            const Cycles when = q.now() + pickDelay(rng);
            for (std::uint64_t n = rng.between(3, 8); n > 0 && budget > 0;
                 --n, --budget)
                add(when);
        } else {
            // Zero to two children; mean slightly above one keeps the
            // queue populated until the budget runs out.
            const std::uint64_t kids = roll < 6 ? 0 : roll < 16 ? 1 : 2;
            for (std::uint64_t n = 0; n < kids && budget > 0; ++n, --budget)
                add(q.now() + pickDelay(rng));
        }
        log.push_back({q.now(), id, q.nextEventAt(), q.pending()});
    }
};

/**
 * Asserts that both harnesses logged the same dispatches since @p checked
 * (advanced past them) and now sit in the same queue state.
 */
void
expectSameDispatches(const Harness<EventQueue> &wheel,
                     const Harness<HeapEventQueueReference> &ref,
                     std::size_t &checked)
{
    ASSERT_EQ(wheel.log.size(), ref.log.size())
        << "dispatch counts differ after dispatch " << checked;
    for (; checked < ref.log.size(); ++checked) {
        const Dispatch &w = wheel.log[checked];
        const Dispatch &r = ref.log[checked];
        ASSERT_TRUE(w == r)
            << "dispatch " << checked << ": wheel ran id " << w.id
            << " at cycle " << w.now << " (next " << w.nextEventAt
            << ", pending " << w.pending << "), reference ran id " << r.id
            << " at cycle " << r.now << " (next " << r.nextEventAt
            << ", pending " << r.pending << ")";
    }
    ASSERT_EQ(wheel.q.now(), ref.q.now());
    ASSERT_EQ(wheel.q.pending(), ref.q.pending());
    ASSERT_EQ(wheel.q.nextEventAt(), ref.q.nextEventAt());
}

/**
 * Replays one randomized schedule through the wheel and the reference:
 * single dispatches checked in lockstep, runUntil limits that land
 * inside and far beyond the horizon (across idle gaps), and external
 * schedules from outside any callback.
 */
void
replay(std::uint64_t seed, Cycles start)
{
    constexpr Cycles H = EventQueue::kHorizon;
    Harness<EventQueue> wheel(seed, 3000);
    Harness<HeapEventQueueReference> ref(seed, 3000);
    if (start != 0) {
        wheel.q.restoreClock({start, 77, 0});
        ref.q.restoreClock({start, 77, 0});
    }
    Rng rng(seed);
    std::size_t checked = 0;
    for (int n = 0; n < 8; ++n) {
        const Cycles when = start + pickDelay(rng);
        wheel.add(when);
        ref.add(when);
    }
    for (int step = 0; step < 4000; ++step) {
        // An empty queue gets an external schedule, so runs that drain
        // early still cover the whole step count.
        switch (ref.q.empty() ? 1 : rng.below(8)) {
        case 0: {
            Cycles gap;
            switch (rng.below(4)) {
            case 0: gap = rng.below(H); break;
            case 1: gap = H - 1 + rng.below(3); break;
            default: gap = rng.between(2, 30) * H + rng.below(H); break;
            }
            wheel.q.runUntil(wheel.q.now() + gap);
            ref.q.runUntil(ref.q.now() + gap);
            break;
        }
        case 1: {
            const Cycles when = ref.q.now() + pickDelay(rng);
            wheel.add(when);
            ref.add(when);
            break;
        }
        default:
            ASSERT_EQ(wheel.q.nextEventAt(), ref.q.nextEventAt());
            ASSERT_EQ(wheel.q.pending(), ref.q.pending());
            wheel.q.runOne();
            ref.q.runOne();
            break;
        }
        expectSameDispatches(wheel, ref, checked);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    while (ref.q.runOne())
        wheel.q.runOne();
    EXPECT_FALSE(wheel.q.runOne());
    expectSameDispatches(wheel, ref, checked);
    EXPECT_EQ(wheel.q.saveClock().nextSeq, ref.q.saveClock().nextSeq);
    EXPECT_GT(wheel.log.size(), 3000u);
}

TEST(EventQueueDifferentialTest, MatchesHeapReferenceOnRandomSchedules)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        replay(seed, 0);
    }
}

TEST(EventQueueDifferentialTest, MatchesHeapReferenceAfterUnalignedRestore)
{
    // A restored clock far from zero and off the wheel's alignment.
    constexpr Cycles kStart = (Cycles{1} << 40) + 12345;
    for (std::uint64_t seed = 101; seed <= 110; ++seed) {
        SCOPED_TRACE(seed);
        replay(seed, kStart);
    }
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runAll();
    EXPECT_DEATH(q.schedule(5, [] {}), "past");
}

}  // namespace
}  // namespace mosaic
