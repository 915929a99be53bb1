#include "cache/hierarchy.h"

#include <algorithm>

namespace mosaic {

CacheHierarchy::CacheHierarchy(EventQueue &events, DramModel &dram,
                               const CacheHierarchyConfig &config,
                               StatsRegistry *metrics)
    : events_(events), dram_(dram), config_(config), smStats_(config.numSms)
{
    if (metrics != nullptr) {
        // SM-side counters live in per-SM slices (see SmStats) and are
        // summed on demand, so the bindings are functions, not refs.
        metrics->bindCounterFn("cache.l1.accesses",
                               [this] { return stats().l1Accesses; });
        metrics->bindCounterFn("cache.l1.hits",
                               [this] { return stats().l1Hits; });
        metrics->bindCounterFn("cache.l2.accesses",
                               [this] { return stats().l2Accesses; });
        metrics->bindCounterFn("cache.l2.hits",
                               [this] { return stats().l2Hits; });
        metrics->bindCounterFn("cache.writebacks",
                               [this] { return stats().writebacks; });
    }
    const std::size_t l1_lines = config_.l1Bytes / kCacheLineSize;
    const std::size_t l1_sets = std::max<std::size_t>(
        1, l1_lines / config_.l1Ways);
    l1Tags_.reserve(config_.numSms);
    l1Mshrs_.reserve(config_.numSms);
    for (unsigned i = 0; i < config_.numSms; ++i) {
        l1Tags_.emplace_back(l1_sets, config_.l1Ways);
        l1Mshrs_.emplace_back(config_.l1MshrEntries);
    }

    const std::size_t l2_lines = config_.l2Bytes / kCacheLineSize;
    const std::size_t l2_lines_per_bank =
        std::max<std::size_t>(1, l2_lines / config_.l2Banks);
    const std::size_t l2_sets = std::max<std::size_t>(
        1, l2_lines_per_bank / config_.l2Ways);
    l2Banks_.reserve(config_.l2Banks);
    for (unsigned i = 0; i < config_.l2Banks; ++i) {
        auto &bank = l2Banks_.emplace_back(config_.l2MshrEntries);
        bank.tags = std::make_unique<SetAssocCache>(l2_sets, config_.l2Ways);
    }
}

void
CacheHierarchy::access(SmId sm, Addr paddr, bool isWrite, Callback onDone)
{
    MOSAIC_ASSERT(sm < l1Tags_.size(), "SM id out of range");
    const std::uint64_t line = lineOf(paddr);
    SetAssocCache &l1 = l1Tags_[sm];
    MshrFile &mshr = l1Mshrs_[sm];

    ++smStats_[sm].l1Accesses;
    if (l1.access(line, isWrite)) {
        ++smStats_[sm].l1Hits;
        events_.scheduleAfter(config_.l1LatencyCycles, std::move(onDone));
        return;
    }

    const auto outcome = mshr.registerMiss(line, std::move(onDone));
    if (outcome != MshrFile::Outcome::NewMiss)
        return;  // merged into an in-flight miss

    // Forward to the shared L2 across the interconnect; on fill, install
    // the line in the L1 and release every merged waiter.
    events_.scheduleAfter(config_.interconnectCycles, [this, sm, line,
                                                       isWrite] {
        accessL2Line(line, isWrite, [this, sm, line, isWrite] {
            events_.scheduleAfter(config_.interconnectCycles, [this, sm,
                                                               line,
                                                               isWrite] {
                installL1Fill(sm, line, isWrite);
            });
        });
    });
}

void
CacheHierarchy::installL1Fill(SmId sm, std::uint64_t line, bool isWrite)
{
    SetAssocCache &l1_tags = l1Tags_[sm];
    if (!l1_tags.contains(line)) {
        // Write-allocate: a write miss installs dirty.
        auto victim = l1_tags.insert(line, isWrite);
        if (victim && victim->dirty) {
            ++smStats_[sm].writebacks;
            // Write back through the L2 (fire and forget).
            accessL2Line(victim->key, true, [] {});
        }
    }
    l1Mshrs_[sm].fill(line);
}

CacheHierarchy::Stats
CacheHierarchy::stats() const
{
    // Per-bank and per-SM slices, summed on demand.
    Stats total;
    for (const L2Bank &bank : l2Banks_) {
        total.l2Accesses += bank.accesses;
        total.l2Hits += bank.hits;
        total.writebacks += bank.writebacks;
    }
    for (const SmStats &s : smStats_) {
        total.l1Accesses += s.l1Accesses;
        total.l1Hits += s.l1Hits;
        total.writebacks += s.writebacks;
    }
    return total;
}

void
CacheHierarchy::accessFromL2(Addr paddr, bool isWrite, Callback onDone)
{
    accessL2Line(lineOf(paddr), isWrite, std::move(onDone));
}

void
CacheHierarchy::accessDram(Addr paddr, bool isWrite, Callback onDone)
{
    dram_.access(roundDown(paddr, kCacheLineSize), isWrite,
                 std::move(onDone));
}

void
CacheHierarchy::accessL2Line(std::uint64_t line, bool isWrite,
                             Callback onDone)
{
    const unsigned bank_idx = bankOf(line);
    L2Bank &bank = l2Banks_[bank_idx];
    ++bank.accesses;

    // Bank issue port: pipelined, one new access per l2BankCycleTime.
    const Cycles issue_at = std::max(events_.now(), bank.nextIssueAt);
    bank.nextIssueAt = issue_at + config_.l2BankCycleTime;
    const Cycles queue_delay = issue_at - events_.now();

    if (bank.tags->access(line, isWrite)) {
        ++bank.hits;
        events_.scheduleAfter(queue_delay + config_.l2LatencyCycles,
                              std::move(onDone));
        return;
    }

    const auto outcome = bank.mshr.registerMiss(line, std::move(onDone));
    if (outcome != MshrFile::Outcome::NewMiss)
        return;

    const Addr line_addr = line * kCacheLineSize;
    events_.scheduleAfter(queue_delay + config_.l2LatencyCycles,
                          [this, line, line_addr, isWrite] {
        auto fill = [this, line, isWrite] {
            L2Bank &fill_bank = l2Banks_[bankOf(line)];
            if (!fill_bank.tags->contains(line)) {
                auto victim = fill_bank.tags->insert(line, isWrite);
                if (victim && victim->dirty) {
                    ++fill_bank.writebacks;
                    dram_.access(victim->key * kCacheLineSize, true,
                                 [] {});
                }
            }
            fill_bank.mshr.fill(line);
        };
        dram_.access(line_addr, isWrite, std::move(fill));
    });
}

void
CacheHierarchy::saveState(ckpt::Writer &w) const
{
    for (const SetAssocCache &tags : l1Tags_)
        tags.saveState(w);
    for (const MshrFile &mshr : l1Mshrs_)
        mshr.saveState(w);
    for (const L2Bank &bank : l2Banks_) {
        bank.tags->saveState(w);
        bank.mshr.saveState(w);
        w.u64(bank.nextIssueAt);
        w.u64(bank.accesses);
        w.u64(bank.hits);
        w.u64(bank.writebacks);
    }
    for (const SmStats &s : smStats_) {
        w.u64(s.l1Accesses);
        w.u64(s.l1Hits);
        w.u64(s.writebacks);
    }
}

void
CacheHierarchy::loadState(ckpt::Reader &r)
{
    for (SetAssocCache &tags : l1Tags_)
        tags.loadState(r);
    for (MshrFile &mshr : l1Mshrs_)
        mshr.loadState(r);
    for (L2Bank &bank : l2Banks_) {
        bank.tags->loadState(r);
        bank.mshr.loadState(r);
        bank.nextIssueAt = r.u64();
        bank.accesses = r.u64();
        bank.hits = r.u64();
        bank.writebacks = r.u64();
    }
    for (SmStats &s : smStats_) {
        s.l1Accesses = r.u64();
        s.l1Hits = r.u64();
        s.writebacks = r.u64();
    }
}

}  // namespace mosaic
