/**
 * @file
 * Ledger program: runs one pinned cell through runSimulation() and prints
 * one JSON object with what it measured and what it checked.
 *
 *   ledger --cell <name> --seed <n> --seconds <s> [--ensemble <k>]
 *          [--count-events 1]
 *   ledger_traced --cell <name> --seed <n> --layers <table>
 *                 [--spans-out <csv>]
 *
 * The plain build simulates the seeds seed .. seed + ensemble - 1 in turn,
 * until --seconds have passed and at least one seed ran twice, and times
 * set-up (the same call with maxCycles = 0) in bursts around the
 * simulations. --count-events 1 adds one
 * untimed run that counts dispatched events with the simulator's own
 * tracer. The traced build runs the simulation once under the span
 * recorder. run.py turns both into the ledger's metrics.
 *
 * Every simulation is checked; a failed check prints "check failed
 * [<name>]" on stderr and marks that simulation failed.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/parse_num.h"
#include "common/types.h"
#include "runner/simulation.h"
#include "workload/workload.h"

#if defined(LEDGER_TRACED)
#include "span_trace.h"
#endif

using namespace mosaic;

namespace {

/** Set-ups timed per burst; a burst runs before the first simulation and
 *  after each one. */
constexpr int kSetupsPerBurst = 5;

struct Cell
{
    Workload workload;
    SimConfig config;
    /**
     * Whether mm.softGuaranteeViolations must be 0. CoCoA breaks the soft
     * guarantee only on its last-resort paths, when memory is too tight
     * or too fragmented to keep a large frame to one application; the
     * stress cell is built to reach them.
     */
    bool softGuaranteeHolds = true;
};

/** Shared shape of every cell: scale 0.3, 2000 instructions per warp,
 *  16 warps on each of 30 SMs, PCIe time compressed 16x, serial engine. */
Cell
pinnedCell(Workload w, SimConfig config, std::uint64_t seed)
{
    w = scaledWorkload(w, 0.3);
    for (AppParams &app : w.apps)
        app.instrPerWarp = 2000;
    config.gpu.numSms = 30;
    config.gpu.sm.warpsPerSm = 16;
    config = config.withIoCompression(16.0);
    config.engineShards = 0;
    config.seed = seed;
    return Cell{std::move(w), std::move(config)};
}

/** The three pinned cells (README.md, "Workloads"). */
bool
makeCell(const std::string &name, std::uint64_t seed, Cell *out)
{
    if (name == "het4_mosaic_paging") {
        *out = pinnedCell(heterogeneousWorkload(4, 42),
                          SimConfig::mosaicDefault(), seed);
    } else if (name == "het4_gpummu_prefetch") {
        *out = pinnedCell(heterogeneousWorkload(4, 42),
                          SimConfig::baseline().withoutPaging(false), seed);
    } else if (name == "cons2_cac_churn") {
        Cell c = pinnedCell(homogeneousWorkload("CONS", 2),
                            SimConfig::mosaicDefault(), seed);
        c.softGuaranteeHolds = false;
        c.config.fragmentationIndex = 0.95;
        c.config.fragmentationOccupancy = 0.25;
        c.config.churn.enabled = true;
        // --tight-memory: DRAM holds about 8x the working set.
        c.config.pageTablePoolBytes = 16ull << 20;
        c.config.dram.capacityBytes = std::max<std::uint64_t>(
            roundUp(c.workload.workingSetBytes() * 8, kLargePageSize) +
                c.config.pageTablePoolBytes + (8ull << 20),
            64ull << 20);
        *out = std::move(c);
    } else {
        return false;
    }
    return true;
}

/** Every deterministic output of a run, one "key=value" line each. */
std::string
deterministicText(const SimResult &r)
{
    std::string out;
    char buf[128];
    std::snprintf(buf, sizeof buf, "totalCycles=%llu\n",
                  static_cast<unsigned long long>(r.totalCycles));
    out += buf;
    for (const AppResult &a : r.apps) {
        std::snprintf(buf, sizeof buf, "app.%s=%llu,%llu,%.17g\n",
                      a.name.c_str(),
                      static_cast<unsigned long long>(a.instructions),
                      static_cast<unsigned long long>(a.finishCycle), a.ipc);
        out += buf;
    }
    for (const MetricValue &v : r.metrics.values) {
        out += v.key();
        if (v.integer)
            std::snprintf(buf, sizeof buf, "=%llu\n",
                          static_cast<unsigned long long>(v.u));
        else
            std::snprintf(buf, sizeof buf, "=%.17g\n", v.d);
        out += buf;
    }
    return out;
}

/** 64-bit FNV-1a, printed as the snapshot's identity. */
std::string
digest(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * The per-run correctness checks. Prints a named diagnostic for each
 * failure and returns how many failed.
 */
int
checkRun(const Cell &cell, const SimResult &r, const std::string &first)
{
    int failed = 0;
    const auto fail = [&failed](const char *name, const std::string &what) {
        std::fprintf(stderr, "check failed [%s]: %s\n", name, what.c_str());
        ++failed;
    };
    const std::uint64_t warps = cell.config.gpu.sm.warpsPerSm;
    std::uint64_t want_total = 0;
    Cycles last_finish = 0;
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
        const AppResult &a = r.apps[i];
        const std::uint64_t want =
            std::uint64_t(a.smCount) * warps *
            cell.workload.apps.at(i).instrPerWarp;
        want_total += want;
        if (a.instructions != want)
            fail("instructions_retired",
                 a.name + " retired " + std::to_string(a.instructions) +
                     " of " + std::to_string(want));
        if (a.finishCycle == 0 || a.finishCycle >= cell.config.maxCycles)
            fail("apps_finished",
                 a.name + " finish cycle " + std::to_string(a.finishCycle) +
                     " not inside (0, maxCycles)");
        last_finish = std::max(last_finish, a.finishCycle);
    }
    if (r.apps.size() != cell.workload.apps.size())
        fail("apps_finished", "result lists " +
                                  std::to_string(r.apps.size()) + " apps");
    if (r.metrics.u64("gpu.sm.instructions") != want_total)
        fail("instructions_retired",
             "gpu.sm.instructions " +
                 std::to_string(r.metrics.u64("gpu.sm.instructions")) +
                 " != configured " + std::to_string(want_total));
    if (r.metrics.u64("sim.cycles") < last_finish)
        fail("cycles_cover_finish",
             "sim.cycles " + std::to_string(r.metrics.u64("sim.cycles")) +
                 " < last finish " + std::to_string(last_finish));
    if (cell.softGuaranteeHolds &&
        r.metrics.u64("mm.softGuaranteeViolations") != 0)
        fail("soft_guarantee",
             "mm.softGuaranteeViolations = " +
                 std::to_string(
                     r.metrics.u64("mm.softGuaranteeViolations")));
    if (!first.empty() && digest(deterministicText(r)) != first)
        fail("deterministic_repeat",
             "snapshot " + digest(deterministicText(r)) +
                 " differs from this seed's first run " + first);
    return failed;
}

/** Every counter of @p r, as the JSON member "metrics". */
void
printMetrics(const SimResult &r)
{
    std::printf("\"metrics\":{");
    bool comma = false;
    for (const MetricValue &v : r.metrics.values) {
        std::printf("%s\"%s\":", comma ? "," : "", v.key().c_str());
        if (v.integer)
            std::printf("%llu", static_cast<unsigned long long>(v.u));
        else
            std::printf("%.17g", v.d);
        comma = true;
    }
    std::printf("}");
}

#if !defined(LEDGER_TRACED)
// Used by the plain build only.

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Set-up only: the same call, stopped before the first event. The
 *  "hit maxCycles" warning this provokes is expected, so stderr is
 *  muted around the call. */
double
timeSetup(const Cell &cell)
{
    SimConfig c = cell.config;
    c.maxCycles = 0;
    std::fflush(stderr);
    const int saved = dup(STDERR_FILENO);
    const int devnull = open("/dev/null", O_WRONLY);
    if (saved >= 0 && devnull >= 0)
        dup2(devnull, STDERR_FILENO);
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult r = runSimulation(cell.workload, c);
    const double s = secondsSince(t0);
    std::fflush(stderr);
    if (saved >= 0 && devnull >= 0)
        dup2(saved, STDERR_FILENO);
    if (devnull >= 0)
        close(devnull);
    if (saved >= 0)
        close(saved);
    return s;
}

/**
 * Events the serial engine dispatched, read from the simulator's own
 * tracer: with one engine.sample instant per event, the last one left in
 * the ring carries the total. Also returns the run's snapshot digest.
 */
std::uint64_t
countEvents(const Cell &cell, std::string *digestOut)
{
    SimConfig c = cell.config.withTracing(kTraceEngine);
    c.trace.engineSampleEvery = 1;
    c.trace.ringCapacity = 1024;
    const SimResult r = runSimulation(cell.workload, c);
    *digestOut = digest(deterministicText(r));
    std::uint64_t events = 0;
    r.trace->hubRing().forEach([&events](const TraceEvent &e) {
        if (e.name != nullptr && std::strcmp(e.name, "engine.sample") == 0)
            events = std::max(events, e.args[0].value);
    });
    return events;
}

/**
 * This process's peak resident set (VmHWM), or -1 if unreadable.
 * getrusage() will not do: its ru_maxrss survives exec(), so it would
 * report the launching interpreter's footprint.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    long kb = -1;
    while (status >> key) {
        if (key == "VmHWM:") {
            status >> kb;
            break;
        }
        status.ignore(4096, '\n');
    }
    return kb;
}

void
printList(const char *key, const std::vector<double> &xs)
{
    std::printf("\"%s\":[", key);
    for (std::size_t i = 0; i < xs.size(); ++i)
        std::printf("%s%.9f", i ? "," : "", xs[i]);
    std::printf("]");
}

#endif

int
usage()
{
    std::fprintf(stderr,
                 "usage: ledger --cell <name> --seed <n> --seconds <s> "
                 "[--ensemble <k>] [--count-events 1] "
                 "[--layers <table>] [--spans-out <csv>]\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string cell_name, layers_path, spans_path;
    std::uint64_t seed = 1, count_events = 0, ensemble = 1;
    double seconds = 1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (a == "--cell") {
            cell_name = v;
        } else if (a == "--seed") {
            if (!parseU64(v, &seed))
                return usage();
        } else if (a == "--seconds") {
            char *end = nullptr;
            seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(seconds >= 0.0))
                return usage();
        } else if (a == "--ensemble") {
            if (!parseU64(v, &ensemble) || ensemble == 0 || ensemble > 64)
                return usage();
        } else if (a == "--count-events") {
            if (!parseU64(v, &count_events) || count_events > 1)
                return usage();
        } else if (a == "--layers") {
            layers_path = v;
        } else if (a == "--spans-out") {
            spans_path = v;
        } else {
            return usage();
        }
    }
    // MOSAIC_SIM_SHARDS would silently swap the serial engine for the
    // sharded one (engineShards = 0 defers to it).
    if (std::getenv("MOSAIC_SIM_SHARDS") != nullptr) {
        std::fprintf(stderr, "refusing to run: MOSAIC_SIM_SHARDS is set\n");
        return 2;
    }
    Cell cell;
    if (!makeCell(cell_name, seed, &cell)) {
        std::fprintf(stderr, "unknown cell '%s'\n", cell_name.c_str());
        return usage();
    }

    std::printf("{\"cell\":\"%s\",\"seed\":%llu,", cell_name.c_str(),
                static_cast<unsigned long long>(seed));
#if defined(LEDGER_TRACED)
    (void)seconds;
    (void)ensemble;
    if (layers_path.empty())
        return usage();
    if (const std::string err = ledger::loadLayerTable(layers_path);
        !err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }
    ledger::beginTrace();
    const SimResult r = runSimulation(cell.workload, cell.config);
    const ledger::LayerProfile p = ledger::endTrace();
    if (!spans_path.empty() && !ledger::writeSpans(spans_path)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     spans_path.c_str());
        return 2;
    }
    const int failed_checks = checkRun(cell, r, "");
    std::printf("\"traced\":true,\"attempted\":1,\"failed\":%d,"
                "\"digest\":\"%s\",\"wall_s\":%.9f,\"events\":%llu,"
                "\"unmapped_entries\":%llu,\"spans\":%llu,"
                "\"spans_kept\":%llu,\"layers\":{",
                failed_checks ? 1 : 0,
                digest(deterministicText(r)).c_str(), p.wallS,
                static_cast<unsigned long long>(p.events),
                static_cast<unsigned long long>(p.unmappedEntries),
                static_cast<unsigned long long>(p.spans),
                static_cast<unsigned long long>(p.spansKept));
    for (int l = 0; l < ledger::kNumLayers; ++l)
        std::printf("%s\"%s\":{\"self_s\":%.9f,\"calls\":%llu,"
                    "\"setup_self_s\":%.9f}",
                    l ? "," : "", ledger::kLayerNames[l], p.selfS[l],
                    static_cast<unsigned long long>(p.calls[l]),
                    p.setupSelfS[l]);
    std::printf("},");
    printMetrics(r);
#else
    if (!layers_path.empty() || !spans_path.empty())
        return usage();
    // The ensemble: seeds seed .. seed + ensemble - 1, simulated in turn
    // until --seconds have passed and at least one seed ran twice.
    struct Member
    {
        Cell cell;
        std::vector<double> wall_s;
        std::string first;  ///< digest of this seed's first run
        SimResult last;
    };
    std::vector<Member> members(ensemble);
    for (std::uint64_t i = 0; i < ensemble; ++i)
        makeCell(cell_name, seed + i, &members[i].cell);

    // Set-up is timed in bursts, one before the first simulation and one
    // after each, so its median samples the same stretch of host time as
    // the simulations do.
    std::vector<double> setup_s;
    const auto setup_burst = [&](const Cell &c) {
        for (int i = 0; i < kSetupsPerBurst; ++i)
            setup_s.push_back(timeSetup(c));
    };
    setup_burst(cell);

    std::size_t runs = 0;
    int failed = 0;
    long peak_rss_kb = -1;
    const auto t_run = std::chrono::steady_clock::now();
    while (runs <= ensemble || secondsSince(t_run) < seconds) {
        Member &m = members[runs++ % ensemble];
        const auto t0 = std::chrono::steady_clock::now();
        SimResult r = runSimulation(m.cell.workload, m.cell.config);
        m.wall_s.push_back(secondsSince(t0));
        if (checkRun(m.cell, r, m.first) != 0)
            ++failed;
        if (m.first.empty())
            m.first = digest(deterministicText(r));
        m.last = std::move(r);
        if (runs == ensemble) {
            // Peak memory over one pass of the seeds; later passes would
            // only add the allocator's leftovers.
            peak_rss_kb = peakRssKb();
        }
        setup_burst(m.cell);
    }
    if (count_events != 0) {
        std::string traced;
        const std::uint64_t events = countEvents(cell, &traced);
        std::printf("\"events_by_tracer\":%llu,\"tracer_digest\":\"%s\",",
                    static_cast<unsigned long long>(events),
                    traced.c_str());
    }
    std::printf("\"traced\":false,\"attempted\":%zu,\"failed\":%d,"
                "\"digest\":\"%s\",\"peak_rss_kb\":%ld,",
                runs, failed, members[0].first.c_str(), peak_rss_kb);
    printList("setup_s", setup_s);
    std::printf(",\"members\":[");
    for (std::size_t i = 0; i < members.size(); ++i) {
        const Member &m = members[i];
        std::printf("%s{\"seed\":%llu,\"sim_cycles\":%llu,"
                    "\"instructions\":%llu,\"ipc_sum\":%.17g,",
                    i ? "," : "",
                    static_cast<unsigned long long>(m.cell.config.seed),
                    static_cast<unsigned long long>(
                        m.last.metrics.u64("sim.cycles")),
                    static_cast<unsigned long long>(
                        m.last.metrics.u64("gpu.sm.instructions")),
                    m.last.totalIpc());
        printList("wall_s", m.wall_s);
        std::printf("}");
    }
    std::printf("],");
    // Full counters of the first seed, the one --seed names.
    printMetrics(members[0].last);
#endif
    std::printf("}\n");
    return 0;
}
