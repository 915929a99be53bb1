/**
 * @file
 * Runs a Workload on the System (runner/system.h) a SimConfig
 * describes: lays out the applications, creates their SMs and warps,
 * launches them, drives churn, sampling and checkpoints, and harvests
 * the result.
 */

#ifndef MOSAIC_RUNNER_SIMULATION_H
#define MOSAIC_RUNNER_SIMULATION_H

#include <memory>
#include <string>
#include <vector>

#include "common/stats_registry.h"
#include "runner/sim_config.h"
#include "trace/tracer.h"
#include "workload/workload.h"

namespace mosaic {

/** Per-application outcome of a simulation. */
struct AppResult
{
    std::string name;
    unsigned smCount = 0;
    std::uint64_t instructions = 0;
    Cycles finishCycle = 0;
    double ipc = 0.0;
    std::uint64_t farFaultStalls = 0;
    /** This application's own L1-TLB-hit fraction (interference view). */
    double l1TlbHitRate = 0.0;
    /** Page walks this application's translations caused. */
    std::uint64_t pageWalks = 0;
};

/**
 * Everything a simulation reports. Every registry value (walks, far
 * faults, memory-manager operations, bloat, ...) lives only in
 * `metrics`, keyed by dotted path (DESIGN.md §8): read it as
 * `r.metrics.u64("vm.walker.walks")`, and hit rates with the functions
 * below.
 */
struct SimResult
{
    std::string configLabel;
    std::string workloadName;
    std::vector<AppResult> apps;
    Cycles totalCycles = 0;

    /** End-of-run capture of every metric the StatsRegistry knows. */
    MetricsSnapshot metrics;

    /** Interval snapshots (SimConfig::metricsSamplePeriod > 0 only). */
    std::vector<MetricsSnapshot> metricsSamples;

    /**
     * The run's event trace (SimConfig::trace.enabled only; otherwise
     * null). Shared so results stay cheaply copyable; export with
     * trace/trace_export.h.
     */
    std::shared_ptr<Tracer> trace;

    /** Sum of per-app IPCs (single number for 1-app runs). */
    double
    totalIpc() const
    {
        double total = 0.0;
        for (const AppResult &app : apps)
            total += app.ipc;
        return total;
    }
};

/**
 * Hit rates over a snapshot (SimResult::metrics or an interval sample),
 * 0 when nothing was looked up. TLB rates are per translation request
 * (L1) and per shared-L2 lookup, l2Hits / (l2Hits + walksIssued): every
 * L2 lookup hits or issues a walk, whereas the TLB arrays count one
 * probe per page-size array searched. Cache rates are per access.
 */
double l1TlbHitRate(const MetricsSnapshot &m);
double l2TlbHitRate(const MetricsSnapshot &m);
double l1CacheHitRate(const MetricsSnapshot &m);
double l2CacheHitRate(const MetricsSnapshot &m);

/**
 * Runs @p workload under @p config to completion.
 *
 * Thread-safe: safe to call concurrently from multiple threads (each
 * call builds a private EventQueue and system; there are no shared
 * mutable globals -- see DESIGN.md, "Thread-safety contract"). A given
 * (workload, config, seed) always produces the same SimResult.
 */
SimResult runSimulation(const Workload &workload, const SimConfig &config);

/**
 * IPCs of each application of @p workload running alone (no sharing) on
 * the same SM partition sizes, under the baseline GPU-MMU configuration
 * with paging disabled-overhead -- the paper's IPC_alone denominator.
 * Results are memoized per (app name, SM count, scale signature); the
 * memo is mutex-guarded, so this is safe to call concurrently.
 */
std::vector<double> aloneIpcs(const Workload &workload,
                              const SimConfig &sharedConfig);

/** Weighted speedup of @p result against aloneIpcs(). */
double weightedSpeedupOf(const SimResult &result,
                         const std::vector<double> &alone);

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_SIMULATION_H
