/**
 * @file
 * JSON serialization of simulation results, for downstream plotting and
 * regression tracking. All emission goes through the shared JsonWriter
 * (common/json_writer.h), so escaping and number formatting live in one
 * place; the metrics section renders straight from the simulation's
 * StatsRegistry snapshot instead of a hand-maintained field list.
 */

#ifndef MOSAIC_RUNNER_JSON_REPORT_H
#define MOSAIC_RUNNER_JSON_REPORT_H

#include <cstdio>
#include <string>

#include "common/json_writer.h"
#include "common/log.h"
#include "runner/simulation.h"

namespace mosaic {

namespace detail {

/** Escapes a string for a JSON literal (shared-writer rules). */
inline std::string
jsonEscape(const std::string &s)
{
    return JsonWriter::escape(s);
}

}  // namespace detail

/** Serializes @p result as a single JSON object. */
inline std::string
toJson(const SimResult &result)
{
    JsonWriter w;
    w.beginObject();
    w.field("config", result.configLabel);
    w.field("workload", result.workloadName);
    w.field("totalCycles", result.totalCycles);
    const MetricsSnapshot &m = result.metrics;
    w.field("l1TlbHitRate", l1TlbHitRate(m));
    w.field("l2TlbHitRate", l2TlbHitRate(m));
    w.field("pageWalks", m.u64("vm.walker.walks"));
    w.field("avgWalkLatency", m.real("vm.walker.latency.mean"));
    w.field("farFaults", m.u64("iobus.paging.farFaults"));
    w.field("pagedBytes", m.u64("iobus.paging.bytesTransferred"));
    w.field("allocatedBytes", m.u64("mm.peakAllocatedBytes"));
    w.field("neededBytes", m.u64("sim.neededBytes"));
    w.field("l1CacheHitRate", l1CacheHitRate(m));
    w.field("l2CacheHitRate", l2CacheHitRate(m));
    w.field("gpuStallCycles", m.u64("gpu.stallCycles"));
    w.key("mm").beginObject();
    w.field("coalesceOps", m.u64("mm.coalesceOps"));
    w.field("splinterOps", m.u64("mm.splinterOps"));
    w.field("compactions", m.u64("mm.compactions"));
    w.field("migrations", m.u64("mm.migrations"));
    w.field("emergencySplinters", m.u64("mm.emergencySplinters"));
    w.field("softGuaranteeViolations", m.u64("mm.softGuaranteeViolations"));
    w.field("outOfFrames", m.u64("mm.outOfFrames"));
    w.field("pagesBacked", m.u64("mm.pagesBacked"));
    w.field("pagesReleased", m.u64("mm.pagesReleased"));
    w.endObject();
    w.key("apps").beginArray();
    for (const AppResult &app : result.apps) {
        w.beginObject();
        w.field("name", app.name);
        w.field("sms", app.smCount);
        w.field("instructions", app.instructions);
        w.field("finishCycle", app.finishCycle);
        w.field("ipc", app.ipc);
        w.field("farFaultStalls", app.farFaultStalls);
        w.field("l1TlbHitRate", app.l1TlbHitRate);
        w.field("pageWalks", app.pageWalks);
        w.endObject();
    }
    w.endArray();
    w.key("metrics");
    result.metrics.writeJson(w);
    w.endObject();
    return w.str();
}

/**
 * Serializes the full metrics view of @p result: the end-of-run
 * registry snapshot plus any interval samples recorded under
 * SimConfig::metricsSamplePeriod (the `--metrics-json` document).
 */
inline std::string
metricsToJson(const SimResult &result,
              const std::string &managerName = std::string())
{
    JsonWriter w;
    w.beginObject();
    w.field("config", result.configLabel);
    w.field("workload", result.workloadName);
    if (!managerName.empty())
        w.field("manager", managerName);
    w.field("totalCycles", result.totalCycles);
    w.key("metrics");
    result.metrics.writeJson(w);
    w.key("samples").beginArray();
    for (const MetricsSnapshot &sample : result.metricsSamples) {
        w.beginObject();
        w.field("cycle", sample.atCycle);
        w.key("metrics");
        sample.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

/** Writes metricsToJson(@p result) to @p path; false on I/O failure. */
inline bool
writeMetricsJson(const SimResult &result, const std::string &path,
                 const std::string &managerName = std::string())
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        MOSAIC_WARN("cannot open " + path + " for writing");
        return false;
    }
    const std::string doc = metricsToJson(result, managerName);
    std::fprintf(f, "%s\n", doc.c_str());
    std::fclose(f);
    return true;
}

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_JSON_REPORT_H
