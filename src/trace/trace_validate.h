/**
 * @file
 * Trace replay and invariant re-verification (tools/trace_check).
 *
 * Validates an exported Chrome Trace Event document from the event
 * stream alone -- no access to simulator state -- re-proving the
 * properties the trace claims to show:
 *
 *  - document shape: every event has a name and phase; timed phases
 *    carry a numeric ts; async phases carry an id;
 *  - frame-lifecycle state machine: per frame id, alloc -> (coalesce ->
 *    splinter)* -> free, with compact/fragmented/emergency markers only
 *    legal in the states CAC could emit them from (a frame is never
 *    freed while coalesced, never coalesced twice, never splintered
 *    when uncoalesced);
 *  - async span integrity: no span closes before it opens, no marker
 *    or close on a span that was never opened;
 *  - soft-guarantee and coalesce-state cross-checks: the final sampled
 *    counter-track values (mm.coalesceOps, mm.splinterOps,
 *    mm.compactions, mm.emergencySplinters,
 *    mm.softGuaranteeViolations) must equal the number of
 *    corresponding events in the stream;
 *  - track integrity: every event's tid names a known track, every
 *    used tid carries thread_name metadata, and all events of one async
 *    series share a tid (a span never changes track mid-flight);
 *  - drop accounting: when otherData reports droppedByCategory, the
 *    per-category counts must sum to the total drop count.
 *
 * When the ring buffer dropped events, prefix-dependent checks are
 * skipped (any opening event may be missing) and the result says so.
 *
 * With collectStats, the validator additionally aggregates span
 * durations (complete "X" events and matched async b->e pairs) into
 * per-name count/mean/p50/p95/p99/max tables (trace_check --stats).
 */

#ifndef MOSAIC_TRACE_TRACE_VALIDATE_H
#define MOSAIC_TRACE_TRACE_VALIDATE_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_reader.h"

namespace mosaic {

/** Duration statistics for one span name (trace_check --stats).
 *  Percentiles use the nearest-rank method on the observed sample. */
struct SpanStats
{
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** Outcome of validating one trace document. */
struct TraceCheckResult
{
    bool ok = true;
    std::vector<std::string> errors;
    std::vector<std::string> notes;  ///< non-fatal observations

    std::uint64_t events = 0;       ///< trace events (metadata excluded)
    std::uint64_t dropped = 0;      ///< ring-buffer drops per otherData
    std::uint64_t frameLifecycles = 0;  ///< frame alloc events seen
    std::uint64_t completeLifecycles = 0;  ///< alloc..free fully in trace
    std::uint64_t walkSpans = 0;
    std::uint64_t coalesces = 0;
    std::uint64_t splinters = 0;
    std::uint64_t compactions = 0;
    std::uint64_t violations = 0;   ///< soft-guarantee violation instants
    std::uint64_t counterSamples = 0;
    std::uint64_t openSpans = 0;    ///< async spans still open at the end

    /** otherData.droppedByCategory, in document order (empty when the
     *  export had no drops -- the exporter omits the object then). */
    std::vector<std::pair<std::string, std::uint64_t>> droppedByCategory;

    /** Per-span-name duration stats, name-sorted (collectStats only). */
    std::vector<SpanStats> spanStats;
};

/**
 * Validates @p root (a parsed Chrome Trace Event document).
 * result.ok is false when any invariant fails; result.errors explains.
 * With @p collectStats, also fills result.spanStats.
 */
TraceCheckResult validateChromeTrace(const JsonValue &root,
                                     bool collectStats = false);

/** Parses @p text and validates; parse failures become errors. */
TraceCheckResult validateChromeTraceText(const std::string &text,
                                         bool collectStats = false);

}  // namespace mosaic

#endif  // MOSAIC_TRACE_TRACE_VALIDATE_H
