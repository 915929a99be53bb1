/**
 * @file
 * Per-layer span recorder for the traced ledger build.
 *
 * The traced build compiles the simulator with -finstrument-functions,
 * so every function defined under src/<layer>/ reports its entry and
 * exit. A table made from the binary's symbols (run.py writes it) maps
 * each function address to its layer. Only a change of layer opens a
 * span; calls within one layer just deepen the current span. Each span
 * has a layer, a start, an end and a parent span. Self time (a span's
 * duration minus its child spans) is summed per layer as spans close.
 * The first kMaxKeptSpans spans opened after the first event stay in
 * memory and are written out once, after the run.
 */

#ifndef MOSAIC_LEDGER_SPAN_TRACE_H
#define MOSAIC_LEDGER_SPAN_TRACE_H

#include <cstdint>
#include <string>

namespace ledger {

/** The simulator's layers: the module directories under src/. */
inline constexpr int kNumLayers = 9;
inline constexpr const char *kLayerNames[kNumLayers] = {
    "engine", "gpu", "cache", "dram", "vm",
    "mm", "iobus", "workload", "runner"};

/** Span records kept in memory for the span file; the others are only
 *  summed. */
inline constexpr std::uint64_t kMaxKeptSpans = 1u << 18;

/** What one traced simulation spent, per layer. */
struct LayerProfile
{
    double wallS = 0.0;                  ///< trace start to trace end
    double selfS[kNumLayers] = {};       ///< self time per layer
    std::uint64_t calls[kNumLayers] = {};  ///< spans opened per layer
    /** Self time per layer before the first event was dispatched. */
    double setupSelfS[kNumLayers] = {};
    /** Events dispatched (entries into EventQueue::dispatchTop). */
    std::uint64_t events = 0;
    /** Function entries whose address the layer table lacks. */
    std::uint64_t unmappedEntries = 0;
    std::uint64_t spans = 0;
    std::uint64_t spansKept = 0;
};

/**
 * Loads the address -> layer table: one "<hex address> <layer> <role>"
 * line per function, role "event" marking the event-dispatch function.
 * Returns an empty string on success, else a diagnostic.
 */
std::string loadLayerTable(const std::string &path);

/** Starts recording (call from uninstrumented code). */
void beginTrace();

/** Stops recording and returns the totals. */
LayerProfile endTrace();

/**
 * Writes the kept spans as CSV (id,parent,layer,start_ns,end_ns; times
 * from beginTrace(); parent 0 is the uninstrumented ledger program, and
 * a parent missing from the file was opened before the window). Returns
 * false on I/O failure.
 */
bool writeSpans(const std::string &path);

}  // namespace ledger

#endif  // MOSAIC_LEDGER_SPAN_TRACE_H
