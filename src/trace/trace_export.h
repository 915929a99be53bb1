/**
 * @file
 * Chrome Trace Event Format exporter for the simulation tracer.
 *
 * Renders a Tracer's ring buffer as the JSON Object Format of the
 * Chrome Trace Event specification -- directly loadable in Perfetto
 * (ui.perfetto.dev) and chrome://tracing. One simulated GPU cycle maps
 * to one microsecond of trace time (the format's native unit), so
 * Perfetto's time axis reads directly in cycles.
 *
 * All serialization goes through the shared common/json_writer.h, the
 * project's one JSON emitter.
 */

#ifndef MOSAIC_TRACE_TRACE_EXPORT_H
#define MOSAIC_TRACE_TRACE_EXPORT_H

#include <string>

#include "common/json_writer.h"
#include "trace/tracer.h"

namespace mosaic {

/**
 * Writes @p tracer's events as a complete Chrome Trace Event JSON
 * document into @p w. @p processName labels the trace's single process
 * (the configuration label is a good choice).
 */
void writeChromeTrace(const Tracer &tracer, JsonWriter &w,
                      const std::string &processName = "mosaic-sim");

/** The trace as a JSON string. */
std::string chromeTraceJson(const Tracer &tracer,
                            const std::string &processName = "mosaic-sim");

/**
 * Writes the trace to @p path.
 * @return false (with a warning) when the file cannot be opened.
 */
bool writeChromeTraceFile(const Tracer &tracer, const std::string &path,
                          const std::string &processName = "mosaic-sim");

}  // namespace mosaic

#endif  // MOSAIC_TRACE_TRACE_EXPORT_H
