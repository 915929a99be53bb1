/**
 * @file
 * Trace replay validator: re-verifies simulator invariants from an
 * exported Chrome Trace Event document alone.
 *
 * Usage:  trace_check <trace.json> [--quiet] [--stats]
 *
 * Exits 0 when every invariant holds (see trace/trace_validate.h for
 * the list: document shape, frame-lifecycle state machine, async span
 * integrity, track metadata, per-category drop accounting,
 * counter-vs-event cross-checks), non-zero otherwise. With --stats,
 * also prints per-span-name duration statistics (count, mean,
 * p50/p95/p99, max in simulated cycles).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/trace_validate.h"

int
main(int argc, char **argv)
{
    const char *path = nullptr;
    bool quiet = false;
    bool stats = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--stats") == 0) {
            stats = true;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("trace_check -- replay a mosaic_sim trace and "
                        "re-verify its invariants\n\n"
                        "  trace_check <trace.json> [--quiet] [--stats]\n\n"
                        "  --quiet  suppress the summary line\n"
                        "  --stats  print per-span duration statistics "
                        "(count, mean, p50/p95/p99, max)\n");
            return 0;
        } else if (path == nullptr) {
            path = argv[i];
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    if (path == nullptr) {
        std::fprintf(stderr,
                     "usage: trace_check <trace.json> [--quiet] [--stats]\n");
        return 2;
    }

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "trace_check: cannot open %s\n", path);
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    const mosaic::TraceCheckResult r =
        mosaic::validateChromeTraceText(buf.str(), stats);

    for (const std::string &e : r.errors)
        std::fprintf(stderr, "error: %s\n", e.c_str());
    if (!quiet) {
        for (const std::string &n : r.notes)
            std::printf("note: %s\n", n.c_str());
        std::printf(
            "%s: %llu events (%llu dropped), %llu walk spans, "
            "%llu frame lifecycles (%llu complete), "
            "%llu coalesces / %llu splinters / %llu compactions, "
            "%llu violations, %llu counter samples, %llu open spans\n",
            path, static_cast<unsigned long long>(r.events),
            static_cast<unsigned long long>(r.dropped),
            static_cast<unsigned long long>(r.walkSpans),
            static_cast<unsigned long long>(r.frameLifecycles),
            static_cast<unsigned long long>(r.completeLifecycles),
            static_cast<unsigned long long>(r.coalesces),
            static_cast<unsigned long long>(r.splinters),
            static_cast<unsigned long long>(r.compactions),
            static_cast<unsigned long long>(r.violations),
            static_cast<unsigned long long>(r.counterSamples),
            static_cast<unsigned long long>(r.openSpans));
        for (const auto &[cat, n] : r.droppedByCategory)
            std::printf("dropped[%s]: %llu\n", cat.c_str(),
                        static_cast<unsigned long long>(n));
        if (stats) {
            std::printf("%-24s %10s %10s %10s %10s %10s %10s\n", "span",
                        "count", "mean", "p50", "p95", "p99", "max");
            for (const mosaic::SpanStats &s : r.spanStats)
                std::printf("%-24s %10llu %10.1f %10.1f %10.1f %10.1f "
                            "%10.1f\n",
                            s.name.c_str(),
                            static_cast<unsigned long long>(s.count), s.mean,
                            s.p50, s.p95, s.p99, s.max);
        }
        if (r.ok)
            std::printf("OK\n");
        else
            std::printf("FAILED (%zu errors)\n", r.errors.size());
    }
    return r.ok ? 0 : 1;
}
