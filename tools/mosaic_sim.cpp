/**
 * @file
 * Command-line driver for one-off simulations.
 *
 * Examples:
 *   mosaic_sim --workload hom:HISTO:2 --config mosaic
 *   mosaic_sim --workload het:4:42 --config baseline --scale 0.5
 *   mosaic_sim --workload hom:NW:1 --config mosaic --frag 0.95 \
 *              --occ 0.25 --churn --tight-memory
 *
 * Run with --help for the full flag list.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/parse_num.h"
#include "runner/json_report.h"
#include "runner/report.h"
#include "runner/simulation.h"
#include "trace/trace_export.h"
#include "workload/apps.h"
#include "workload/workload.h"

namespace {

using namespace mosaic;

void
usage()
{
    std::printf(
        "mosaic_sim -- run one simulation of the Mosaic GPU memory "
        "manager\n\n"
        "  --workload hom:<APP>:<N> | het:<N>:<SEED>   (default hom:HISTO:2)\n"
        "  --config baseline|mosaic|ideal|large        (default mosaic)\n"
        "  --scale <f>            working-set scale factor (default 0.25)\n"
        "  --instr <n>            instructions per warp (default 700)\n"
        "  --warps <n>            warps per SM (default 16)\n"
        "  --sms <n>              number of SMs (default 30)\n"
        "  --io-compression <f>   PCIe time compression (default 16)\n"
        "  --no-paging [charged]  prefetch instead of demand paging\n"
        "  --frag <f> --occ <f>   pre-fragmentation (Mosaic only)\n"
        "  --churn                enable allocation churn\n"
        "  --tight-memory         DRAM = ~8x working set\n"
        "  --no-cac | --cac-bc | --cac-ideal\n"
        "  --sizes <list>         page-size hierarchy, smallest first, as\n"
        "                         a comma list of sizes with K/M suffixes\n"
        "                         (default 4K,2M; e.g. Trident 4K,64K,2M)\n"
        "  --colt                 coalesced (CoLT) base-TLB entries\n"
        "  --rr                   round-robin warp scheduler\n"
        "  --seed <n>             simulation seed (default 1)\n"
        "  --weighted-speedup     also run per-app alone baselines\n"
        "  --json                 emit the result as JSON instead of text\n"
        "  --metrics-json <path>  write the full metrics registry snapshot\n"
        "                         (plus any interval samples) to <path>\n"
        "  --metrics-sample <n>   sample all metrics every <n> cycles\n"
        "  --trace-out <path>     record an event trace and write it to\n"
        "                         <path> as Chrome Trace Event JSON\n"
        "                         (open in https://ui.perfetto.dev)\n"
        "  --trace-categories <spec>  categories to record: 'all', a\n"
        "                         numeric mask, or a comma list of\n"
        "                         engine,vm,mm,io,dram,counter\n"
        "                         (default all; needs --trace-out)\n"
        "  --checkpoint-at <n>    save a checkpoint at the first quiesce\n"
        "                         point at-or-after cycle <n>; repeatable,\n"
        "                         pairs with the matching --checkpoint-out\n"
        "  --checkpoint-out <path> output path for the most recent\n"
        "                         --checkpoint-at (required, one each)\n"
        "  --restore <path>       resume from a checkpoint image (the\n"
        "                         config must match the one that saved it)\n"
        "  --list-apps            print the application catalog\n"
        "  --help                 print this message\n");
}

bool
match(const char *arg, const char *flag)
{
    return std::strcmp(arg, flag) == 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_spec = "hom:HISTO:2";
    std::string config_name = "mosaic";
    double scale = 0.25;
    std::uint64_t instr = 700;
    unsigned warps = 16;
    unsigned sms = 30;
    double io_comp = 16.0;
    bool no_paging = false, charged = false;
    double frag = 0.0, occ = 0.0;
    bool churn = false, tight = false;
    bool no_cac = false, cac_bc = false, cac_ideal = false, rr = false;
    std::string sizes_spec;
    bool colt = false;
    std::uint64_t seed = 1;
    bool weighted = false;
    bool json = false;
    std::string metrics_json_path;
    Cycles metrics_sample = 0;
    std::string trace_out_path;
    std::string trace_categories_spec;
    std::vector<std::pair<Cycles, std::string>> checkpoints;
    bool checkpoint_at_pending = false;
    std::string restore_path;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "flag %s requires a value\n\n", flag);
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        // Checked numeric values: the whole string must parse and land
        // inside the flag's accepted range; anything else is a usage
        // error (atoi used to turn garbage into silent zeros and
        // negatives into huge unsigned values).
        auto u64 = [&](const char *flag, std::uint64_t lo,
                       std::uint64_t hi) -> std::uint64_t {
            std::uint64_t v = 0;
            if (!parseFlagU64(flag, next(flag), lo, hi, &v)) {
                std::fprintf(stderr, "\n");
                usage();
                std::exit(1);
            }
            return v;
        };
        auto f64 = [&](const char *flag, double lo, double hi) -> double {
            double v = 0.0;
            if (!parseFlagF64(flag, next(flag), lo, hi, &v)) {
                std::fprintf(stderr, "\n");
                usage();
                std::exit(1);
            }
            return v;
        };
        if (match(a, "--help")) {
            usage();
            return 0;
        } else if (match(a, "--list-apps")) {
            for (const AppParams &app : appCatalog()) {
                std::printf("%-8s %4llu MB, %2zu buffers\n",
                            app.name.c_str(),
                            static_cast<unsigned long long>(
                                app.workingSetBytes() >> 20),
                            app.bufferSizes.size());
            }
            return 0;
        } else if (match(a, "--workload")) {
            workload_spec = next("--workload");
        } else if (match(a, "--config")) {
            config_name = next("--config");
        } else if (match(a, "--scale")) {
            scale = f64("--scale", 1e-6, 1e6);
        } else if (match(a, "--instr")) {
            instr = u64("--instr", 1, 1ull << 40);
        } else if (match(a, "--warps")) {
            warps = static_cast<unsigned>(u64("--warps", 1, 1024));
        } else if (match(a, "--sms")) {
            sms = static_cast<unsigned>(u64("--sms", 1, 4096));
        } else if (match(a, "--io-compression")) {
            io_comp = f64("--io-compression", 1e-3, 1e6);
        } else if (match(a, "--no-paging")) {
            no_paging = true;
            if (i + 1 < argc && match(argv[i + 1], "charged")) {
                charged = true;
                ++i;
            }
        } else if (match(a, "--frag")) {
            frag = f64("--frag", 0.0, 1.0);
        } else if (match(a, "--occ")) {
            occ = f64("--occ", 0.0, 1.0);
        } else if (match(a, "--churn")) {
            churn = true;
        } else if (match(a, "--tight-memory")) {
            tight = true;
        } else if (match(a, "--no-cac")) {
            no_cac = true;
        } else if (match(a, "--cac-bc")) {
            cac_bc = true;
        } else if (match(a, "--cac-ideal")) {
            cac_ideal = true;
        } else if (match(a, "--sizes")) {
            sizes_spec = next("--sizes");
        } else if (match(a, "--colt")) {
            colt = true;
        } else if (match(a, "--rr")) {
            rr = true;
        } else if (match(a, "--seed")) {
            seed = u64("--seed", 0, UINT64_MAX);
        } else if (match(a, "--weighted-speedup")) {
            weighted = true;
        } else if (match(a, "--json")) {
            json = true;
        } else if (match(a, "--metrics-json")) {
            metrics_json_path = next("--metrics-json");
        } else if (match(a, "--metrics-sample")) {
            metrics_sample =
                static_cast<Cycles>(u64("--metrics-sample", 1, 1ull << 40));
        } else if (match(a, "--trace-out")) {
            trace_out_path = next("--trace-out");
        } else if (match(a, "--trace-categories")) {
            trace_categories_spec = next("--trace-categories");
        } else if (match(a, "--checkpoint-at")) {
            if (checkpoint_at_pending) {
                std::fprintf(stderr,
                             "--checkpoint-at needs a --checkpoint-out "
                             "before the next --checkpoint-at\n");
                return 1;
            }
            checkpoints.emplace_back(
                static_cast<Cycles>(
                    u64("--checkpoint-at", 0, 1ull << 62)),
                std::string());
            checkpoint_at_pending = true;
        } else if (match(a, "--checkpoint-out")) {
            if (!checkpoint_at_pending) {
                std::fprintf(stderr,
                             "--checkpoint-out needs a preceding "
                             "--checkpoint-at <cycle>\n");
                return 1;
            }
            checkpoints.back().second = next("--checkpoint-out");
            checkpoint_at_pending = false;
        } else if (match(a, "--restore")) {
            restore_path = next("--restore");
        } else {
            std::fprintf(stderr, "unknown flag %s\n\n", a);
            usage();
            return 1;
        }
    }

    // Pre-fragmentation pins occ x 512 pages in each chosen 2MB frame;
    // pinning none would make --frag a silent no-op.
    if (frag > 0.0 && occ * kBasePagesPerLargePage < 1.0) {
        std::fprintf(stderr, "flag --frag: invalid value '%g' (needs --occ "
                             "of at least 1/512, one pinned 4K page per 2M "
                             "frame, e.g. --occ 0.25)\n", frag);
        return 1;
    }

    // Build the workload.
    Workload w;
    if (workload_spec.rfind("hom:", 0) == 0) {
        const auto rest = workload_spec.substr(4);
        const auto colon = rest.find(':');
        const std::string app = rest.substr(0, colon);
        std::uint64_t copies = 1;
        if (colon != std::string::npos &&
            !parseFlagU64("--workload hom copies", rest.c_str() + colon + 1,
                          1, 1024, &copies))
            return 1;
        w = homogeneousWorkload(app, static_cast<unsigned>(copies));
    } else if (workload_spec.rfind("het:", 0) == 0) {
        const auto rest = workload_spec.substr(4);
        const auto colon = rest.find(':');
        std::uint64_t n = 0;
        if (!parseFlagU64("--workload het count",
                          rest.substr(0, colon).c_str(), 1,
                          appCatalog().size(), &n))
            return 1;
        std::uint64_t wseed = 42;
        if (colon != std::string::npos &&
            !parseFlagU64("--workload het seed", rest.c_str() + colon + 1, 0,
                          UINT64_MAX, &wseed))
            return 1;
        w = heterogeneousWorkload(static_cast<unsigned>(n), wseed);
    } else {
        std::fprintf(stderr, "bad --workload spec '%s'\n",
                     workload_spec.c_str());
        return 1;
    }
    w = scaledWorkload(w, scale);
    for (AppParams &app : w.apps)
        app.instrPerWarp = instr;

    // Build the configuration.
    SimConfig config;
    if (config_name == "baseline") {
        config = SimConfig::baseline();
    } else if (config_name == "mosaic") {
        config = SimConfig::mosaicDefault();
    } else if (config_name == "ideal") {
        config = SimConfig::idealTlb();
    } else if (config_name == "large") {
        config = SimConfig::largeOnly();
    } else {
        std::fprintf(stderr, "unknown --config '%s'\n",
                     config_name.c_str());
        return 1;
    }
    config.gpu.numSms = sms;
    config.gpu.sm.warpsPerSm = warps;
    if (rr)
        config.gpu.sm.scheduler = WarpSchedPolicy::RoundRobin;
    if (io_comp != 1.0)
        config = config.withIoCompression(io_comp);
    if (no_paging)
        config = config.withoutPaging(charged);
    config.fragmentationIndex = frag;
    config.fragmentationOccupancy = occ;
    config.churn.enabled = churn;
    config.mosaic.cac.enabled = !no_cac;
    config.mosaic.cac.useBulkCopy = cac_bc;
    config.mosaic.cac.ideal = cac_ideal;
    if (!sizes_spec.empty() || colt) {
        PageSizeHierarchy hierarchy;
        if (!sizes_spec.empty() &&
            !PageSizeHierarchy::parse(sizes_spec, hierarchy)) {
            std::fprintf(stderr,
                         "bad --sizes spec '%s' (want up to %u "
                         "strictly-ascending sizes, smallest first, "
                         "e.g. 4K,64K,2M with a 2M top)\n",
                         sizes_spec.c_str(),
                         PageSizeHierarchy::kMaxSizeLevels);
            return 1;
        }
        if (const char *why = sizesUnsupported(config.manager, hierarchy)) {
            std::fprintf(stderr,
                         "flag --sizes: invalid value '%s' (config '%s' "
                         "%s)\n",
                         sizes_spec.c_str(), config_name.c_str(), why);
            return 1;
        }
        config = config.withSizeHierarchy(hierarchy, colt);
    }
    config.seed = seed;
    if (metrics_sample > 0)
        config = config.withMetricsSampling(metrics_sample);
    if (!trace_categories_spec.empty() && trace_out_path.empty()) {
        std::fprintf(stderr,
                     "--trace-categories needs --trace-out <path>\n");
        return 1;
    }
    if (!trace_out_path.empty()) {
        std::uint32_t categories = kTraceAll;
        if (!trace_categories_spec.empty() &&
            !parseTraceCategories(trace_categories_spec, &categories)) {
            std::fprintf(stderr,
                         "bad --trace-categories spec '%s' (want 'all', a "
                         "numeric mask, or names from "
                         "engine,vm,mm,io,dram,counter)\n",
                         trace_categories_spec.c_str());
            return 1;
        }
        config = config.withTracing(categories);
    }
    if (checkpoint_at_pending) {
        std::fprintf(stderr,
                     "--checkpoint-at %llu has no --checkpoint-out\n",
                     static_cast<unsigned long long>(
                         checkpoints.back().first));
        return 1;
    }
    for (const auto &ck : checkpoints)
        config = config.withCheckpointAt(ck.first, ck.second);
    if (!restore_path.empty())
        config = config.withRestoreFrom(restore_path);
    if (tight) {
        config.pageTablePoolBytes = 16ull << 20;
        config.dram.capacityBytes = std::max<std::uint64_t>(
            roundUp(w.workingSetBytes() * 8, kLargePageSize) +
                config.pageTablePoolBytes + (8ull << 20),
            64ull << 20);
    }

    const SimResult result = [&] {
        if (!json)
            printConfigBanner(config);
        SimResult r = runSimulation(w, config);
        if (json)
            std::printf("%s\n", toJson(r).c_str());
        else
            printSimResult(r);
        return r;
    }();

    if (!trace_out_path.empty()) {
        if (result.trace == nullptr ||
            !writeChromeTraceFile(*result.trace, trace_out_path,
                                  config.label)) {
            std::fprintf(stderr, "failed to write trace to %s\n",
                         trace_out_path.c_str());
            return 1;
        }
        if (!json)
            std::printf("trace written to %s (%llu events, %llu dropped)\n",
                        trace_out_path.c_str(),
                        static_cast<unsigned long long>(
                            result.trace->size()),
                        static_cast<unsigned long long>(
                            result.trace->dropped()));
    }

    if (!metrics_json_path.empty()) {
        if (!writeMetricsJson(result, metrics_json_path,
                              managerKindName(config.manager)))
            return 1;
        if (!json)
            std::printf("metrics written to %s\n",
                        metrics_json_path.c_str());
    }

    if (weighted) {
        const auto alone = aloneIpcs(w, config);
        std::printf("weighted speedup: %.3f\n",
                    weightedSpeedupOf(result, alone));
    }
    return 0;
}
