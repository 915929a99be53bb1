#!/bin/sh
# Regenerates bench_output.txt (the full benchmark tables EXPERIMENTS.md
# refers to; the file is machine-specific, so it is .gitignore'd rather
# than committed).
#
# Usage: tools/regen_bench.sh [build-dir] [output-file]
#
# Runs every figure/table bench serially, then the google-benchmark
# micros with a short min-time. MOSAIC_BENCH_FULL=1 switches the figure
# benches to the full 27-application profile (slow).
set -eu

build_dir=${1:-build}
out=${2:-bench_output.txt}

if [ ! -d "$build_dir/bench" ]; then
    echo "error: $build_dir/bench not found; build first:" >&2
    echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
    exit 1
fi

: > "$out"
for b in "$build_dir"/bench/*; do
    [ -x "$b" ] || continue
    echo "== $(basename "$b") ==" | tee -a "$out"
    case "$(basename "$b")" in
    micro_*)
        "$b" --benchmark_min_time=0.05 >> "$out" 2>&1
        ;;
    *)
        "$b" >> "$out"
        ;;
    esac
done
echo "wrote $out"
