#!/usr/bin/env python3
"""End-to-end simulation ledger.

Builds the simulator from ../src (see CMakeLists.txt next to this file),
runs one pinned cell, checks its outputs and prints every metric by name
and unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 ledger/run.py --workload het4_mosaic_paging --seed 1 \\
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, measured on the plain build.
--trace 1 reports the per-layer metrics: the deterministic counters of
the run plus host time per layer from one run of the instrumented build.
Exits non-zero if a correctness check fails (after printing the result)
or if the benchmark cannot run at all (without printing one).
"""

import argparse
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ["engine", "gpu", "cache", "dram", "vm", "mm", "iobus",
          "workload", "runner"]
# Workload -> seeds simulated per run (--seed, --seed + 1, ...). The
# het4 cells barely depend on the seed (sim_cycles moves < 1%), so a run
# repeats one seed. cons2_cac_churn is chaotic in it (sim_cycles spans
# 2.4M-3.5M over seeds 1-11), so a run averages six seeds.
WORKLOADS = {"het4_mosaic_paging": 1, "het4_gpummu_prefetch": 1,
             "cons2_cac_churn": 6}
# Variables that change what or how the simulator runs behind the
# benchmark's back: the first swaps in the sharded engine, the other two
# steer the repo's own fig benches.
FORBIDDEN_ENV = ["MOSAIC_SIM_SHARDS", "MOSAIC_BENCH_JOBS", "MOSAIC_BENCH_FULL"]
# The whole run, build excluded, must end well inside three minutes.
RUN_BUDGET_S = 170.0

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "warp_instr_per_s": "1/s",
    "sim_cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "ipc_sum": "instr/cycle",
}


def per_layer_units():
    units = {
        "engine.events": "count",
        "engine.events_per_instr": "events/instr",
        "engine.ns_per_event": "ns",
        "gpu.mem_instr_share": "share",
        "gpu.far_fault_stalls": "count",
        "gpu.cac_stall_cycles": "cycles",
        "cache.l1.accesses": "count",
        "cache.l1.hit_rate": "share",
        "cache.l2.accesses": "count",
        "cache.l2.hit_rate": "share",
        "cache.writebacks": "count",
        "dram.requests": "count",
        "dram.row_hit_rate": "share",
        "dram.latency_mean_cy": "cycles",
        "dram.latency_p95_cy": "cycles",
        "dram.bulk_copies": "count",
        "vm.requests": "count",
        "vm.l1_tlb_hit_rate": "share",
        "vm.l2_tlb_hit_rate": "share",
        "vm.walks": "count",
        "vm.walks_per_kinstr": "walks/kinstr",
        "vm.walk_latency_mean_cy": "cycles",
        "vm.walk_latency_p95_cy": "cycles",
        "vm.walker_queued": "count",
        "vm.mshr_merges": "count",
        "mm.pages_backed": "count",
        "mm.pages_released": "count",
        "mm.coalesce_ops": "count",
        "mm.splinter_ops": "count",
        "mm.compactions": "count",
        "mm.migrations": "count",
        "mm.out_of_frames": "count",
        "mm.peak_allocated_mb": "MB",
        "mm.soft_guarantee_violations": "count",
        "iobus.far_faults": "count",
        "iobus.merged_faults": "count",
        "iobus.pcie_mb": "MB",
        "iobus.pcie_busy_share": "share",
        "iobus.pcie_latency_mean_cy": "cycles",
        "iobus.oom_retries": "count",
        "runner.setup_s": "s",
        "runner.failed_runs_share": "share",
        "trace.overhead_share": "share",
        "trace.unattributed_s": "s",
    }
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.calls"] = "count"
    return units


PER_LAYER_UNITS = per_layer_units()


class Failure(Exception):
    """The benchmark cannot run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- build


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "ledger"


def build(out):
    """Configures and builds both programs (a no-op when up to date) and
    writes the layer table the traced build needs."""
    if not (ROOT / "src" / "runner" / "simulation.cc").is_file():
        raise Failure(f"simulator sources not found under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise Failure(f"build step failed: {' '.join(cmd)}")
    traced = out / "ledger_traced"
    table = out / "layers.txt"
    if (not table.is_file() or
            table.stat().st_mtime < traced.stat().st_mtime):
        write_layer_table(traced, table)


def write_layer_table(binary, table):
    """Maps every function defined under src/<layer>/ to its layer, by the
    source file the debug info gives for its address."""
    nm = subprocess.run(["nm", "-C", "-l", "--defined-only", str(binary)],
                        capture_output=True, text=True)
    if nm.returncode != 0:
        raise Failure(f"nm failed on {binary}: {nm.stderr.strip()}")
    in_layer = re.compile(r"/src/(%s)/" % "|".join(LAYERS))
    rows, events = [], 0
    for line in nm.stdout.splitlines():
        sym, _, where = line.partition("\t")
        parts = sym.split(" ", 2)
        if len(parts) < 3 or parts[1] not in "tTwW":
            continue
        m = in_layer.search(where)
        if not m:
            continue
        role = "-"
        if parts[2] == "mosaic::EventQueue::dispatchTop()":
            role, events = "event", events + 1
        rows.append(f"{parts[0]} {m.group(1)} {role}")
    if events != 1:
        raise Failure("expected one EventQueue::dispatchTop in "
                      f"{binary}, found {events}")
    tmp = table.with_suffix(".tmp")
    tmp.write_text("\n".join(rows) + "\n")
    tmp.replace(table)


# ---------------------------------------------------------------- host


def host_facts(out):
    facts = {"nproc": os.cpu_count(), "cpu": "unknown",
             "compiler": "unknown", "build_type": "unknown",
             "commit": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for f in glob.glob(str(out / "CMakeFiles" / "*" /
                           "CMakeCXXCompiler.cmake")):
        text = Path(f).read_text()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            facts["compiler"] = f"{cid.group(1)} {ver.group(1)}"
    cache = out / "CMakeCache.txt"
    if cache.is_file():
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(),
                      re.M)
        if m:
            facts["build_type"] = m.group(1)
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            facts["commit"] = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # A checkout without git history is still identified by its sources.
    h = hashlib.sha256()
    for d in (ROOT / "src", HERE):
        for f in sorted(p for p in d.rglob("*") if p.is_file()):
            if "__pycache__" in f.parts:
                continue
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    facts["source_sha256"] = h.hexdigest()[:16]
    return facts


# ---------------------------------------------------------------- runs


def run_json(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Failure("time budget exhausted before " + cmd[0])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise Failure(f"{' '.join(cmd)} did not finish in time")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise Failure(f"{' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise Failure(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])


def end_to_end(plain):
    """Per simulation, averaged over the run's seeds: each seed's median
    wall time, its simulated cycles and its IPC sum."""
    setup = statistics.median(plain["setup_s"])
    if plain["peak_rss_kb"] <= 0:
        raise Failure("peak RSS unreadable (/proc/self/status VmHWM)")
    members = plain["members"]
    n = len(members)
    wall = [statistics.median(m["wall_s"]) for m in members]
    simulate = sum(max(w - setup, 1e-9) for w in wall)
    return {
        "wall_s": sum(wall) / n,
        "setup_s": setup,
        "warp_instr_per_s": sum(m["instructions"] for m in members) /
        simulate,
        "sim_cycles_per_s": sum(m["sim_cycles"] for m in members) /
        simulate,
        "peak_rss_mb": plain["peak_rss_kb"] / 1024.0,
        "sim_cycles": sum(m["sim_cycles"] for m in members) / n,
        "ipc_sum": sum(m["ipc_sum"] for m in members) / n,
    }


def deterministic_layers(m):
    mib = float(1 << 20)
    instr = m["gpu.sm.instructions"]
    requests = m["vm.translation.requests"]
    l2_access = m["vm.tlb.l2.base.accesses"] + m["vm.tlb.l2.large.accesses"]
    l2_hits = m["vm.tlb.l2.base.hits"] + m["vm.tlb.l2.large.hits"]
    return {
        "gpu.mem_instr_share": ratio(m["gpu.sm.memInstructions"], instr),
        "gpu.far_fault_stalls": m["gpu.sm.farFaultStalls"],
        "gpu.cac_stall_cycles": m["gpu.stallCycles"],
        "cache.l1.accesses": m["cache.l1.accesses"],
        "cache.l1.hit_rate": ratio(m["cache.l1.hits"],
                                   m["cache.l1.accesses"]),
        "cache.l2.accesses": m["cache.l2.accesses"],
        "cache.l2.hit_rate": ratio(m["cache.l2.hits"],
                                   m["cache.l2.accesses"]),
        "cache.writebacks": m["cache.writebacks"],
        "dram.requests": m["dram.reads"] + m["dram.writes"],
        "dram.row_hit_rate": ratio(m["dram.rowHits"],
                                   m["dram.rowHits"] + m["dram.rowMisses"]),
        "dram.latency_mean_cy": m["dram.latency.mean"],
        "dram.latency_p95_cy": m["dram.latency.p95"],
        "dram.bulk_copies": m["dram.bulkCopies"],
        "vm.requests": requests,
        "vm.l1_tlb_hit_rate": ratio(m["vm.translation.l1Hits"], requests),
        "vm.l2_tlb_hit_rate": ratio(l2_hits, l2_access),
        "vm.walks": m["vm.walker.walks"],
        "vm.walks_per_kinstr": ratio(m["vm.walker.walks"] * 1000.0, instr),
        "vm.walk_latency_mean_cy": m["vm.walker.latency.mean"],
        "vm.walk_latency_p95_cy": m["vm.walker.latency.p95"],
        "vm.walker_queued": m["vm.walker.queued"],
        "vm.mshr_merges": m["vm.translation.mshrMerges"],
        "mm.pages_backed": m["mm.pagesBacked"],
        "mm.pages_released": m["mm.pagesReleased"],
        "mm.coalesce_ops": m["mm.coalesceOps"],
        "mm.splinter_ops": m["mm.splinterOps"],
        "mm.compactions": m["mm.compactions"],
        "mm.migrations": m["mm.migrations"],
        "mm.out_of_frames": m["mm.outOfFrames"],
        "mm.peak_allocated_mb": m["mm.peakAllocatedBytes"] / mib,
        "mm.soft_guarantee_violations": m["mm.softGuaranteeViolations"],
        "iobus.far_faults": m["iobus.paging.farFaults"],
        "iobus.merged_faults": m["iobus.paging.mergedFaults"],
        "iobus.pcie_mb": m["iobus.pcie.bytes"] / mib,
        "iobus.pcie_busy_share": ratio(m["iobus.pcie.busBusyCycles"],
                                       m["sim.cycles"]),
        "iobus.pcie_latency_mean_cy": m["iobus.pcie.latency.mean"],
        "iobus.oom_retries": m["iobus.paging.oomRetries"],
    }


def traced_layers(plain, traced, failures):
    """Per-layer host time from the instrumented run, plus the checks
    that the instrumentation only observed."""
    m = plain["metrics"]
    out = deterministic_layers(m)
    untraced_wall = statistics.median(plain["members"][0]["wall_s"])
    simulate = max(untraced_wall - statistics.median(plain["setup_s"]),
                   1e-9)
    events = traced["events"]
    wall = traced["wall_s"]
    self_sum = 0.0
    for layer in LAYERS:
        rec = traced["layers"][layer]
        out[f"{layer}.self_s"] = rec["self_s"]
        out[f"{layer}.self_share"] = ratio(rec["self_s"], wall)
        out[f"{layer}.calls"] = rec["calls"]
        self_sum += rec["self_s"]
    out["engine.events"] = events
    out["engine.events_per_instr"] = ratio(events,
                                           m["gpu.sm.instructions"])
    out["engine.ns_per_event"] = ratio(simulate * 1e9, events)
    out["runner.setup_s"] = traced["layers"]["runner"]["setup_self_s"]
    out["trace.overhead_share"] = ratio(wall - untraced_wall, untraced_wall)
    out["trace.unattributed_s"] = wall - self_sum

    if traced["digest"] != plain["digest"]:
        failures.append(("trace_observation_only",
                         f"traced snapshot {traced['digest']} != "
                         f"untraced {plain['digest']}"))
    if plain.get("tracer_digest") != plain["digest"]:
        failures.append(("trace_observation_only",
                         f"event-counting run snapshot "
                         f"{plain.get('tracer_digest')} != "
                         f"untraced {plain['digest']}"))
    if plain.get("events_by_tracer") != events:
        failures.append(("engine_events_agree",
                         f"span recorder counted {events} events, "
                         f"simulator tracer {plain.get('events_by_tracer')}"))
    if self_sum > wall:
        failures.append(("trace_self_within_wall",
                         f"layer self times sum to {self_sum:.6f} s, "
                         f"more than the traced wall {wall:.6f} s"))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    set_env = [v for v in FORBIDDEN_ENV if v in os.environ]
    if set_env:
        raise Failure("refusing to run with " + ", ".join(set_env) +
                      " set: unset it for ledger runs")

    out = build_dir()
    build(out)
    deadline = time.monotonic() + RUN_BUDGET_S
    host = host_facts(out)

    common = ["--cell", args.workload, "--seed", str(args.seed)]
    # With --trace 1 the untimed event count and the traced run take
    # most of the budget; two plain simulations of --seed give the
    # untraced base.
    if args.trace:
        timing = ["--seconds", "0", "--ensemble", "1"]
    else:
        timing = ["--seconds", str(args.seconds),
                  "--ensemble", str(WORKLOADS[args.workload])]
    plain = run_json([str(out / "ledger"), *common, *timing,
                      "--count-events", str(args.trace)], deadline)
    failures = []
    attempted, failed = plain["attempted"], plain["failed"]
    if args.trace:
        # One span file per workload, overwritten by its latest traced run.
        spans = out / f"spans-{args.workload}.csv"
        traced = run_json([str(out / "ledger_traced"), *common,
                           "--layers", str(out / "layers.txt"),
                           "--spans-out", str(spans)], deadline)
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = traced_layers(plain, traced, failures)
        if failures:
            failed += 1
        values["runner.failed_runs_share"] = ratio(failed, attempted)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(plain)
        units = E2E_UNITS
    for name, what in failures:
        log(f"check failed [{name}]: {what}")

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(f"host: {json.dumps(host)}")
    print(f"ledger: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} runs={attempted} failed={failed} "
          f"failed_runs_share={ratio(failed, attempted):.4f}")
    if args.trace:
        print(f"  trace: {traced['spans']} spans, first "
              f"{traced['spans_kept']} in {spans.name}; "
              f"{traced['unmapped_entries']} function entries outside "
              "the layer table")
    for k, u in units.items():
        print(f"  {k:32s} {values[k]:>16.6g} {u}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "metrics": values,
              "attempted": attempted, "failed": failed}
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        log(f"ledger: {e}")
        sys.exit(2)
