#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload fleet_frag --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 42     # every workload, one table
    python3 perfbench/run.py --pin 1 2 42                 # rewrite pins for seeds

Run from the repository root. On first use this configures and builds
perfbench/ (which compiles the simulator from src/) with CMake into
.bench_build/perfbench. Each workload runs in its own process. The
script checks the workload's modelled outputs against perfbench/pins.json
and, for a traced run, validates the Chrome trace with
tools/check_trace.py. It prints a readable report, then the result JSON
as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1
the per-layer metrics (perfbench/README.md explains every name).
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "vnpu_perfbench")
PINS = os.path.join(BENCH_DIR, "pins.json")

WORKLOADS = ["fleet_frag", "admit_similar", "tenant_traffic"]

# Host metrics, reported on every workload (the benchmark's contract).
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Modelled end-to-end results: exact per seed, so they are pinned in
# pins.json rather than bounded. Each is defined on the workloads listed.
MODELLED = {
    "wait_p50_ticks": ("ticks", ["fleet_frag"]),
    "wait_p99_ticks": ("ticks", ["fleet_frag"]),
    "blocked_pct": ("%", ["fleet_frag"]),
    "util_mean": ("ratio", ["fleet_frag"]),
    "admit_fail_pct": ("%", ["admit_similar"]),
    "mean_ted": ("edits", ["fleet_frag", "admit_similar"]),
    "makespan_ticks": ("ticks", ["fleet_frag", "tenant_traffic"]),
    "msg_p99_ticks": ("ticks", ["tenant_traffic"]),
}

ROUTE_BUCKETS = ["le16", "le64", "le256"]
PER_LAYER = dict(
    [(k, u) for k, (u, _) in MODELLED.items()]
    + [
        ("fleet.step_us.p50", "us"),
        ("fleet.step_us.p99", "us"),
        ("fleet.steps", "count"),
        ("fleet.defrag.attempts", "count"),
        ("fleet.defrag.success", "count"),
        ("fleet.migrations", "count"),
        ("fleet.preemptions", "count"),
        ("fleet.queue.depth_mean", "requests"),
        ("hyp.create_us.p50", "us"),
        ("hyp.create_us.p99", "us"),
        ("hyp.destroy_us.p50", "us"),
        ("hyp.route_builds", "count"),
        ("hyp.route_cache.lookups", "count"),
        ("hyp.route_cache.hit_ratio", "ratio"),
        ("hyp.mapper.search_steps", "count"),
        ("hyp.setup_cycles", "cycles"),
        ("hyp.funnel.candidates", "count"),
        ("hyp.funnel.lb_pruned", "count"),
        ("hyp.funnel.memo_hits", "count"),
        ("hyp.funnel.memo_lookups", "count"),
        ("hyp.funnel.ted0_hits", "count"),
        ("hyp.funnel.full_ged", "count"),
        ("hyp.funnel.memo_hit_ratio", "ratio"),
        ("hyp.funnel.lb_prune_ratio", "ratio"),
    ]
    + [("noc.route_build_us.%s.%s" % (q, b), "us")
       for q in ("p50", "p99") for b in ROUTE_BUCKETS]
    + [("noc.route_build.%s.%s" % (k, b), "count")
       for k in ("regions", "admits") for b in ROUTE_BUCKETS]
    + [
        ("noc.route_build_us.mix_p50", "us"),
        ("noc.route_build_share", "ratio"),
        ("sim.events_executed", "count"),
        ("sim.ns_per_event", "ns"),
        ("noc.messages", "count"),
        ("noc.confined_messages", "count"),
        ("noc.packets", "count"),
        ("noc.interference_links", "count"),
        ("mem.dma.transfers", "count"),
        ("mem.dma.translation_stall", "cycles"),
        ("core.wait_recv", "cycles"),
        ("core.vrouter_cycles", "cycles"),
        ("runtime.machine_ctor_ms", "ms"),
        ("runtime.load_ms", "ms"),
        ("host.user_s", "s"),
        ("host.sys_s", "s"),
        ("host.minor_faults", "count"),
        ("obs.run_s.untraced", "s"),
        ("obs.run_s.traced", "s"),
        ("obs.trace_overhead_pct", "%"),
    ]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; a no-op when current."""
    if not os.path.isfile(os.path.join(REPO, "src", "runtime", "machine.h")):
        raise RuntimeError("simulator sources (src/) not found beside "
                           "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=850)


def run_binary(workload, seed, seconds, trace, trace_out=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          timeout=170)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def load_pins():
    if not os.path.isfile(PINS):
        return {}
    with open(PINS, encoding="utf-8") as f:
        return json.load(f)


def check_trace(path):
    """Validate the Chrome trace with the repository's checker."""
    checker = os.path.join(REPO, "tools", "check_trace.py")
    if not os.path.isfile(checker):
        return ["tools/check_trace.py not found"]
    proc = subprocess.run([sys.executable, checker, path, "--require",
                           "bench"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=120)
    out = proc.stdout.decode().strip()
    log(out)
    return [] if proc.returncode == 0 else ["trace check failed: " + out]


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (result line dict, report dict)."""
    trace_out = None
    if trace:
        trace_out = os.path.join(BUILD_DIR,
                                 "trace_%s_%s.json" % (workload, seed))
    out = run_binary(workload, seed, seconds, trace, trace_out)
    errors = list(out["errors"])
    failed = out["failed"]

    expected = load_pins().get(workload, {}).get(str(seed))
    if expected is not None and expected != out["pins"]:
        diff = sorted(k for k in set(expected) | set(out["pins"])
                      if expected.get(k) != out["pins"].get(k))
        errors.append("modelled outputs differ from pins.json: " +
                      ", ".join(diff))
        failed = out["attempted"]
    if trace:
        errors += check_trace(trace_out)

    source = out["layers"] if trace else out["e2e"]
    names = PER_LAYER if trace else END_TO_END
    missing = [k for k in names if k not in source]
    if missing:
        errors.append("runner did not report: " + ", ".join(missing))
    metrics = {k: {"value": source.get(k, 0.0), "unit": u}
               for k, u in names.items()}
    result = {"correct": not errors, "attempted": out["attempted"],
              "failed": failed, "metrics": metrics}
    out["pinned"] = expected is not None
    out["all_errors"] = errors
    return result, out


def print_report(out):
    h = out["host"]
    print("perfbench %s seed=%s passes=%s pinned=%s" % (
        out["workload"], out["seed"], out["passes"],
        "yes" if out["pinned"] else "no (seed not in pins.json)"))
    print("host: nproc=%s cpu=%r compiler=%s build=%s task_pool_workers=%s"
          % (h["nproc"], h["cpu"], h["compiler"], h["build_type"],
             h["task_pool_workers"]))
    print("run_s per pass: " +
          " ".join("%.4f" % v for v in out["run_s_passes"]))
    how = {"setup_s": "host, median of %d set-ups" % len(out["setup_s_passes"]),
           "run_s": "host, sum of each segment's fastest pass",
           "peak_rss_mb": "host, whole process"}
    rows = [(k, out["e2e"][k], u, how[k]) for k, u in END_TO_END.items()]
    for k, (u, where) in MODELLED.items():
        if out["workload"] in where:
            rows.append((k, out["pins"][k], u, "modelled, exact per seed"))
    for k, v, u, note in rows:
        print("  %-16s %18.6f %-6s %s" % (k, v, u, note))
    if "layers" in out:
        print("per-layer (traced run):")
        for k, u in PER_LAYER.items():
            print("  %-34s %18.6f %s" % (k, out["layers"][k], u))
        print("self time by span (traced passes):")
        print("  %-22s %-8s %8s %12s %12s" % ("span", "layer", "count",
                                               "total ms", "self ms"))
        for r in out["self_time"]:
            print("  %-22s %-8s %8d %12.3f %12.3f" % (
                r["span"], r["layer"], r["count"], r["total_ms"],
                r["self_ms"]))
    for e in out["all_errors"]:
        print("ERROR: " + e)


def run_all(seed, seconds):
    """Every workload in its own process; one table of all metrics."""
    ok = True
    outs = {}
    for w in WORKLOADS:
        result, out = run_workload(w, seed, seconds, False)
        ok = ok and result["correct"] and result["failed"] == 0
        outs[w] = out
        for e in out["all_errors"]:
            print("ERROR %s: %s" % (w, e))
    print("%-16s %-6s" % ("metric", "unit") +
          "".join("%18s" % w for w in WORKLOADS))
    units = dict(END_TO_END)
    units.update({k: u for k, (u, _) in MODELLED.items()})
    for k, u in units.items():
        cells = []
        for w in WORKLOADS:
            src = outs[w]["e2e"] if k in END_TO_END else outs[w]["pins"]
            cells.append("%18.6f" % src[k] if k in src else "%18s" % "-")
        print("%-16s %-6s" % (k, u) + "".join(cells))
    print("correct" if ok else "INCORRECT")
    return 0 if ok else 1


def write_pins(seeds):
    """Record every workload's modelled outputs for `seeds`."""
    pins = load_pins()
    for w in WORKLOADS:
        for s in seeds:
            out = run_binary(w, s, 0, False)
            if out["errors"]:
                raise RuntimeError("%s seed %s: %s" % (w, s, out["errors"]))
            pins.setdefault(w, {})[str(s)] = out["pins"]
            log("pinned %s seed %s" % (w, s))
    for w in pins:
        pins[w] = dict(sorted(pins[w].items(), key=lambda kv: int(kv[0])))
    with open(PINS, "w", encoding="utf-8") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", type=int, nargs="+", metavar="SEED",
                    help="rewrite pins.json entries for these seeds")
    args = ap.parse_args()
    if not args.workload and not args.pin:
        ap.error("--workload or --pin is required")

    t0 = time.monotonic()
    try:
        build()
        log("build ready in %.1f s" % (time.monotonic() - t0))
        if args.pin:
            write_pins(args.pin)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result, out = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print_report(out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
