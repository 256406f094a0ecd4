#!/usr/bin/env python3
"""Paired benchmark runs: a base ref against the working tree.

    python3 tools/bench_pair.py --workload admit_similar --seed 42 \\
        --seconds 5 --pairs 10 [--base HEAD]

Run from inside the repository. The base ref is checked out with
`git worktree` into a temporary directory (no network), removed again
at the end. Each side builds its own perfbench binary through
perfbench/run.py, which also checks the side's pins; then N untraced
pairs run alternately (the base first in even pairs, the working tree
first in odd ones), so a drift in host load falls on both sides alike.

For every end-to-end metric of BENCHMARK.json this prints the median
and the interquartile range of each side, the change of the medians,
and in how many pairs the working tree was better (in the metric's
`better` direction; a tie counts for neither side). The host
fingerprint is the runner's own report line. Exits 1 when any run
fails or reports `"correct": false`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, cwd=REPO):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def end_to_end_metrics():
    """(name, "lower" or "higher") of BENCHMARK.json's end-to-end
    metrics, the ones the pairs judge."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_side(tree, args):
    """One perfbench/run.py run in `tree`: (result line, host line)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), proc.returncode))
    host = next((l for l in lines if l.startswith("host:")), "host: ?")
    return json.loads(lines[-1]), host


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def report(runs, metrics):
    print("%-34s %14s %12s %14s %12s %9s %6s" % (
        "metric", "base median", "base IQR", "tree median", "tree IQR",
        "change", "wins"))
    for name, better in metrics:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        tree = [r["metrics"][name]["value"] for r in runs["tree"]]
        mb, mt = statistics.median(base), statistics.median(tree)
        qb, qt = quartiles(base), quartiles(tree)
        sign = -1 if better == "lower" else 1
        wins = sum(1 for b, t in zip(base, tree) if sign * (t - b) > 0)
        change = "%+.1f%%" % (100 * (mt - mb) / mb) if mb else "-"
        print("%-34s %14.6g %12.4g %14.6g %12.4g %9s %3d/%d" % (
            name, mb, qb[1] - qb[0], mt, qt[1] - qt[0], change, wins,
            len(base)))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["fleet_frag", "admit_similar", "tenant_traffic"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", default="HEAD",
                    help="git ref to compare against (default HEAD)")
    args = ap.parse_args()

    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    worktree = tempfile.mkdtemp(prefix="bench_pair_")
    git("worktree", "add", "--detach", worktree, base_sha)
    trees = {"base": worktree, "tree": REPO}
    runs = {"base": [], "tree": []}
    hosts = set()
    try:
        for side in ("base", "tree"):  # build, check pins, warm up
            print("building %s (%s)" % (side, trees[side]), file=sys.stderr)
            run_side(trees[side], argparse.Namespace(
                **dict(vars(args), seconds=0.1)))
        for i in range(args.pairs):
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            for side in order:
                result, host = run_side(trees[side], args)
                if not result["correct"]:
                    raise RuntimeError("%s run %d is not correct" % (side, i))
                runs[side].append(result)
                hosts.add(host)
            print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        print("bench_pair: %s" % e, file=sys.stderr)
        return 1
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree],
                       cwd=REPO, check=False)
        shutil.rmtree(worktree, ignore_errors=True)

    print("bench_pair %s seed=%d seconds=%g pairs=%d" % (
        args.workload, args.seed, args.seconds, args.pairs))
    print("base: %s %s; tree: working tree at %s" % (
        args.base, base_sha[:12], git("rev-parse", "--short=12", "HEAD")))
    for h in sorted(hosts):
        print(h)
    report(runs, end_to_end_metrics())
    return 0


if __name__ == "__main__":
    sys.exit(main())
