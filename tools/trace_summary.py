#!/usr/bin/env python3
"""Summarize a simulator trace.

Stdlib-only. For a Chrome trace-event JSON file, prints per-category
event counts and total span time, the busiest event names, per-track
span occupancy, and a per-strategy table of the hypervisor's
`admission` spans (admitted, rejected, mean TED, mean cores).

Usage:
    python3 tools/trace_summary.py TRACE.json
"""

import argparse
import json
import sys
from collections import defaultdict


def summarize_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    # Accept both the object form ({"traceEvents": [...]}) and the
    # bare-array form of the Chrome trace-event format.
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else doc
    if not events:
        # A trace with --trace but no instrumented activity is legal
        # (e.g. a harness that never runs the simulator); say so
        # instead of printing empty tables.
        print(f"{path}: empty trace (no events recorded)")
        return

    track_names = {}
    cat_count = defaultdict(int)
    cat_dur = defaultdict(int)
    name_count = defaultdict(int)
    name_dur = defaultdict(int)
    track_dur = defaultdict(int)
    span_end = 0
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            # Metadata may lack args entirely; never KeyError on it.
            name = ev.get("args", {}).get("name")
            if ev.get("name") == "thread_name" and name is not None:
                track_names[ev.get("tid")] = name
            continue
        cat = ev.get("cat", "?")
        cat_count[cat] += 1
        name_count[ev.get("name", "?")] += 1
        end = ev.get("ts", 0)
        if ph == "X":
            dur = ev.get("dur", 0)
            cat_dur[cat] += dur
            name_dur[ev.get("name", "?")] += dur
            track_dur[ev.get("tid", 0)] += dur
            end += dur
        span_end = max(span_end, end)

    print(f"{path}: {len(events)} events, trace spans [0, {span_end}] ticks")
    print("\nper category:")
    print(f"  {'cat':<8}{'events':>10}{'span ticks':>14}")
    for cat in sorted(cat_count):
        print(f"  {cat:<8}{cat_count[cat]:>10}{cat_dur[cat]:>14}")

    print("\ntop event names:")
    top = sorted(name_count.items(), key=lambda kv: -kv[1])[:8]
    for name, n in top:
        print(f"  {name:<16}{n:>8} events{name_dur[name]:>14} ticks")

    if span_end > 0 and track_dur:
        print("\nper-track span occupancy:")
        busiest = sorted(track_dur.items(), key=lambda kv: -kv[1])[:8]
        for tid, dur in busiest:
            label = track_names.get(tid, f"core {tid}")
            util = dur / span_end
            print(f"  {label:<16}{dur:>12} ticks  {util:>6.1%}")

    summarize_admissions(
        [ev for ev in events
         if ev.get("name") == "admission" and ev.get("cat") == "hyp"])


def summarize_admissions(spans):
    """Per-strategy table of the hypervisor's admission spans."""
    if not spans:
        return
    by_strategy = defaultdict(lambda: {"admitted": 0, "rejected": 0,
                                       "ted": 0.0, "cores": 0})
    errors = []
    for ev in spans:
        a = ev.get("args", {})
        s = by_strategy[a.get("strategy", "?")]
        if a.get("ok"):
            s["admitted"] += 1
            s["ted"] += a.get("ted", 0)
        else:
            s["rejected"] += 1
            if a.get("error"):
                errors.append(a["error"])
        s["cores"] += a.get("cores", 0)

    print(f"\nadmissions ({len(spans)} admission spans):")
    print(f"  {'strategy':<18}{'admitted':>10}{'rejected':>10}"
          f"{'mean TED':>10}{'mean cores':>12}")
    for strat in sorted(by_strategy):
        s = by_strategy[strat]
        total = s["admitted"] + s["rejected"]
        mean_ted = s["ted"] / s["admitted"] if s["admitted"] else 0.0
        print(f"  {strat:<18}{s['admitted']:>10}{s['rejected']:>10}"
              f"{mean_ted:>10.1f}{s['cores'] / total:>12.1f}")
    if errors:
        print(f"  {len(errors)} rejections carry an error, e.g.: "
              f"{errors[-1]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace-event JSON")
    args = ap.parse_args()
    try:
        summarize_trace(args.trace)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_summary: {e}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
