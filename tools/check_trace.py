#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by the simulator.

Stdlib-only structural validator for CI: parses the file, checks the
trace-event invariants the obs layer promises (docs/observability.md),
and optionally requires specific categories to be present. A --require
token matches either a category ("noc") or an event-name prefix
("dma" for the dma.load/dma.store spans in category "mem"), so subsystem
activity can be required even when it shares a category.

Usage:
    python3 tools/check_trace.py TRACE.json [--require TOKEN ...]

Exit codes: 0 = valid, 1 = violation found, 2 = unreadable input.
"""

import argparse
import json
import sys

VALID_PHASES = {"X", "i", "C", "M"}
CHUNK_CHARS = 1 << 21


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    return 1


class NotLineDelimited(Exception):
    """The file is not laid out one event per line; read it whole."""


def parse_events(text):
    """The events of `text`, a run of the array's lines without the
    comma that follows the last of them."""
    try:
        return json.loads("[" + text + "]")
    except ValueError:
        raise NotLineDelimited from None


def stream_events(path):
    """Yield the trace's events about CHUNK_CHARS of text at a time, for
    the layout both trace writers emit: a first line ending in
    `"traceEvents":[`, one event per line, and `]}` alone on the last
    line. Raises NotLineDelimited (possibly after some chunks) for any
    other layout, or for text json.load might read differently."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            header = f.readline().rstrip()
            head = json.loads(header + "]}")
        except ValueError:
            raise NotLineDelimited from None
        if (not header.endswith("[") or not isinstance(head, dict)
                or list(head)[-1] != "traceEvents"):
            raise NotLineDelimited
        text = ""
        try:
            while block := f.read(CHUNK_CHARS):
                # Whole lines ending in a comma hold whole events.
                text += block
                lines, _, rest = text.rpartition("\n")
                lines = lines.rstrip()
                if lines.endswith(","):
                    yield parse_events(lines[:-1])
                    text = rest
                elif len(text) > 8 * CHUNK_CHARS:
                    raise NotLineDelimited  # no event boundary in sight
        except ValueError:  # undecodable bytes
            raise NotLineDelimited from None
        lines, _, last = text.rstrip().rpartition("\n")
        if last.strip() != "]}":
            raise NotLineDelimited  # no closing line, or data after it
        yield parse_events(lines)


def check_chunk(events, first, seen_cats, seen_name_prefixes, counts):
    """Check `events` (numbered from `first`); the first violation's
    message, or None."""
    for i, ev in enumerate(events, first):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            return f"{where} is not an object"
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            return f"{where} has unexpected phase {ph!r}"
        counts[ph] = counts.get(ph, 0) + 1
        if "name" not in ev or not isinstance(ev["name"], str):
            return f"{where} lacks a string 'name'"
        if ph == "M":
            continue  # metadata records carry no ts/cat
        for key in ("pid", "tid", "ts"):
            if not isinstance(ev.get(key), int):
                return f"{where} ({ev['name']}) lacks integer {key!r}"
        if ev["ts"] < 0:
            return f"{where} ({ev['name']}) has negative ts"
        cat = ev.get("cat")
        if not isinstance(cat, str) or not cat:
            return f"{where} ({ev['name']}) lacks a category"
        seen_cats.add(cat)
        seen_name_prefixes.add(ev["name"].split(".", 1)[0])
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                return f"{where} ({ev['name']}) 'X' needs non-negative dur"
        if ph == "C" and not isinstance(ev.get("args"), dict):
            return f"{where} ({ev['name']}) 'C' needs args"
    return None


def check_events(chunks, required_cats):
    """Check the event array given as consecutive `chunks`. Every chunk
    is read before anything is printed, so a file that turns out not
    to stream is reported once, by the whole-file path."""
    error = None
    n = 0
    seen_cats = set()
    seen_name_prefixes = set()
    counts = {}
    for events in chunks:
        if error is None:
            error = check_chunk(events, n, seen_cats, seen_name_prefixes,
                                counts)
        n += len(events)
    if n == 0:
        return fail("trace contains no events")
    if error is not None:
        return fail(error)

    missing = [c for c in required_cats
               if c not in seen_cats and c not in seen_name_prefixes]
    if missing:
        return fail(
            f"required categories/name-prefixes absent: {missing} "
            f"(categories: {sorted(seen_cats)}, prefixes: "
            f"{sorted(seen_name_prefixes)})")

    phases = ", ".join(f"{p}:{n}" for p, n in sorted(counts.items()))
    print(f"check_trace: OK: {n} events ({phases}), "
          f"categories {sorted(seen_cats)}")
    return 0


def check(path, required_cats):
    # A line-per-event file streams in bounded memory; anything else
    # (or anything the streaming reader doubts) is read whole.
    try:
        return check_events(stream_events(path), required_cats)
    except NotLineDelimited:
        pass
    except OSError as e:
        print(f"check_trace: cannot read {path}: {e}", file=sys.stderr)
        return 2
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace: cannot read {path}: {e}", file=sys.stderr)
        return 2

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail("top level must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return fail("'traceEvents' must be an array")
    return check_events([events], required_cats)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument("--require", nargs="*", default=[],
                    metavar="TOKEN",
                    help="categories or event-name prefixes that must "
                         "appear (e.g. sim noc hyp dma)")
    args = ap.parse_args()
    sys.exit(check(args.trace, args.require))


if __name__ == "__main__":
    main()
