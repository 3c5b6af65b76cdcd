#!/usr/bin/env python3
"""Validates Chrome trace-event JSON exported by TraceBuffer (trace v2).

Usage: check_trace_json.py FILE [FILE...] [--require-families a,b,...]

Checks that each file is the JSON-object flavor of the Chrome
trace-event format (the one ui.perfetto.dev and chrome://tracing load):
a top-level object with a "traceEvents" array of "X" (complete) and "M"
(metadata) events carrying valid name/cat/ts/dur/pid/tid fields, plus
the exporter's own schema stamp in otherData. Every span name must
appear under one category only: each recording site states its span's
category, so a name under two categories is a site that drifted. By
default it also requires at least one complete event from each span
family an instrumented fielddb process must produce: plan, wal,
recovery, queue and query (matched as category prefixes).

Exits 0 when every file is valid; prints each violation and exits 1
otherwise. Stdlib only — this runs inside CTest (bench/CMakeLists.txt
and tools/CMakeLists.txt).
"""

import json
import math
import sys

DEFAULT_FAMILIES = ["plan", "wal", "recovery", "queue", "query"]


def check_file(path, families):
    errors = []

    def error(where, message):
        errors.append(f"{path}: {where}: {message}")

    try:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable: {e}"]

    if not isinstance(trace, dict):
        return [f"{path}: top level is not an object"]

    other = trace.get("otherData")
    if not isinstance(other, dict):
        error("otherData", "missing or not an object")
    else:
        if other.get("schema") != "fielddb-trace-v2":
            error("otherData", f"schema is {other.get('schema')!r}, "
                  "expected 'fielddb-trace-v2'")
        dropped = other.get("dropped_events")
        if not isinstance(dropped, int) or isinstance(dropped, bool) \
                or dropped < 0:
            error("otherData", "dropped_events is not a non-negative int")

    events = trace.get("traceEvents")
    if not isinstance(events, list):
        error("traceEvents", "missing or not an array")
        return errors
    if not events:
        error("traceEvents", "empty — nothing was recorded")
        return errors

    seen_families = set()
    categories_by_name = {}
    complete_events = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            error(where, "not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            error(where, f"ph is {ph!r}, expected 'X' or 'M'")
            continue
        name = ev.get("name")
        if not isinstance(name, str) or not name:
            error(where, "name is missing or empty")
        pid = ev.get("pid")
        if not isinstance(pid, int) or isinstance(pid, bool):
            error(where, "pid is not an int")
        tid = ev.get("tid")
        if not isinstance(tid, int) or isinstance(tid, bool):
            error(where, "tid is not an int")
        if ph == "M":
            continue

        complete_events += 1
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
                or not math.isfinite(ts) or ts < 0:
            error(where, f"ts {ts!r} is not a finite non-negative number")
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                or not math.isfinite(dur) or dur < 0:
            error(where, f"dur {dur!r} is not a finite non-negative number")
        cat = ev.get("cat")
        if not isinstance(cat, str) or not cat:
            error(where, "cat is missing or empty")
        else:
            if isinstance(name, str):
                categories_by_name.setdefault(name, set()).add(cat)
            for family in families:
                if cat.startswith(family):
                    seen_families.add(family)

    if complete_events == 0:
        error("traceEvents", "no 'X' (complete) events")
    for name, cats in sorted(categories_by_name.items()):
        if len(cats) > 1:
            error("traceEvents", f"span name {name!r} appears under "
                  f"categories {sorted(cats)}")
    for family in families:
        if family not in seen_families:
            error("traceEvents",
                  f"no event from required span family '{family}'")
    return errors


def main(argv):
    families = list(DEFAULT_FAMILIES)
    paths = []
    i = 1
    while i < len(argv):
        if argv[i] == "--require-families":
            if i + 1 >= len(argv):
                print("--require-families needs a value", file=sys.stderr)
                return 2
            families = [f for f in argv[i + 1].split(",") if f]
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    failed = False
    for path in paths:
        errors = check_file(path, families)
        if errors:
            failed = True
            for err in errors:
                print(err, file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
