#!/usr/bin/env python3
"""Validates BENCH_*.json bench reports (DESIGN.md §10).

Usage: check_bench_json.py [--baseline BASELINE] FILE [FILE...]

Every report has one shape: bench_id, title, config {key: number |
string | bool}, points [{labels, metrics}] and gates [{name, kind,
observed, op, target, ok}]. REQUIREMENTS says, per bench_id, which
config keys, point labels, metrics and gates a report must carry and
what values they may take. Each gate's ok must agree with `observed op
target`; a failed invariant gate is an error, a failed timing gate a
warning. With --baseline, a committed file of deterministic work counts
(bench/baselines/), each report must also hold exactly the baseline's
points, with its `metrics` equal to the recorded values. Exits 0 when
every file is valid (warnings allowed), 1 otherwise. Stdlib only: this
runs inside CTest.
"""

import json
import math
import operator
import sys


def _is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


class Spec:
    """The values one config key, label or metric may take, and one
    example of them."""

    def __init__(self, text, test, example):
        self.text = text
        self.test = test
        self.example = example


def _number(text, test=lambda v: True):
    return Spec(text, lambda v: _is_number(v) and test(v), 1)


NUMBER = _number("a finite number")
NONNEG = _number(">= 0", lambda v: v >= 0)
POSITIVE = _number("> 0", lambda v: v > 0)
FRACTION = _number("in [0, 1]", lambda v: 0 <= v <= 1)
UNIT = _number("in (0, 1]", lambda v: 0 < v <= 1)
NAME = Spec("a non-empty string", lambda v: isinstance(v, str) and v != "",
            "name")


def one_of(*names):
    return Spec(f"one of {', '.join(names)}", lambda v: v in names, names[0])


class Kind:
    """One kind of point: its label keys name it, and its metrics must be
    present. A report must hold at least one point of every kind."""

    def __init__(self, labels, metrics):
        self.labels = labels
        self.metrics = metrics


class Row:
    def __init__(self, config, kinds, gates):
        self.config = config
        self.kinds = kinds
        self.gates = gates


_WORKLOAD_METRICS = [
    "avg_wall_ms", "p50_wall_ms", "p90_wall_ms", "p99_wall_ms",
    "max_wall_ms", "avg_candidates", "avg_answer_cells",
    "avg_logical_reads", "avg_physical_reads", "avg_sequential_reads",
    "avg_random_reads", "avg_index_fallbacks", "avg_read_retries",
    "avg_failed_reads", "avg_disk_model_ms",
]
_BUILD_METRICS = [
    "num_cells", "num_index_entries", "num_subfields", "tree_height",
    "tree_nodes", "store_pages", "build_seconds",
]

# The figure harness (bench/harness.cc) and `fielddb_cli bench --json`.
_FIGURE = Row(
    config={"field_cells": POSITIVE, "value_min": NUMBER,
            "value_max": NUMBER, "num_queries": POSITIVE,
            "workload_seed": NONNEG, "disk_seek_ms": NONNEG,
            "disk_transfer_ms_per_page": NONNEG},
    kinds=[Kind(labels={"method": NAME, "qinterval": NONNEG},
                metrics={"num_queries": POSITIVE,
                         **dict.fromkeys(_WORKLOAD_METRICS, NONNEG),
                         **dict.fromkeys(_BUILD_METRICS, NONNEG)})],
    gates=["value_range_width", "points", "min_point_queries",
           "min_avg_logical_reads", "wall_percentile_inversions",
           "build_cell_mismatches"])

REQUIREMENTS = {
    **dict.fromkeys(["smoke", "smoke_engine", "cli", "fig8a", "fig8b",
                     "fig11_h01", "fig11_h03", "fig11_h06", "fig11_h09",
                     "fig12"],
                    _FIGURE),
    "scaling": Row(
        config={"field_cells": POSITIVE, "num_queries": POSITIVE,
                "workload_seed": NONNEG, "qinterval": FRACTION,
                "hardware_threads": NONNEG},
        kinds=[Kind(labels={"method": NAME, "threads": POSITIVE},
                    metrics={"qps": POSITIVE, "avg_wall_ms": NONNEG,
                             "p50_wall_ms": NONNEG, "p99_wall_ms": NONNEG,
                             "speedup_vs_1": POSITIVE, "failed": NONNEG})],
        gates=["wall_percentile_inversions", "hardware_threads"]),
    "filter_kernels": Row(
        config={"field_cells": POSITIVE, "workload_seed": NONNEG,
                "simd_level": one_of("scalar", "avx2")},
        kinds=[Kind(labels={"selectivity": FRACTION},
                    metrics={"band_width": NONNEG, "num_queries": POSITIVE,
                             "matched_cells_avg": NONNEG,
                             "record_scan_ms": POSITIVE,
                             "zonemap_scalar_ms": POSITIVE,
                             "zonemap_simd_ms": POSITIVE,
                             "speedup_scalar": POSITIVE,
                             "speedup_simd": POSITIVE})],
        gates=["kernel_mismatches"]),
    "planner": Row(
        config={"method": NAME, "field_cells": POSITIVE,
                "workload_seed": NONNEG, "disk_seek_ms": NONNEG,
                "disk_transfer_ms_per_page": NONNEG},
        kinds=[Kind(labels={"width_frac": UNIT},
                    metrics={"num_queries": POSITIVE,
                             "selectivity_avg": FRACTION,
                             "auto_disk_ms": POSITIVE,
                             "scan_disk_ms": POSITIVE,
                             "index_disk_ms": POSITIVE,
                             "ratio_to_best": POSITIVE,
                             "index_plan_frac": FRACTION})],
        gates=["max_ratio_to_best", "extreme_ratio_to_worst"]),
    "recovery": Row(
        config={"method": NAME, "field_cells": POSITIVE,
                "workload_seed": NONNEG},
        kinds=[Kind(labels={"wal_mode": one_of("off", "async", "fsync")},
                    metrics={"updates": POSITIVE, "wall_ms": POSITIVE,
                             "updates_per_sec": POSITIVE,
                             "overhead_vs_off": POSITIVE}),
               Kind(labels={"wal_frames": NONNEG},
                    metrics={"frames_replayed": NONNEG, "wal_bytes": NONNEG,
                             "reopen_ms": NONNEG, "scan_ms": NONNEG,
                             "replay_ms": NONNEG, "verify_ms": NONNEG,
                             "frames_per_sec": NONNEG})],
        gates=["wal_off_baseline", "replay_frame_mismatches",
               "min_replay_frames_per_sec"]),
    "obs_overhead": Row(
        config={"method": NAME, "field_cells": POSITIVE,
                "num_queries": POSITIVE, "workload_seed": NONNEG,
                "sampler_period_ms": NONNEG,
                "slow_query_threshold_ms": NONNEG},
        kinds=[Kind(labels={},
                    metrics={"reps": POSITIVE, "off_cpu_ms": POSITIVE,
                             "on_cpu_ms": POSITIVE, "overhead_pct": NUMBER,
                             "trace_events": POSITIVE,
                             "trace_dropped": NONNEG,
                             "event_log_appended": POSITIVE})],
        gates=["overhead_pct", "trace_events.plan", "trace_events.wal",
               "trace_events.recovery", "trace_events.queue-wait"]),
    "ext_build": Row(
        config={},
        kinds=[Kind(labels={"field_type": one_of("volume", "vector",
                                                 "temporal"),
                            "budget_bytes": NONNEG},
                    metrics={"num_cells": POSITIVE, "build_ms": POSITIVE,
                             "cells_per_sec": POSITIVE,
                             "spill_runs": NONNEG,
                             "peak_buffered_bytes": POSITIVE,
                             "answer_cells": NONNEG})],
        gates=["peak_to_budget", "answer_mismatches",
               "tightest_budget_spill_runs", "unlimited_points",
               "min_budgeted_points"]),
    "shared_scan": Row(
        config={"method": NAME, "field_cells": POSITIVE,
                "num_queries": POSITIVE, "clients": POSITIVE,
                "threads": POSITIVE, "max_scan_group": POSITIVE,
                "workload_seed": NONNEG, "hardware_threads": POSITIVE,
                "qinterval": FRACTION},
        kinds=[Kind(labels={"mode": one_of("isolated", "shared")},
                    metrics={"qps": POSITIVE, "p50_wall_ms": NONNEG,
                             "p99_wall_ms": NONNEG,
                             "physical_reads": NONNEG,
                             "logical_reads": NONNEG, "failed": NONNEG,
                             "scan_groups": NONNEG})],
        gates=["failed_queries", "answer_mismatches",
               "shared_physical_reads", "shared_logical_reads",
               "shared_scan_groups", "speedup", "hardware_threads"]),
    "shard_scaling": Row(
        config={"method": NAME, "field_cells": POSITIVE,
                "num_queries": POSITIVE, "clients": POSITIVE,
                "workload_seed": NONNEG, "qinterval": FRACTION,
                "hardware_threads": POSITIVE},
        kinds=[Kind(labels={"shards": POSITIVE},
                    metrics={"qps": POSITIVE, "avg_wall_ms": NONNEG,
                             "p50_wall_ms": NONNEG, "p99_wall_ms": NONNEG,
                             "speedup_vs_1": POSITIVE,
                             "shards_skipped_frac": FRACTION,
                             "admission_waits": NONNEG, "failed": NONNEG})],
        gates=["failed_queries", "wall_percentile_inversions",
               "single_shard_baseline", "speedup", "hardware_threads"]),
}

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def _is_value(v):
    """A config value or label: a finite number, a string or a bool."""
    return isinstance(v, (str, bool)) or _is_number(v)


class Checker:
    def __init__(self):
        self.errors = []
        self.warnings = []

    def error(self, where, message):
        self.errors.append(f"{where}: {message}")

    def field(self, obj, key, kind, where):
        value = obj.get(key)
        if not isinstance(value, kind):
            self.error(where, f"'{key}' is missing or not a {kind.__name__}")
            return None
        return value

    def require(self, values, specs, noun, where):
        for key, spec in specs.items():
            if key not in values:
                self.error(where, f"missing {noun} '{key}'")
            elif not spec.test(values[key]):
                self.error(where, f"{noun} '{key}' = {values[key]!r} is not "
                           f"{spec.text}")

    def check(self, report):
        if not isinstance(report, dict):
            self.error("report", "top level is not an object")
            return
        bench_id = self.field(report, "bench_id", str, "report")
        self.field(report, "title", str, "report")
        config = self.field(report, "config", dict, "report")
        points = self.field(report, "points", list, "report")
        gates = self.field(report, "gates", list, "report")
        row = REQUIREMENTS.get(bench_id)
        if bench_id is not None and row is None:
            self.error("report", f"unknown bench_id '{bench_id}'")
        if config is not None:
            for key, value in config.items():
                if not _is_value(value):
                    self.error("config", f"'{key}' = {value!r} is not a "
                               "finite number, a string or a bool")
            if row is not None:
                self.require(config, row.config, "config key", "config")
        if points is not None:
            self.check_points(points, row)
        if gates is not None:
            self.check_gates(gates, row)

    def check_points(self, points, row):
        if not points:
            self.error("report", "'points' is empty")
        seen = {}
        kinds_seen = set()
        for j, point in enumerate(points):
            where = f"points[{j}]"
            if not isinstance(point, dict):
                self.error(where, "not an object")
                continue
            labels = self.field(point, "labels", dict, where)
            metrics = self.field(point, "metrics", dict, where)
            if labels is None or metrics is None:
                continue
            for key, value in labels.items():
                if not _is_value(value):
                    self.error(where, f"label '{key}' = {value!r} is not a "
                               "finite number, a string or a bool")
            for key, value in metrics.items():
                if not _is_number(value):
                    self.error(where, f"metric '{key}' = {value!r} is not a "
                               "finite number")
            identity = json.dumps(labels, sort_keys=True)
            if identity in seen:
                self.error(where, f"same labels as points[{seen[identity]}]: "
                           f"{identity}")
            seen.setdefault(identity, j)
            if row is None:
                continue
            match = next((i for i, kind in enumerate(row.kinds)
                          if set(kind.labels) == set(labels)), None)
            if match is None:
                self.error(where, f"labels {sorted(labels)} match no point "
                           "kind of this bench")
                continue
            kinds_seen.add(match)
            kind = row.kinds[match]
            self.require(labels, kind.labels, "label", where)
            self.require(metrics, kind.metrics, "metric", where)
        if row is not None:
            for i, kind in enumerate(row.kinds):
                if points and i not in kinds_seen:
                    self.error("points", "no point labelled "
                               f"{sorted(kind.labels)}")

    def check_gates(self, gates, row):
        names = set()
        for j, gate in enumerate(gates):
            where = f"gates[{j}]"
            if not isinstance(gate, dict):
                self.error(where, "not an object")
                continue
            name = self.field(gate, "name", str, where)
            if name in names:
                self.error(where, f"duplicate gate '{name}'")
            names.add(name)
            kind = gate.get("kind")
            if kind not in ("invariant", "timing"):
                self.error(where, f"kind {kind!r} is not invariant or timing")
            op = gate.get("op")
            if op not in _OPS:
                self.error(where, f"op {op!r} is not one of {sorted(_OPS)}")
            observed, target = gate.get("observed"), gate.get("target")
            for key, value in (("observed", observed), ("target", target)):
                if not _is_number(value):
                    self.error(where, f"'{key}' = {value!r} is not a finite "
                               "number")
            ok = gate.get("ok")
            if not isinstance(ok, bool):
                self.error(where, "'ok' is missing or not a bool")
            if (op not in _OPS or not _is_number(observed)
                    or not _is_number(target) or not isinstance(ok, bool)):
                continue
            condition = f"{observed} {op} {target}"
            if _OPS[op](observed, target) != ok:
                self.error(where, f"gate '{name}' says ok={ok} but "
                           f"{condition} is {not ok}")
            elif not ok and kind == "invariant":
                self.error(where, f"invariant gate '{name}' failed: "
                           f"{condition} does not hold")
            elif not ok:
                self.warnings.append(
                    f"{where}: warning: timing gate '{name}' failed: "
                    f"{condition} does not hold (recorded, not enforced)")
        if row is not None:
            for name in row.gates:
                if name not in names:
                    self.error("gates", f"missing gate '{name}'")


def check_baseline(report, baseline, checker):
    """Compares `report`'s work counts with `baseline` exactly: the same
    bench_id, the same point labels, and for every point the baseline's
    `metrics` at their recorded values. Counts do not depend on the
    machine, so any difference is a change in the work done."""
    if report.get("bench_id") != baseline.get("bench_id"):
        checker.error("baseline", f"bench_id {report.get('bench_id')!r} is "
                      f"not the baseline's {baseline.get('bench_id')!r}")
        return
    names = baseline.get("metrics", [])
    recorded = {json.dumps(p["labels"], sort_keys=True): p["metrics"]
                for p in baseline.get("points", [])}
    measured = {json.dumps(p.get("labels"), sort_keys=True): p.get("metrics")
                for p in report.get("points", []) if isinstance(p, dict)}
    for identity in sorted(recorded.keys() - measured.keys()):
        checker.error("baseline", f"no point labelled {identity}")
    for identity in sorted(measured.keys() - recorded.keys()):
        checker.error("baseline", f"point {identity} is not in the baseline")
    for identity in sorted(recorded.keys() & measured.keys()):
        metrics = measured[identity] or {}
        for name in names:
            want, got = recorded[identity].get(name), metrics.get(name)
            if got != want:
                checker.error("baseline", f"{identity}: '{name}' = {got!r}, "
                              f"baseline {want!r}")


def _object(pairs):
    """json object hook: a repeated key is an error, not a silent
    overwrite."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValueError(f"repeated keys {repeated}")
    return dict(pairs)


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f, object_pairs_hook=_object)


def main(argv):
    args = argv[1:]
    baseline = None
    if args[:1] == ["--baseline"] and len(args) >= 2:
        try:
            baseline = _load(args[1])
        except (OSError, ValueError) as e:
            print(f"{args[1]}: unreadable baseline: {e}", file=sys.stderr)
            return 1
        args = args[2:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in args:
        try:
            report = _load(path)
        except (OSError, ValueError) as e:
            print(f"{path}: unreadable: {e}", file=sys.stderr)
            failed = True
            continue
        checker = Checker()
        checker.check(report)
        if baseline is not None and isinstance(report, dict):
            check_baseline(report, baseline, checker)
        for warning in checker.warnings:
            print(f"{path}: {warning}", file=sys.stderr)
        for err in checker.errors:
            print(f"{path}: {err}", file=sys.stderr)
        if checker.errors:
            failed = True
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
