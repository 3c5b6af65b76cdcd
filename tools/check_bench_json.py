#!/usr/bin/env python3
"""Validates BENCH_*.json bench telemetry against the schema in DESIGN.md.

Usage: check_bench_json.py FILE [FILE...]
Exits 0 when every file is valid; prints each violation and exits 1
otherwise. Stdlib only — this runs inside CTest (see bench/CMakeLists.txt)
and in CI pipelines that plot the figures from the telemetry.
"""

import json
import math
import sys

_POINT_FIELDS = [
    "avg_wall_ms",
    "p50_wall_ms",
    "p90_wall_ms",
    "p99_wall_ms",
    "max_wall_ms",
    "avg_candidates",
    "avg_answer_cells",
    "avg_logical_reads",
    "avg_physical_reads",
    "avg_sequential_reads",
    "avg_random_reads",
    "avg_index_fallbacks",
    "avg_read_retries",
    "avg_failed_reads",
    "avg_disk_model_ms",
]

_BUILD_FIELDS = [
    "num_cells",
    "num_index_entries",
    "num_subfields",
    "tree_height",
    "tree_nodes",
    "store_pages",
    "build_seconds",
]


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []
        self.warnings = []

    def error(self, where, message):
        self.errors.append(f"{self.path}: {where}: {message}")

    def warn(self, where, message):
        self.warnings.append(f"{self.path}: {where}: warning: {message}")

    def timing_flag(self, report, key, message):
        """A timing ratio's pass flag (wall-clock speedup, CPU-time
        overhead): it must be a bool, and a false one is a warning —
        whether it holds depends on host load, not on the code."""
        if key not in report:
            self.error("report", f"missing key '{key}'")
        elif not isinstance(report[key], bool):
            self.error("report", f"'{key}' is not a bool")
        elif not report[key]:
            self.warn("report", f"'{key}' is false: {message} (timing "
                      "ratio, recorded only)")

    def warn_single_threaded(self, report):
        # A scaling-type bench captured on one hardware thread measures
        # queueing, not parallelism — the capture is valid telemetry but
        # should not be quoted as a scaling result.
        threads = report.get("hardware_threads")
        if isinstance(threads, (int, float)) and threads == 1:
            self.warn("report",
                      "captured on 1 hardware thread; scaling numbers "
                      "reflect queueing, not parallel speedup")

    def require(self, obj, key, types, where):
        if key not in obj:
            self.error(where, f"missing key '{key}'")
            return None
        value = obj[key]
        if not isinstance(value, types) or isinstance(value, bool):
            self.error(where, f"'{key}' has type {type(value).__name__}")
            return None
        return value

    def number(self, obj, key, where, minimum=None):
        value = self.require(obj, key, (int, float), where)
        if value is None:
            return None
        if isinstance(value, float) and not math.isfinite(value):
            self.error(where, f"'{key}' is not finite")
            return None
        if minimum is not None and value < minimum:
            self.error(where, f"'{key}' = {value} < {minimum}")
        return value

    def check(self, report):
        # Explicit marker fields dispatch first: several scaling-type
        # benches also stamp hardware_threads, so the bare
        # hardware_threads fallback (bench_scaling) must come last.
        # The shard-scaling bench (bench_shard_scaling) sweeps router
        # shard counts under concurrent clients; its marker is the
        # top-level shard_scaling_bench field.
        if "shard_scaling_bench" in report:
            self.check_shard_scaling(report)
            return
        # The filter-kernel microbench (bench_filter_kernels) compares
        # filter implementations at fixed selectivities; its marker is
        # the top-level simd_level field.
        if "simd_level" in report:
            self.check_filter_kernels(report)
            return
        # The planner sweep (bench_planner) compares the adaptive planner
        # against both forced plans; its marker is the top-level
        # planner_sweep field.
        if "planner_sweep" in report:
            self.check_planner(report)
            return
        # The recovery bench (bench_recovery) measures WAL write overhead
        # and crash-replay throughput; its marker is the top-level
        # recovery_bench field.
        if "recovery_bench" in report:
            self.check_recovery(report)
            return
        # The observability bench (bench_obs_overhead) measures the cost
        # of the always-on obs layer; its marker is the top-level
        # obs_overhead field.
        if "obs_overhead" in report:
            self.check_obs_overhead(report)
            return
        # The external bulk-load bench (bench_ext_build) sweeps the
        # build memory budget across the extension field types; its
        # marker is the top-level ext_build_bench field.
        if "ext_build_bench" in report:
            self.check_ext_build(report)
            return
        # The shared-scan bench (bench_shared_scan) compares isolated
        # vs fused multi-query execution; its marker is the top-level
        # shared_scan_bench field.
        if "shared_scan_bench" in report:
            self.check_shared_scan(report)
            return
        # The thread-scaling bench (bench_scaling) has its own shape:
        # points are keyed by thread count, not qinterval, and there is
        # no disk model (warm-cache regime). Its marker is the top-level
        # hardware_threads field — checked after every explicit marker
        # above, since those reports stamp hardware_threads too.
        if "hardware_threads" in report:
            self.check_scaling(report)
            return
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "num_queries", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)

        vr = self.require(report, "value_range", dict, "report")
        if vr is not None:
            lo = self.number(vr, "min", "value_range")
            hi = self.number(vr, "max", "value_range")
            if lo is not None and hi is not None and lo > hi:
                self.error("value_range", f"min {lo} > max {hi}")

        # May legitimately be slightly negative (timing noise around 0)
        # or null (not measured); only its type is constrained.
        if "metrics_overhead_pct" not in report:
            self.error("report", "missing key 'metrics_overhead_pct'")
        elif report["metrics_overhead_pct"] is not None:
            self.number(report, "metrics_overhead_pct", "report")

        disk = self.require(report, "disk_model", dict, "report")
        if disk is not None:
            self.number(disk, "seek_ms", "disk_model", minimum=0)
            self.number(disk, "transfer_ms_per_page", "disk_model",
                        minimum=0)

        series = self.require(report, "series", list, "report")
        if series is None:
            return
        if not series:
            self.error("report", "'series' is empty")
        for i, ser in enumerate(series):
            self.check_series(ser, f"series[{i}]")

    def check_scaling(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "num_queries", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)
        self.number(report, "qinterval", "report", minimum=0)
        self.number(report, "hardware_threads", "report", minimum=0)
        self.warn_single_threaded(report)

        series = self.require(report, "series", list, "report")
        if series is None:
            return
        if not series:
            self.error("report", "'series' is empty")
        for i, ser in enumerate(series):
            where = f"series[{i}]"
            if not isinstance(ser, dict):
                self.error(where, "not an object")
                continue
            method = self.require(ser, "method", str, where)
            if method == "":
                self.error(where, "'method' is empty")
            points = self.require(ser, "points", list, where)
            if points is None:
                continue
            if not points:
                self.error(where, "'points' is empty")
            for j, point in enumerate(points):
                pwhere = f"{where}.points[{j}]"
                if not isinstance(point, dict):
                    self.error(pwhere, "not an object")
                    continue
                self.number(point, "threads", pwhere, minimum=1)
                self.number(point, "qps", pwhere, minimum=0)
                qps = point.get("qps")
                if isinstance(qps, (int, float)) and qps <= 0:
                    self.error(pwhere, f"qps {qps} is not positive")
                self.number(point, "avg_wall_ms", pwhere, minimum=0)
                p50 = self.number(point, "p50_wall_ms", pwhere, minimum=0)
                p99 = self.number(point, "p99_wall_ms", pwhere, minimum=0)
                if p50 is not None and p99 is not None and p50 > p99:
                    self.error(pwhere,
                               f"p50_wall_ms {p50} > p99_wall_ms {p99}")
                speedup = self.number(point, "speedup_vs_1", pwhere)
                if speedup is not None and speedup <= 0:
                    self.error(pwhere,
                               f"speedup_vs_1 {speedup} is not positive")
                self.number(point, "failed", pwhere, minimum=0)

    def check_filter_kernels(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)
        level = self.require(report, "simd_level", str, "report")
        if level is not None and level not in ("scalar", "avx2"):
            self.error("report", f"unknown simd_level '{level}'")

        points = self.require(report, "points", list, "report")
        if points is None:
            return
        if not points:
            self.error("report", "'points' is empty")
        for j, point in enumerate(points):
            where = f"points[{j}]"
            if not isinstance(point, dict):
                self.error(where, "not an object")
                continue
            sel = self.number(point, "selectivity", where, minimum=0)
            if sel is not None and sel > 1:
                self.error(where, f"selectivity {sel} > 1")
            self.number(point, "band_width", where, minimum=0)
            self.number(point, "num_queries", where, minimum=1)
            self.number(point, "matched_cells_avg", where, minimum=0)
            for key in ("record_scan_ms", "zonemap_scalar_ms",
                        "zonemap_simd_ms"):
                value = self.number(point, key, where, minimum=0)
                if isinstance(value, (int, float)) and value <= 0:
                    self.error(where, f"{key} {value} is not positive")
            for key in ("speedup_scalar", "speedup_simd"):
                value = self.number(point, key, where)
                if value is not None and value <= 0:
                    self.error(where, f"{key} {value} is not positive")
            if "results_identical" not in point:
                self.error(where, "missing key 'results_identical'")
            elif not isinstance(point["results_identical"], bool):
                self.error(where, "'results_identical' is not a bool")
            elif not point["results_identical"]:
                self.error(where, "kernel outputs diverged")

    def check_planner(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        if report.get("planner_sweep") is not True:
            self.error("report", "'planner_sweep' is not true")
        method = self.require(report, "method", str, "report")
        if method == "":
            self.error("report", "'method' is empty")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)
        disk = self.require(report, "disk_model", dict, "report")
        if disk is not None:
            self.number(disk, "seek_ms", "disk_model", minimum=0)
            self.number(disk, "transfer_ms_per_page", "disk_model",
                        minimum=0)

        points = self.require(report, "points", list, "report")
        if points is None:
            return
        if not points:
            self.error("report", "'points' is empty")
        for j, point in enumerate(points):
            where = f"points[{j}]"
            if not isinstance(point, dict):
                self.error(where, "not an object")
                continue
            width = self.number(point, "width_frac", where, minimum=0)
            if width is not None and not 0 < width <= 1:
                self.error(where, f"width_frac {width} not in (0, 1]")
            self.number(point, "num_queries", where, minimum=1)
            sel = self.number(point, "selectivity_avg", where, minimum=0)
            if sel is not None and sel > 1:
                self.error(where, f"selectivity_avg {sel} > 1")
            for key in ("auto_disk_ms", "scan_disk_ms", "index_disk_ms"):
                value = self.number(point, key, where, minimum=0)
                if isinstance(value, (int, float)) and value <= 0:
                    self.error(where, f"{key} {value} is not positive")
            ratio = self.number(point, "ratio_to_best", where)
            if ratio is not None and ratio <= 0:
                self.error(where, f"ratio_to_best {ratio} is not positive")
            frac = self.number(point, "index_plan_frac", where, minimum=0)
            if frac is not None and frac > 1:
                self.error(where, f"index_plan_frac {frac} > 1")
            if "within_10pct" not in point:
                self.error(where, "missing key 'within_10pct'")
            elif not isinstance(point["within_10pct"], bool):
                self.error(where, "'within_10pct' is not a bool")
            elif not point["within_10pct"]:
                self.error(where, "adaptive planner >10% off the best plan")

    def check_recovery(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        if report.get("recovery_bench") is not True:
            self.error("report", "'recovery_bench' is not true")
        method = self.require(report, "method", str, "report")
        if method == "":
            self.error("report", "'method' is empty")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)

        overhead = self.require(report, "write_overhead", list, "report")
        if overhead is not None:
            if not overhead:
                self.error("report", "'write_overhead' is empty")
            modes = []
            for j, point in enumerate(overhead):
                where = f"write_overhead[{j}]"
                if not isinstance(point, dict):
                    self.error(where, "not an object")
                    continue
                mode = self.require(point, "wal_mode", str, where)
                if mode is not None:
                    if mode not in ("off", "async", "fsync"):
                        self.error(where, f"unknown wal_mode '{mode}'")
                    elif mode in modes:
                        self.error(where, f"duplicate wal_mode '{mode}'")
                    modes.append(mode)
                self.number(point, "updates", where, minimum=1)
                for key in ("wall_ms", "updates_per_sec",
                            "overhead_vs_off"):
                    value = self.number(point, key, where, minimum=0)
                    if isinstance(value, (int, float)) and value <= 0:
                        self.error(where, f"{key} {value} is not positive")
            if "off" not in modes:
                self.error("write_overhead",
                           "missing the wal_mode=off baseline")

        replay = self.require(report, "replay", list, "report")
        if replay is None:
            return
        if not replay:
            self.error("report", "'replay' is empty")
        for j, point in enumerate(replay):
            where = f"replay[{j}]"
            if not isinstance(point, dict):
                self.error(where, "not an object")
                continue
            frames = self.number(point, "wal_frames", where, minimum=0)
            self.number(point, "wal_bytes", where, minimum=0)
            for key in ("reopen_ms", "scan_ms", "replay_ms", "verify_ms"):
                self.number(point, key, where, minimum=0)
            fps = self.number(point, "frames_per_sec", where, minimum=0)
            if (isinstance(frames, (int, float)) and frames > 0
                    and isinstance(fps, (int, float)) and fps <= 0):
                self.error(where,
                           f"frames_per_sec {fps} with {frames} frames")
            if "frames_replayed_ok" not in point:
                self.error(where, "missing key 'frames_replayed_ok'")
            elif not isinstance(point["frames_replayed_ok"], bool):
                self.error(where, "'frames_replayed_ok' is not a bool")
            elif not point["frames_replayed_ok"]:
                self.error(where, "recovery replayed a wrong frame count")

    def check_obs_overhead(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        if report.get("obs_overhead") is not True:
            self.error("report", "'obs_overhead' is not true")
        method = self.require(report, "method", str, "report")
        if method == "":
            self.error("report", "'method' is empty")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "num_queries", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)
        self.number(report, "reps", "report", minimum=1)
        for key in ("off_cpu_ms", "on_cpu_ms"):
            value = self.number(report, key, "report", minimum=0)
            if isinstance(value, (int, float)) and value <= 0:
                self.error("report", f"{key} {value} is not positive")
        # overhead_pct may legitimately be slightly negative (timing
        # noise around 0); only finiteness is constrained.
        self.number(report, "overhead_pct", "report")
        limit = self.number(report, "overhead_limit_pct", "report",
                            minimum=0)
        self.number(report, "sampler_period_ms", "report", minimum=0)
        self.number(report, "slow_query_threshold_ms", "report", minimum=0)
        self.number(report, "trace_events", "report", minimum=1)
        self.number(report, "trace_dropped", "report", minimum=0)
        self.number(report, "event_log_appended", "report", minimum=1)
        self.timing_flag(report, "within_limit",
                             f"obs overhead exceeded the {limit}% budget")
        families = self.require(report, "trace_families", dict, "report")
        if families is not None:
            for family in ("plan", "wal", "recovery", "queue-wait"):
                count = families.get(family)
                if not isinstance(count, int) or count < 1:
                    self.error("trace_families",
                               f"missing or empty family '{family}'")

    def check_ext_build(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        if report.get("ext_build_bench") is not True:
            self.error("report", "'ext_build_bench' is not true")

        series = self.require(report, "series", list, "report")
        if series is None:
            return
        if not series:
            self.error("report", "'series' is empty")
        types = []
        for i, ser in enumerate(series):
            where = f"series[{i}]"
            if not isinstance(ser, dict):
                self.error(where, "not an object")
                continue
            ftype = self.require(ser, "field_type", str, where)
            if ftype is not None:
                if ftype not in ("volume", "vector", "temporal"):
                    self.error(where, f"unknown field_type '{ftype}'")
                elif ftype in types:
                    self.error(where, f"duplicate field_type '{ftype}'")
                types.append(ftype)
            self.number(ser, "num_cells", where, minimum=1)
            points = self.require(ser, "points", list, where)
            if points is None:
                continue
            if not points:
                self.error(where, "'points' is empty")
            saw_unlimited = False
            saw_budgeted = False
            for j, point in enumerate(points):
                pwhere = f"{where}.points[{j}]"
                if not isinstance(point, dict):
                    self.error(pwhere, "not an object")
                    continue
                budget = self.number(point, "budget_bytes", pwhere,
                                     minimum=0)
                if budget == 0:
                    saw_unlimited = True
                elif isinstance(budget, (int, float)) and budget > 0:
                    saw_budgeted = True
                for key in ("build_ms", "cells_per_sec"):
                    value = self.number(point, key, pwhere, minimum=0)
                    if isinstance(value, (int, float)) and value <= 0:
                        self.error(pwhere, f"{key} {value} is not positive")
                self.number(point, "spill_runs", pwhere, minimum=0)
                peak = self.number(point, "peak_buffered_bytes", pwhere,
                                   minimum=1)
                if (isinstance(budget, (int, float)) and budget > 0
                        and isinstance(peak, (int, float))
                        and peak > budget):
                    self.error(pwhere,
                               f"peak_buffered_bytes {peak} > budget "
                               f"{budget}")
                for key in ("within_budget", "matches_unlimited"):
                    if key not in point:
                        self.error(pwhere, f"missing key '{key}'")
                    elif not isinstance(point[key], bool):
                        self.error(pwhere, f"'{key}' is not a bool")
                    elif not point[key]:
                        self.error(pwhere, f"'{key}' is false")
            if not saw_unlimited:
                self.error(where, "missing the budget_bytes=0 baseline")
            if not saw_budgeted:
                self.error(where, "no budgeted (spilling) build point")

    def check_shared_scan(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        if report.get("shared_scan_bench") is not True:
            self.error("report", "'shared_scan_bench' is not true")
        method = self.require(report, "method", str, "report")
        if method == "":
            self.error("report", "'method' is empty")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "num_queries", "report", minimum=1)
        self.number(report, "clients", "report", minimum=1)
        self.number(report, "threads", "report", minimum=1)
        self.number(report, "max_scan_group", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)
        self.number(report, "hardware_threads", "report", minimum=1)
        self.warn_single_threaded(report)
        qi = self.number(report, "qinterval", "report", minimum=0)
        if qi is not None and qi > 1:
            self.error("report", f"qinterval {qi} > 1")
        backend = self.require(report, "async_backend", str, "report")
        if backend is not None and backend not in ("sync", "preadv",
                                                   "iouring"):
            self.error("report", f"unknown async_backend '{backend}'")
        for key in ("qps_isolated", "qps_shared", "speedup"):
            value = self.number(report, key, "report", minimum=0)
            if isinstance(value, (int, float)) and value <= 0:
                self.error("report", f"{key} {value} is not positive")
        for key in ("p50_wall_ms_isolated", "p99_wall_ms_isolated",
                    "p50_wall_ms_shared", "p99_wall_ms_shared"):
            self.number(report, key, "report", minimum=0)
        iso_phys = self.number(report, "physical_reads_isolated", "report",
                               minimum=0)
        sh_phys = self.number(report, "physical_reads_shared", "report",
                              minimum=0)
        if (isinstance(iso_phys, (int, float))
                and isinstance(sh_phys, (int, float))
                and sh_phys > iso_phys):
            self.error("report",
                       f"physical_reads_shared {sh_phys} > isolated "
                       f"{iso_phys}")
        iso_log = self.number(report, "logical_reads_isolated", "report",
                              minimum=0)
        sh_log = self.number(report, "logical_reads_shared", "report",
                             minimum=0)
        if (isinstance(iso_log, (int, float))
                and isinstance(sh_log, (int, float))
                and sh_log > iso_log):
            self.error("report",
                       f"logical_reads_shared {sh_log} > isolated "
                       f"{iso_log}")
        self.number(report, "shared_groups", "report", minimum=1)
        for key in ("answers_identical", "io_not_worse"):
            if key not in report:
                self.error("report", f"missing key '{key}'")
            elif not isinstance(report[key], bool):
                self.error("report", f"'{key}' is not a bool")
            elif not report[key]:
                self.error("report", f"'{key}' is false")
        self.timing_flag(report, "speedup_ok",
                             "shared-scan speedup below the 1.5x target")

    def check_shard_scaling(self, report):
        self.require(report, "bench_id", str, "report")
        self.require(report, "title", str, "report")
        if report.get("shard_scaling_bench") is not True:
            self.error("report", "'shard_scaling_bench' is not true")
        method = self.require(report, "method", str, "report")
        if method == "":
            self.error("report", "'method' is empty")
        self.number(report, "field_cells", "report", minimum=1)
        self.number(report, "num_queries", "report", minimum=1)
        self.number(report, "clients", "report", minimum=1)
        self.number(report, "workload_seed", "report", minimum=0)
        qi = self.number(report, "qinterval", "report", minimum=0)
        if qi is not None and qi > 1:
            self.error("report", f"qinterval {qi} > 1")
        threads = self.number(report, "hardware_threads", "report",
                              minimum=1)
        self.warn_single_threaded(report)

        points = self.require(report, "points", list, "report")
        if points is not None:
            if not points:
                self.error("report", "'points' is empty")
            shard_counts = []
            for j, point in enumerate(points):
                where = f"points[{j}]"
                if not isinstance(point, dict):
                    self.error(where, "not an object")
                    continue
                shards = self.number(point, "shards", where, minimum=1)
                if shards is not None:
                    if shards in shard_counts:
                        self.error(where, f"duplicate shard count {shards}")
                    shard_counts.append(shards)
                qps = self.number(point, "qps", where, minimum=0)
                if isinstance(qps, (int, float)) and qps <= 0:
                    self.error(where, f"qps {qps} is not positive")
                self.number(point, "avg_wall_ms", where, minimum=0)
                p50 = self.number(point, "p50_wall_ms", where, minimum=0)
                p99 = self.number(point, "p99_wall_ms", where, minimum=0)
                if p50 is not None and p99 is not None and p50 > p99:
                    self.error(where,
                               f"p50_wall_ms {p50} > p99_wall_ms {p99}")
                speedup = self.number(point, "speedup_vs_1", where)
                if speedup is not None and speedup <= 0:
                    self.error(where,
                               f"speedup_vs_1 {speedup} is not positive")
                frac = self.number(point, "shards_skipped_frac", where,
                                   minimum=0)
                if frac is not None and frac > 1:
                    self.error(where, f"shards_skipped_frac {frac} > 1")
                self.number(point, "admission_waits", where, minimum=0)
                self.number(point, "failed", where, minimum=0)
            if 1 not in shard_counts:
                self.error("report", "missing the shards=1 baseline")

        self.number(report, "speedup_target", "report", minimum=0)
        # The >= 2.5x target only arms on real multi-core hardware;
        # single-core captures record speedup_ok=true with
        # speedup_gated=false (and the warning above flags them).
        if "speedup_gated" not in report:
            self.error("report", "missing key 'speedup_gated'")
        elif not isinstance(report["speedup_gated"], bool):
            self.error("report", "'speedup_gated' is not a bool")
        self.timing_flag(report, "speedup_ok",
                             "shard speedup below the target")
        if (report.get("speedup_gated") is True
                and isinstance(threads, (int, float)) and threads < 4):
            self.error("report",
                       f"speedup_gated on {threads} hardware threads")

    def check_series(self, ser, where):
        if not isinstance(ser, dict):
            self.error(where, "not an object")
            return
        method = self.require(ser, "method", str, where)
        if method == "":
            self.error(where, "'method' is empty")

        build = self.require(ser, "build", dict, where)
        if build is not None:
            for key in _BUILD_FIELDS:
                self.number(build, key, f"{where}.build", minimum=0)

        points = self.require(ser, "points", list, where)
        if points is None:
            return
        if not points:
            self.error(where, "'points' is empty")
        for j, point in enumerate(points):
            pwhere = f"{where}.points[{j}]"
            if not isinstance(point, dict):
                self.error(pwhere, "not an object")
                continue
            self.number(point, "qinterval", pwhere, minimum=0)
            self.number(point, "num_queries", pwhere, minimum=1)
            for key in _POINT_FIELDS:
                self.number(point, key, pwhere, minimum=0)
            p50 = point.get("p50_wall_ms")
            mx = point.get("max_wall_ms")
            if isinstance(p50, (int, float)) and isinstance(mx, (int, float)):
                if p50 > mx:
                    self.error(pwhere, f"p50_wall_ms {p50} > max_wall_ms {mx}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        checker = Checker(path)
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: unreadable: {e}", file=sys.stderr)
            failed = True
            continue
        if not isinstance(report, dict):
            print(f"{path}: top level is not an object", file=sys.stderr)
            failed = True
            continue
        checker.check(report)
        for warning in checker.warnings:
            print(warning, file=sys.stderr)
        if checker.errors:
            failed = True
            for err in checker.errors:
                print(err, file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
