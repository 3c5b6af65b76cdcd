#!/usr/bin/env python3
"""Tests for check_bench_json.py: it accepts a valid report for every
row of its requirements table and a failed timing gate (with a warning),
and rejects each broken report with the expected message.

Usage: check_bench_json_test.py (stdlib unittest; runs as a CTest).
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import unittest

import check_bench_json as checker


def valid_report(bench_id):
    """A report that carries exactly what `bench_id`'s row requires."""
    row = checker.REQUIREMENTS[bench_id]
    return {
        "bench_id": bench_id,
        "title": f"{bench_id} test report",
        "config": {key: spec.example for key, spec in row.config.items()},
        "points": [
            {"labels": {k: s.example for k, s in kind.labels.items()},
             "metrics": {k: s.example for k, s in kind.metrics.items()}}
            for kind in row.kinds],
        "gates": [
            {"name": name, "kind": "invariant", "observed": 0, "op": "==",
             "target": 0, "ok": True}
            for name in row.gates],
    }


def baseline_of(report, names):
    """A baseline recording `report`'s values of the metrics `names`."""
    return {
        "bench_id": report["bench_id"],
        "metrics": names,
        "points": [{"labels": p["labels"],
                    "metrics": {n: p["metrics"][n] for n in names}}
                   for p in report["points"]],
    }


class CheckBenchJsonTest(unittest.TestCase):
    def run_checker(self, report, baseline=None):
        """Writes `report` (and `baseline`) to files and runs the
        checker's main on them; returns (exit code, stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_test.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(report, f)
            args = ["check_bench_json.py"]
            if baseline is not None:
                baseline_path = os.path.join(tmp, "baseline.json")
                with open(baseline_path, "w", encoding="utf-8") as f:
                    json.dump(baseline, f)
                args += ["--baseline", baseline_path]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = checker.main(args + [path])
        return code, err.getvalue()

    def assert_rejected(self, report, message):
        code, err = self.run_checker(report)
        self.assertEqual(code, 1, err)
        self.assertIn(message, err)

    def test_accepts_a_valid_report_for_every_row(self):
        rows = {}
        for bench_id, row in checker.REQUIREMENTS.items():
            rows.setdefault(id(row), bench_id)  # figure ids share a row
        for bench_id in rows.values():
            with self.subTest(bench_id=bench_id):
                code, err = self.run_checker(valid_report(bench_id))
                self.assertEqual(code, 0, err)
                self.assertEqual(err, "")

    def test_failed_timing_gate_only_warns(self):
        report = valid_report("shard_scaling")
        gate = next(g for g in report["gates"] if g["name"] == "speedup")
        gate.update(kind="timing", observed=1.2, op=">=", target=2.5,
                    ok=False)
        code, err = self.run_checker(report)
        self.assertEqual(code, 0, err)
        self.assertIn("warning: timing gate 'speedup' failed", err)

    def test_rejects_a_missing_required_metric(self):
        report = valid_report("smoke")
        del report["points"][0]["metrics"]["avg_logical_reads"]
        self.assert_rejected(report, "missing metric 'avg_logical_reads'")

    def test_rejects_a_non_finite_metric(self):
        report = valid_report("planner")
        report["points"][0]["metrics"]["ratio_to_best"] = None  # NaN
        self.assert_rejected(
            report, "metric 'ratio_to_best' = None is not a finite number")

    def test_rejects_an_unknown_bench_id(self):
        report = valid_report("smoke")
        report["bench_id"] = "no_such_bench"
        self.assert_rejected(report, "unknown bench_id 'no_such_bench'")

    def test_rejects_two_points_with_the_same_labels(self):
        report = valid_report("scaling")
        report["points"].append(copy.deepcopy(report["points"][0]))
        self.assert_rejected(report, "points[1]: same labels as points[0]")

    def test_rejects_a_failed_invariant_gate(self):
        report = valid_report("recovery")
        gate = report["gates"][1]
        gate.update(observed=3, ok=False)
        self.assert_rejected(
            report, f"invariant gate '{gate['name']}' failed: 3 == 0")

    def test_rejects_a_gate_whose_ok_contradicts_its_condition(self):
        report = valid_report("ext_build")
        gate = report["gates"][0]
        gate.update(observed=2, op="<=", target=1, ok=True)
        self.assert_rejected(
            report, f"gate '{gate['name']}' says ok=True but 2 <= 1 is "
            "False")

    def test_accepts_work_counts_equal_to_the_baseline(self):
        report = valid_report("smoke")
        baseline = baseline_of(report, ["avg_logical_reads", "store_pages"])
        code, err = self.run_checker(report, baseline)
        self.assertEqual(code, 0, err)

    def test_rejects_a_work_count_that_differs_from_the_baseline(self):
        report = valid_report("smoke")
        baseline = baseline_of(report, ["avg_logical_reads", "store_pages"])
        for delta in (1, -1):  # more work, and less without re-recording
            changed = copy.deepcopy(report)
            changed["points"][0]["metrics"]["store_pages"] += delta
            self.assert_rejected_with(changed, baseline, "'store_pages' = ")

    def test_rejects_points_missing_from_either_side(self):
        report = valid_report("smoke")
        baseline = baseline_of(report, ["store_pages"])
        extra = copy.deepcopy(report)
        extra["points"][0]["labels"]["method"] = "other"
        self.assert_rejected_with(extra, baseline, "no point labelled")
        self.assert_rejected_with(extra, baseline, "is not in the baseline")

    def test_rejects_a_baseline_of_another_bench(self):
        report = valid_report("smoke")
        baseline = baseline_of(report, ["store_pages"])
        baseline["bench_id"] = "fig8a"
        self.assert_rejected_with(report, baseline, "baseline's 'fig8a'")

    def assert_rejected_with(self, report, baseline, message):
        code, err = self.run_checker(report, baseline)
        self.assertEqual(code, 1, err)
        self.assertIn(message, err)


if __name__ == "__main__":
    unittest.main()
