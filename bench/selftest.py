"""Shows that the benchmark's checks catch wrong output.

    python3 bench/selftest.py

Each case takes output that passes, perturbs one report field, one grid cell
or one file, and expects the check or the operation to fail.  The file name
keeps it out of a plain `pytest` run from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import unittest

import run  # puts the checkout's src/ on sys.path
from jjwafer import analyze, generate_wafer, preset_spec, render_json, render_text

import checks
from workloads import batch14, simulate56, wafer56

WORK = os.path.join(run.OUT, "selftest")


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class ReportChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.generated = generate_wafer(preset_spec("etch20", seed=3))
        cls.report = analyze(cls.generated.dataset)

    def problems(self, rep, exact_tol=checks.TOL_EXACT_JSON):
        return checks.check_report(rep, self.generated.spec,
                                   self.generated.ground_truth, exact_tol,
                                   defect_truth=False)

    def test_json_report_passes_and_each_perturbation_fails(self):
        good = json.loads(render_json(self.report))
        self.assertEqual(self.problems(good), [])
        perturbations = {
            "t_ox_nm": lambda x: x * 1.05,
            "ca_ff_per_um2": lambda x: x * 0.95,
            "k_per_nm": lambda x: x * 1.1,
            "ra_mohm_um2": lambda x: x * 1.2,
            "n_breakdowns": lambda x: x - 1,
            "v_bt_v": lambda x: x + 1e-3,
            "stage_errors": lambda x: [["iv", "no I-V records"]],
        }
        for key, change in perturbations.items():
            bad = dict(good, **{key: change(good[key])})
            self.assertNotEqual(self.problems(bad), [], key)

    def test_text_report_parses_and_a_changed_line_fails(self):
        text = render_text(self.report)
        self.assertEqual(self.problems(checks.parse_text_report(text),
                                       checks.TOL_EXACT_TEXT), [])
        line = next(ln for ln in text.splitlines() if ln.startswith("  t_ox: "))
        bad = text.replace(line, "  t_ox: 3.5 nm (from capacitance)")
        self.assertNotEqual(self.problems(checks.parse_text_report(bad),
                                          checks.TOL_EXACT_TEXT), [])


class OperationChecks(unittest.TestCase):
    def test_batch14_op_fails_on_a_truncated_dataset(self):
        wl = batch14(0, fresh_dir("batch14"))
        wl.set_up()
        log = os.path.join(WORK, "batch14.log")
        self.assertEqual(run.run_operation(wl, log)[1], [])
        victim = wl.inputs[-1].path  # a JSON file
        with open(victim, "r+b") as handle:
            handle.truncate(os.path.getsize(victim) // 2)
        child, problems = run.run_operation(wl, log)
        self.assertNotEqual(child.code, 0)
        self.assertNotEqual(problems, [])

    def test_wafer56_op_fails_on_a_changed_report_or_grid(self):
        wl = wafer56(0, fresh_dir("wafer56"))
        wl.set_up()
        self.assertEqual(run.run_operation(wl, os.path.join(WORK, "wafer56.log"))[1], [])
        stem = wl.inputs[0].stem
        report_path = os.path.join(wl.out, f"{stem}.report.txt")
        with open(report_path, encoding="utf-8") as handle:
            text = handle.read()
        line = next(ln for ln in text.splitlines() if ln.startswith("  defect density: "))
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(line, "  defect density: 600000 1/cm2"))
        self.assertNotEqual(wl.check(), [])
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.assertEqual(wl.check(), [])
        grid_path = os.path.join(wl.out, f"{stem}.cap25.csv")
        with open(grid_path, encoding="utf-8") as handle:
            rows = handle.read().split("\n")
        cells = rows[28].split(",")
        col = next(c for c, cell in enumerate(cells) if cell)
        cells[col] = repr(float(cells[col]) * (1 + 1e-15))
        rows[28] = ",".join(cells)
        with open(grid_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows))
        self.assertNotEqual(wl.check(), [])

    def test_simulate56_fails_on_changed_bytes_or_missing_records(self):
        wl = simulate56(0, fresh_dir("simulate56"))
        wl.set_up()
        wl.check_setup()
        self.assertEqual(wl.setup_problems, [])
        shutil.copyfile(wl.inputs[0].path, wl.out)
        self.assertEqual(wl.check(), [])
        with open(wl.out, "r+b") as handle:
            handle.truncate(os.path.getsize(wl.out) - 100)
        self.assertNotEqual(wl.check(), [])
        ds = wl.inputs[0].generated.dataset
        ds.ramp.pop()
        self.assertNotEqual(checks.check_simulated(ds, wl.inputs[0].spec,
                                                   wl.inputs[0].generated.ground_truth), [])


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
