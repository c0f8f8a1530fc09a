"""The benchmark's workloads: their inputs, one CLI operation, its checks.

Each workload is built from the run's seed alone.  Set-up generates the
input wafers in process and writes them to disk; the program under test only
ever sees those files, through one `jjwafer` child per operation.

wafer56     `jjwafer report --out DIR` on one 56x56 text dataset.  One large
            file: text decode, ramp materialization, the per-ramp breakdown
            loop, the knee scan over ~2 100 fields and six grid exports
            dominate; the multi-file pool is bypassed.
batch14     one `jjwafer analyze all --format json --out DIR` over eight 14x14
            wafers, all four presets at two seeds, half text and half JSON.
            Fixed costs per file dominate: fits, rendering, file writes, the
            JSON reader, interpreter start-up and the CLI's thread pool.
simulate56  `jjwafer simulate` of one 56x56 etch20 wafer.  The write side of
            the dataset layer and the generator; no analysis stage runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

from jjwafer import dataset, synthetic

import checks

# 56 x 56 grid masked to 4 * sqrt(42.5) probes 2 128 dies, 16x the 14x14 wafer
GRID56 = dict(rows=56, cols=56, mask_radius=4 * math.sqrt(42.5))
# raises the etch30 film's defect density so that ~13 % of dies fail on a
# defect and the bkd stage finds a real transition
WAFER56_DEFECT_DENSITY_CM2 = 5.5e5


@dataclass
class Input:
    """One wafer the set-up generates and writes."""

    spec: synthetic.WaferSpec
    path: str
    fmt: str  # "text" or "json"
    generated: synthetic.SyntheticDataset | None = None

    @property
    def stem(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]

    @property
    def n_probed(self) -> int:
        spec = self.spec
        return int(checks.probed_mask(spec.rows, spec.cols, spec.mask_radius).sum())


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    argv: list[str]               # CLI arguments of one operation
    serial_argvs: list[list[str]]  # the same work as one CLI call per file
    out: str                      # directory or file the operation writes
    check_output: Callable[["Workload"], list[str]]
    check_inputs: Callable[["Workload"], list[str]] | None = None
    # problems found in what set-up wrote, shared by every operation
    setup_problems: list[str] = field(default_factory=list)

    @property
    def dies_per_op(self) -> int:
        return sum(inp.n_probed for inp in self.inputs)

    def set_up(self) -> None:
        """Generate and write every input file."""
        for inp in self.inputs:
            inp.generated = synthetic.generate_wafer(inp.spec)
            dataset.save_dataset(inp.generated.dataset, inp.path, inp.fmt)

    def check_setup(self) -> None:
        if self.check_inputs is not None:
            self.setup_problems = self.check_inputs(self)

    def check(self) -> list[str]:
        """Problems in what the last operation wrote."""
        return self.setup_problems + self.check_output(self)

    def clear_output(self) -> None:
        """Remove what the previous operation wrote, so no stale file passes."""
        if os.path.isdir(self.out):
            for name in os.listdir(self.out):
                os.unlink(os.path.join(self.out, name))
        elif os.path.exists(self.out):
            os.unlink(self.out)


def _check_wafer56(wl: Workload) -> list[str]:
    inp = wl.inputs[0]
    with open(os.path.join(wl.out, f"{inp.stem}.report.txt"), encoding="utf-8") as handle:
        rep = checks.parse_text_report(handle.read())
    return (checks.check_report(rep, inp.spec, inp.generated.ground_truth,
                                checks.TOL_EXACT_TEXT, defect_truth=True)
            + checks.check_grids(wl.out, inp.stem, inp.generated.maps))


def _check_batch14(wl: Workload) -> list[str]:
    problems = []
    for inp in wl.inputs:
        with open(os.path.join(wl.out, f"{inp.stem}.report.json"),
                  encoding="utf-8") as handle:
            rep = json.load(handle)
        problems += [f"{inp.stem}: {p}" for p in checks.check_report(
            rep, inp.spec, inp.generated.ground_truth, checks.TOL_EXACT_JSON,
            defect_truth=False)]
    return problems


def _check_reference(wl: Workload) -> list[str]:
    inp = wl.inputs[0]
    return checks.check_simulated(dataset.load_dataset(inp.path), inp.spec,
                                  inp.generated.ground_truth)


def _check_simulated(wl: Workload) -> list[str]:
    # the reference was written in process from the same spec
    with open(wl.out, "rb") as a, open(wl.inputs[0].path, "rb") as b:
        same = a.read() == b.read()
    return [] if same else [f"{wl.out} differs from the same seed's reference"]


def wafer56(seed: int, work: str) -> Workload:
    spec = synthetic.preset_spec("etch30", seed=seed, **GRID56,
                                 defect_density_cm2=WAFER56_DEFECT_DENSITY_CM2)
    inp = Input(spec, os.path.join(work, "wafer56.jjw"), "text")
    out = os.path.join(work, "report")
    argv = ["report", "--out", out, inp.path]
    return Workload("wafer56", [inp], argv, [argv], out, _check_wafer56)


def batch14(seed: int, work: str) -> Workload:
    inputs = []
    for j, fmt in enumerate(("text", "json")):
        for preset in synthetic.PRESET_NAMES:
            s = 2 * seed + j
            ext = "jjw" if fmt == "text" else "json"
            inputs.append(Input(synthetic.preset_spec(preset, seed=s),
                                os.path.join(work, f"{preset}-s{s}.{ext}"), fmt))
    out = os.path.join(work, "reports")
    base = ["analyze", "all", "--format", "json", "--out", out]
    return Workload("batch14", inputs, base + [inp.path for inp in inputs],
                    [base + [inp.path] for inp in inputs], out, _check_batch14)


def simulate56(seed: int, work: str) -> Workload:
    spec = synthetic.preset_spec("etch20", seed=seed, **GRID56)
    reference = Input(spec, os.path.join(work, "reference.jjw"), "text")
    out = os.path.join(work, "simulated.jjw")
    argv = ["simulate", "--preset", "etch20", "--seed", str(seed),
            "--set", "rows=56", "--set", "cols=56",
            "--set", f"mask_radius={spec.mask_radius!r}", "--out", out]
    return Workload("simulate56", [reference], argv, [argv], out,
                    _check_simulated, _check_reference)


WORKLOADS = {"wafer56": wafer56, "batch14": batch14, "simulate56": simulate56}
