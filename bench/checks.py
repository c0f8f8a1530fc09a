"""Correctness checks on what the jjwafer CLI writes.

Every check compares a report value with the ground truth that the generated
wafer carries, or with a value computed here from that truth.  Nothing is
compared with a stored copy of an earlier run's output.

Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import math
import os

import numpy as np

# CODATA 2018 vacuum permittivity [F/m].  Kept here so that the C/A check
# does not reuse the program's own constant.
EPS0_F_PER_M = 8.8541878128e-12
UM2_TO_CM2 = 1e-8

# Relative tolerances against the generating spec.  Each lies well beyond the
# largest error the generator's noise gave over 480 preset 14x14 wafers
# (seeds 0-119) and 30 wafer56 wafers (seeds 0-29): t_ox and C/A 0.6 %, k
# 1.3 %, RA 4.4 %, defect density against the truth's defective-die share
# 2.5 %.  All 1 600 preset wafers of seeds 0-399 and the 75 wafer56 wafers of
# seeds 0-74 pass.
TOL_T_OX = 0.02
TOL_CA = 0.02
TOL_K = 0.04
TOL_RA = 0.10
TOL_DEFECT = 0.10
# Values a report must reproduce exactly, up to the digits it prints: JSON
# reports carry every digit, text reports six significant ones.
TOL_EXACT_JSON = 1e-9
TOL_EXACT_TEXT = 5e-5

_TEXT_FIELDS = {
    "t_ox": "t_ox_nm",
    "C/A": "ca_ff_per_um2",
    "k": "k_per_nm",
    "RA": "ra_mohm_um2",
    "RA_S": "ra_s_mohm_um2",
    "V_BT": "v_bt_v",
    "defect density": "defect_density_cm2",
}


def _number(token: str) -> float | None:
    return None if token == "-" else float(token)


def parse_text_report(text: str) -> dict:
    """The fields the checks need, from a report rendered as text."""
    values: dict = {"stage_errors": []}
    in_errors = False
    for line in text.splitlines():
        if line == "stage errors:":
            in_errors = True
            continue
        if in_errors and line.startswith("  - "):
            values["stage_errors"].append(line[4:])
            continue
        if not line.startswith("  ") or line.startswith("  - "):
            continue
        label, _, rest = line[2:].partition(": ")
        tokens = rest.split()
        if label in _TEXT_FIELDS:
            values[_TEXT_FIELDS[label]] = _number(tokens[0])
        elif label == "sidewall negligible":
            values["sidewall_negligible"] = {"yes": True, "no": False}.get(tokens[0])
        elif label == "ramps":
            # "<n>, breakdowns: <n>, censored: <n>"
            values["n_breakdowns"] = int(tokens[2].rstrip(","))
        elif label == "E_crit":
            values["p_knee"] = _number(tokens[-1])
    return values


def check_report(rep: dict, spec, truth: dict, exact_tol: float,
                 defect_truth: bool) -> list[str]:
    """Check one parsed report against the wafer that was generated.

    spec is the WaferSpec and truth the ground-truth dict of the generated
    wafer.  defect_truth also compares the defect density with the share of
    live dies that the truth says carry a defect; without it the knee is only
    checked for D = -ln(1 - p_k) / A.
    """
    problems: list[str] = []

    def near(name, want, tol):
        got = rep.get(name)
        if got is None or not math.isfinite(got) or abs(got - want) > tol * abs(want):
            problems.append(f"{name} = {got!r}, expected {want!r} within {tol:g}")

    if rep.get("stage_errors") != []:
        problems.append(f"stage errors: {rep.get('stage_errors')!r}")
    near("t_ox_nm", spec.t_ox_nm, TOL_T_OX)
    near("ca_ff_per_um2", spec.eps_r * EPS0_F_PER_M / (spec.t_ox_nm * 1e-9) * 1e3,
         TOL_CA)
    near("k_per_nm", spec.k_per_nm, TOL_K)
    near("ra_mohm_um2", truth["ra_mohm_um2"], TOL_RA)
    if rep.get("sidewall_negligible") is not True:
        near("ra_s_mohm_um2", truth["ra_s_mohm_um2"], TOL_RA)

    v_bt = np.array(truth["v_bt_map_v"], dtype=float)
    v_bt = v_bt[np.isfinite(v_bt)]
    if rep.get("n_breakdowns") != v_bt.size:
        problems.append(f"n_breakdowns = {rep.get('n_breakdowns')!r}, "
                        f"truth has {v_bt.size}")
    near("v_bt_v", float(v_bt.mean()), exact_tol)

    area_cm2 = spec.ramp_area_um2 * UM2_TO_CM2
    p_knee = rep.get("p_knee")
    if p_knee is not None:
        near("defect_density_cm2", -math.log1p(-p_knee) / area_cm2, exact_tol)
    if defect_truth:
        counts = np.array(truth["defect_count_map"])
        live = counts >= 0
        share = float(np.mean(counts[live] > 0))
        if p_knee is None:
            problems.append("no defect transition found")
        else:
            near("defect_density_cm2", -math.log1p(-share) / area_cm2, TOL_DEFECT)
    return problems


def read_grid(path: str) -> np.ndarray:
    """A grid CSV as an array, NaN where a cell is empty."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return np.array([[float(cell) if cell else math.nan for cell in line.split(",")]
                     for line in lines])


def check_grids(out_dir: str, stem: str, maps: dict) -> list[str]:
    """Each exported grid equals the generated capacitance map exactly."""
    problems = []
    for area, wmap in maps.items():
        path = os.path.join(out_dir, f"{stem}.cap{area:g}.csv")
        if not os.path.exists(path + ".meta"):
            problems.append(f"missing {path}.meta")
        grid = read_grid(path)
        if not np.array_equal(grid, wmap.values, equal_nan=True):
            problems.append(f"{path} differs from the generated map")
    return problems


def probed_mask(rows: int, cols: int, radius: float) -> np.ndarray:
    """Dies inside the probing mask, computed from the grid geometry."""
    r = np.arange(rows)[:, None] - (rows - 1) / 2.0
    c = np.arange(cols)[None, :] - (cols - 1) / 2.0
    return r * r + c * c <= radius * radius + 1e-9


def check_simulated(ds, spec, truth: dict) -> list[str]:
    """A dataset read back from a simulate run against the mask geometry."""
    problems = []
    probed = probed_mask(spec.rows, spec.cols, spec.mask_radius)
    if not np.array_equal(np.array(truth["probed_map"]), probed):
        problems.append("ground-truth probed map differs from the mask geometry")
    dead = np.array(truth["dead_map"]) & probed
    n_probed, n_live = int(probed.sum()), int(probed.sum() - dead.sum())
    n_cap = n_probed * len(spec.cap_areas_um2)
    if len(ds.cap) != n_cap:
        problems.append(f"{len(ds.cap)} cap records, geometry gives {n_cap}")
    n_blank = sum(rec.c_ff is None for rec in ds.cap)
    if n_blank != n_cap - n_live * len(spec.cap_areas_um2):
        problems.append(f"{n_blank} blank cap cells for {n_probed - n_live} dead dies")
    if len(ds.ramp) != n_live:
        problems.append(f"{len(ds.ramp)} ramp records, geometry gives {n_live} live dies")
    if len(ds.iv) != spec.n_iv_dies:
        problems.append(f"{len(ds.iv)} iv records, spec asks for {spec.n_iv_dies}")
    return problems
