"""Whole-wafer analysis pipeline and report rendering.

analyze() runs up to four stages over one dataset:

    cap  per-area wafer statistics, mean-vs-area regression for C/A, oxide
         thickness from the plate-capacitor relation
    iv   tunneling decay constant k per sweep (needs a thickness: from the
         cap stage or from the config override), barrier height, the
         area-resistance the tunneling model implies
    res  plate/sidewall area-resistance decomposition
    bkd  breakdown voltages from the ramps, field statistics, ranked failure
         distribution, defect-to-intrinsic transition and defect density

A stage that cannot run raises _StageError; analyze() records its message in
WaferReport.stage_errors under the stage's name, keeps the fields the stage
set before it stopped, and runs the remaining stages.  Per-record problems
(one unfittable sweep, one censored ramp) become notes instead.  The absence
of a two-population transition in the failure distribution is reported as a
note, not an error: a clean wafer is supposed to look like that.

The iv and bkd stages use one oxide thickness: the config's t_ox_nm when it
is set, whichever stages run, else the one the cap stage derives.  The report
names that thickness and its source.

Rendering is deterministic: equal reports give byte-equal text and JSON.

export_wafer_grid() writes one wafer map as comma-separated rows with empty
cells for unprobed or dead dies, every number carrying 17 significant digits
so the values round-trip exactly; a `<path>.meta` sidecar holds the label,
units, pad area and grid shape.  load_wafer_grid() inverts it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ._fields import check_finite_fields
from .breakdown import (
    DEFAULT_JUMP_FACTOR,
    DEFAULT_JUMP_FLOOR_A,
    critical_defect_density,
    find_transition,
    first_jumps,
    fit_weibull_shape,
    weibull_transform,
)
from .capacitance import (
    EPS_R_REFERENCE,
    WaferMap,
    fit_capacitance_per_area,
    oxide_thickness_from_ca,
    wafer_statistics,
)
from .constants import (
    DEFAULT_BETA,
    DEFAULT_M_REL,
    barrier_height_from_k,
    field_strength,
)
from .dataset import (
    DatasetFile,
    atomic_write_text,
    cap_maps,
    iv_curves,
    ramp_blocks,
    resistance_records,
)
from .errors import (
    AnalysisError,
    DatasetFormatError,
    DatasetSchemaError,
    NoKneeError,
)
from .iv_analysis import fit_k_from_dt
from .resistance import decompose_resistances
from .transport import implied_area_resistance

__all__ = [
    "STAGES",
    "AnalysisConfig",
    "AreaStats",
    "WaferReport",
    "analyze",
    "render_text",
    "render_json",
    "format_grid_cell",
    "export_wafer_grid",
    "load_wafer_grid",
]

@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable pipeline parameters; the defaults match the instruments."""

    eps_r: float = EPS_R_REFERENCE
    beta: float = DEFAULT_BETA
    m_rel: float = DEFAULT_M_REL
    slope_tol: float = 0.1
    fn_r2_min: float = 0.995
    jump_factor: float = DEFAULT_JUMP_FACTOR
    jump_floor_a: float = DEFAULT_JUMP_FLOOR_A
    t_ox_nm: float | None = None  # overrides the cap stage's thickness everywhere

    def __post_init__(self):
        check_finite_fields(self)
        if not (self.eps_r > 0.0):
            raise ValueError(f"eps_r must be positive, got {self.eps_r}")
        if not (self.beta > 0.0) or not (self.m_rel > 0.0):
            raise ValueError("beta and m_rel must be positive")
        if not (0.0 < self.slope_tol < 1.0):
            raise ValueError(f"slope_tol must lie in (0, 1), got {self.slope_tol}")
        if not (0.0 < self.fn_r2_min <= 1.0):
            raise ValueError(f"fn_r2_min must lie in (0, 1], got {self.fn_r2_min}")
        if not (self.jump_factor > 1.0):
            raise ValueError(f"jump_factor must exceed 1, got {self.jump_factor}")
        if not (self.jump_floor_a > 0.0):
            raise ValueError(f"jump_floor_a must be positive, got {self.jump_floor_a}")
        if self.t_ox_nm is not None and not (self.t_ox_nm > 0.0):
            raise ValueError(f"t_ox_nm must be positive, got {self.t_ox_nm}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "AnalysisConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**mapping)

    @classmethod
    def from_json_file(cls, path: str) -> "AnalysisConfig":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError("config file must hold a JSON object")
        return cls.from_mapping(payload)


@dataclass(frozen=True)
class AreaStats:
    """Per-pad-area wafer summary used inside WaferReport."""

    area_um2: float
    mean_ff: float
    sd_ff: float
    rsd_pct: float
    yield_pct: float
    n_valid: int
    n_probed: int


@dataclass(frozen=True)
class WaferReport:
    """Everything analyze() extracted from one wafer, None where unavailable."""

    label: str = ""
    etch_s: float | None = None
    stages_run: tuple[str, ...] = ()

    # cap stage
    cap_by_area: tuple[AreaStats, ...] = ()
    ca_ff_per_um2: float | None = None
    ca_stderr_ff_per_um2: float | None = None
    cap_intercept_ff: float | None = None
    cap_r2: float | None = None
    t_ox_nm: float | None = None
    t_ox_source: str | None = None  # "capacitance" or "config"
    headline_area_um2: float | None = None
    c_mean_ff: float | None = None
    c_sd_ff: float | None = None
    rsd_c_pct: float | None = None
    yield_pct: float | None = None

    # iv stage
    n_iv_curves: int = 0
    n_iv_fit: int = 0
    k_per_nm: float | None = None
    k_sd_per_nm: float | None = None
    barrier_ev: float | None = None
    implied_ra_mohm_um2: float | None = None

    # res stage
    n_res_records: int = 0
    ra_mohm_um2: float | None = None
    ra_s_mohm_um2: float | None = None
    sidewall_negligible: bool | None = None

    # bkd stage
    n_ramps: int = 0
    n_breakdowns: int = 0
    n_censored: int = 0
    v_bt_v: float | None = None
    v_bt_sd_v: float | None = None
    rsd_v_bt_pct: float | None = None
    weibull_shape: float | None = None
    weibull_r2: float | None = None
    e_crit_mv_cm: float | None = None
    p_knee: float | None = None
    defect_density_cm2: float | None = None

    notes: tuple[str, ...] = ()
    stage_errors: tuple[tuple[str, str], ...] = ()

    def stage_error_map(self) -> dict[str, str]:
        return dict(self.stage_errors)


def _parse_etch(wafer: dict) -> float | None:
    raw = wafer.get("etch_s")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def analyze(ds: DatasetFile, config: AnalysisConfig | None = None,
            stages: tuple[str, ...] | None = None) -> WaferReport:
    """Run the pipeline stages over one dataset and assemble a WaferReport."""
    config = config or AnalysisConfig()
    stages = tuple(stages) if stages is not None else STAGES
    for s in stages:
        if s not in STAGES:
            raise ValueError(f"unknown stage {s!r}; choose from {STAGES}")

    out: dict = {"label": ds.label, "etch_s": _parse_etch(ds.wafer),
                 "stages_run": stages}
    if config.t_ox_nm is not None:  # the cap stage then leaves the thickness alone
        out.update(t_ox_nm=config.t_ox_nm, t_ox_source="config")
    notes: list[str] = []
    errors: list[tuple[str, str]] = []
    for name, stage in _STAGES.items():
        if name in stages:
            try:
                stage(ds, config, out, notes)
            except _StageError as exc:
                errors.append((name, str(exc)))
    out["notes"] = tuple(notes)
    out["stage_errors"] = tuple(errors)
    return WaferReport(**out)


class _StageError(Exception):
    """A stage cannot run; analyze() records the message under its name."""


def _stage_cap(ds, config, out, notes) -> None:
    maps = cap_maps(ds)
    if not maps:
        raise _StageError("no capacitance records")
    rows = []
    for a, wmap in maps.items():
        try:
            st = wafer_statistics(wmap)
        except AnalysisError as exc:
            notes.append(f"cap: area {_area_text(a)} um2 skipped ({exc})")
            continue
        rows.append(AreaStats(
            area_um2=a, mean_ff=st.mean, sd_ff=st.sd, rsd_pct=st.rsd_pct,
            yield_pct=st.yield_pct, n_valid=st.n_valid, n_probed=st.n_probed,
        ))
    out["cap_by_area"] = tuple(rows)
    if not rows:
        raise _StageError("no area had enough valid cells")
    headline = max(rows, key=lambda r: (r.n_valid, r.area_um2))
    out.update(
        headline_area_um2=headline.area_um2, c_mean_ff=headline.mean_ff,
        c_sd_ff=headline.sd_ff, rsd_c_pct=headline.rsd_pct,
        yield_pct=headline.yield_pct,
    )
    if len(rows) < 3:
        raise _StageError(f"need 3 pad areas for the C/A regression, have {len(rows)}")
    try:
        reg = fit_capacitance_per_area([(r.area_um2, r.mean_ff) for r in rows])
    except AnalysisError as exc:
        raise _StageError(f"C/A regression failed: {exc}")
    out.update(
        ca_ff_per_um2=reg.ca_ff_per_um2, ca_stderr_ff_per_um2=reg.ca_stderr,
        cap_intercept_ff=reg.intercept_ff, cap_r2=reg.r2,
    )
    try:
        t_ox = oxide_thickness_from_ca(reg.ca_ff_per_um2, config.eps_r)
    except (ValueError, ArithmeticError) as exc:
        raise _StageError(f"thickness conversion failed: {exc}")
    if "t_ox_nm" not in out:  # a config thickness takes precedence
        out.update(t_ox_nm=t_ox, t_ox_source="capacitance")


def _stage_iv(ds, config, out, notes) -> None:
    curves = iv_curves(ds)
    out["n_iv_curves"] = len(curves)
    if not curves:
        raise _StageError("no I-V records")
    t_ox = out.get("t_ox_nm")
    if t_ox is None:
        raise _StageError("no oxide thickness available: run the cap stage "
                          "or set t_ox_nm in the config")
    ks = []
    for cur in curves:
        try:
            ks.append(fit_k_from_dt(
                cur, t_ox_nm=t_ox, beta=config.beta,
                slope_tol=config.slope_tol, fn_r2_min=config.fn_r2_min,
            ))
        except (AnalysisError, ValueError) as exc:
            notes.append(f"iv: die {cur.die} not fit "
                         f"({type(exc).__name__}: {exc})")
    out["n_iv_fit"] = len(ks)
    if not ks:
        raise _StageError(f"none of the {len(curves)} sweeps could be fit")
    arr = np.asarray(ks)
    k_mean = float(arr.mean())
    out["k_per_nm"] = k_mean
    out["k_sd_per_nm"] = float(arr.std(ddof=1)) if arr.size >= 2 else None
    out["barrier_ev"] = barrier_height_from_k(k_mean, beta=config.beta,
                                              m_rel=config.m_rel)
    out["implied_ra_mohm_um2"] = implied_area_resistance(k_mean, t_ox,
                                                         beta=config.beta)


def _stage_res(ds, config, out, notes) -> None:
    records = resistance_records(ds)
    out["n_res_records"] = len(records)
    if not records:
        raise _StageError("no resistance records")
    try:
        dec = decompose_resistances(records)
    except (AnalysisError, ValueError) as exc:
        raise _StageError(f"{type(exc).__name__}: {exc}")
    out.update(ra_mohm_um2=dec.ra, ra_s_mohm_um2=dec.ra_s,
               sidewall_negligible=dec.sidewall_negligible)


def _stage_bkd(ds, config, out, notes) -> None:
    n_ramps = len(ds.ramp)
    out["n_ramps"] = n_ramps
    if not n_ramps:
        raise _StageError("no ramp records")
    v_bt = np.empty(n_ramps)  # nan for a ramp that ended without breakdown
    for rows, v, i in ramp_blocks(ds):
        steps = first_jumps(i, config.jump_factor, config.jump_floor_a)
        at = np.broadcast_to(v, i.shape)[np.arange(rows.size), steps]  # v may be one row
        v_bt[rows] = np.where(steps > 0, at, np.nan)
    v_bts = v_bt[~np.isnan(v_bt)]
    censored = n_ramps - v_bts.size
    out["n_breakdowns"] = v_bts.size
    out["n_censored"] = censored
    if censored:
        notes.append(f"bkd: {censored} ramp(s) ended without breakdown")
    if v_bts.size < 2:
        raise _StageError(f"need at least 2 breakdowns for statistics, got {v_bts.size}")
    try:
        with np.errstate(over="raise"):
            mean = v_bts.mean()
            sd = v_bts.std(ddof=1)
            rsd_pct = 100.0 * sd / mean if mean else None
    except FloatingPointError as exc:
        raise _StageError(f"V_BT statistics overflow ({exc})")
    out.update(v_bt_v=float(mean), v_bt_sd_v=float(sd),
               rsd_v_bt_pct=None if rsd_pct is None else float(rsd_pct))

    t_ox = out.get("t_ox_nm")
    if t_ox is None:
        notes.append("bkd: field analysis skipped, no oxide thickness available")
        return
    area_counts = Counter(map(attrgetter("area_um2"), ds.ramp))
    if len(area_counts) > 1:
        notes.append(f"bkd: mixed ramp areas {sorted(area_counts)}, defect "
                     "density uses the most common one")
    area = max(area_counts, key=lambda a: (area_counts[a], a))
    with np.errstate(over="ignore"):  # weibull_transform refuses an inf field
        fields = field_strength(v_bts, t_ox)
    try:
        w = weibull_transform(fields)
        shape, _, r2 = fit_weibull_shape(w)
    except (AnalysisError, ValueError) as exc:
        notes.append(f"bkd: distribution analysis skipped ({exc})")
        return
    out.update(weibull_shape=shape, weibull_r2=r2)
    try:
        knee = find_transition(w)
    except NoKneeError:
        notes.append("bkd: failure distribution is single-population, "
                     "no defect transition")
        return
    except AnalysisError as exc:
        notes.append(f"bkd: transition search failed ({exc})")
        return
    out.update(
        e_crit_mv_cm=knee.e_crit, p_knee=knee.p_k,
        defect_density_cm2=critical_defect_density(knee.p_k, area),
    )


_STAGES = {"cap": _stage_cap, "iv": _stage_iv, "res": _stage_res, "bkd": _stage_bkd}
STAGES = tuple(_STAGES)  # analyze() runs the chosen ones in this order


# ----------------------------------------------------------------- rendering

def _area_text(area: float) -> str:
    """A pad area as text, distinct for distinct areas: '25', '25.0000001'."""
    text = repr(float(area))
    return text[:-2] if text.endswith(".0") else text


def _g(x, unit: str = "") -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    s = f"{x:.6g}"
    return f"{s} {unit}".rstrip()


def render_text(report: WaferReport) -> str:
    """Deterministic plain-text rendering of a WaferReport."""
    lines = [f"wafer report: {report.label or '(unlabeled)'}"]
    lines.append(f"etch time: {_g(report.etch_s, 's')}")
    lines.append("stages: " + (" ".join(report.stages_run) or "-"))
    if "cap" in report.stages_run:
        lines.append("")
        lines.append("[cap]")
        for r in report.cap_by_area:
            lines.append(
                f"  area {_area_text(r.area_um2)} um2: mean {_g(r.mean_ff, 'fF')}, "
                f"sd {_g(r.sd_ff, 'fF')}, rsd {_g(r.rsd_pct, '%')}, "
                f"yield {_g(r.yield_pct, '%')} ({r.n_valid}/{r.n_probed})"
            )
        lines.append(f"  C/A: {_g(report.ca_ff_per_um2)} +/- "
                     f"{_g(report.ca_stderr_ff_per_um2)} fF/um2")
        lines.append(f"  intercept: {_g(report.cap_intercept_ff, 'fF')} "
                     f"(r2 {_g(report.cap_r2)})")
        lines.append(f"  headline area: {_g(report.headline_area_um2, 'um2')}, "
                     f"mean {_g(report.c_mean_ff, 'fF')}, "
                     f"rsd {_g(report.rsd_c_pct, '%')}, "
                     f"yield {_g(report.yield_pct, '%')}")
        lines.append(f"  t_ox: {_g(report.t_ox_nm, 'nm')}"
                     + (f" (from {report.t_ox_source})" if report.t_ox_source else ""))
    if "iv" in report.stages_run:
        lines.append("")
        lines.append("[iv]")
        lines.append(f"  sweeps fit: {report.n_iv_fit}/{report.n_iv_curves}")
        lines.append(f"  k: {_g(report.k_per_nm)} +/- {_g(report.k_sd_per_nm)} 1/nm")
        lines.append(f"  barrier: {_g(report.barrier_ev, 'eV')}")
        lines.append(f"  implied RA: {_g(report.implied_ra_mohm_um2, 'MOhm um2')}")
    if "res" in report.stages_run:
        lines.append("")
        lines.append("[res]")
        lines.append(f"  records: {report.n_res_records}")
        lines.append(f"  RA: {_g(report.ra_mohm_um2, 'MOhm um2')}")
        lines.append(f"  RA_S: {_g(report.ra_s_mohm_um2, 'MOhm um2')}")
        lines.append(f"  sidewall negligible: {_g(report.sidewall_negligible)}")
    if "bkd" in report.stages_run:
        lines.append("")
        lines.append("[bkd]")
        lines.append(f"  ramps: {report.n_ramps}, breakdowns: "
                     f"{report.n_breakdowns}, censored: {report.n_censored}")
        lines.append(f"  V_BT: {_g(report.v_bt_v)} +/- {_g(report.v_bt_sd_v)} V "
                     f"(rsd {_g(report.rsd_v_bt_pct, '%')})")
        lines.append(f"  weibull shape: {_g(report.weibull_shape)} "
                     f"(r2 {_g(report.weibull_r2)})")
        lines.append(f"  E_crit: {_g(report.e_crit_mv_cm, 'MV/cm')} at "
                     f"P {_g(report.p_knee)}")
        lines.append(f"  defect density: {_g(report.defect_density_cm2, '1/cm2')}")
    if report.notes:
        lines.append("")
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    if report.stage_errors:
        lines.append("")
        lines.append("stage errors:")
        for stage, message in report.stage_errors:
            lines.append(f"  - {stage}: {message}")
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def render_json(report: WaferReport) -> str:
    payload = {f.name: _jsonable(getattr(report, f.name))
               for f in dataclasses.fields(report)}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------- grid files

def format_grid_cell(x: float) -> str:
    """One grid cell: positional notation with 17 significant digits.

    17 significant digits round-trip any float64 exactly.
    """
    if not math.isfinite(x):
        raise ValueError(f"grid cells must be finite, got {x}")
    return np.format_float_positional(x, precision=17, unique=False,
                                      fractional=False)


def export_wafer_grid(wmap: WaferMap, path: str) -> None:
    """Write a wafer map as comma-separated rows plus a `.meta` sidecar.

    Unprobed and dead cells are empty fields, so the file keeps the full grid
    shape.  Writes are atomic.
    """
    rows = [",".join(format_grid_cell(x) if math.isfinite(x) else "" for x in row)
            for row in wmap.values.tolist()]
    atomic_write_text(path, ["\n".join(rows) + "\n"])
    meta = [
        f"label={wmap.label}",
        f"units={wmap.units}",
        f"area_um2={float(wmap.area_um2)!r}",
        f"rows={wmap.shape[0]}",
        f"cols={wmap.shape[1]}",
        f"n_valid={wmap.n_valid}",
        f"n_probed={wmap.n_probed}",
    ]
    atomic_write_text(path + ".meta", ["\n".join(meta) + "\n"])


def load_wafer_grid(path: str) -> WaferMap:
    """Read a grid written by export_wafer_grid back into a WaferMap.

    Cells that parse as numbers are valid and probed; empty cells are
    unprobed unless the sidecar's probed count says otherwise (dead cells are
    indistinguishable from unprobed ones in the grid alone, so the map marks
    only valid cells as probed and the true counts live in the sidecar).
    """
    meta_path = path + ".meta"
    if not os.path.exists(meta_path):
        raise DatasetSchemaError(f"missing grid sidecar {meta_path}")
    meta: dict[str, str] = {}
    with open(meta_path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DatasetFormatError(f"malformed sidecar line {line!r}",
                                         line=line_no)
            meta[key] = value
    for key in ("area_um2", "rows", "cols"):
        if key not in meta:
            raise DatasetSchemaError(f"grid sidecar is missing {key!r}")
    try:
        area = float(meta["area_um2"])
        shape = (int(meta["rows"]), int(meta["cols"]))
    except ValueError:
        raise DatasetSchemaError("grid sidecar has non-numeric shape or area") from None
    if not (area > 0.0) or min(shape) < 0:
        raise DatasetSchemaError("grid sidecar needs a positive area and rows, cols "
                                 f">= 0, got {area!r} and {shape}")

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if len(lines) != shape[0]:
        raise DatasetSchemaError(
            f"grid has {len(lines)} rows, sidecar says {shape[0]}"
        )
    values = np.full(shape, np.nan)
    probed = np.zeros(shape, dtype=bool)
    for r, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != shape[1]:
            raise DatasetFormatError(
                f"row has {len(cells)} cells, sidecar says {shape[1]}",
                line=r + 1,
            )
        for c, cell in enumerate(cells):
            if cell == "":
                continue
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise DatasetFormatError(f"bad grid cell {cell!r}",
                                         line=r + 1) from None
            probed[r, c] = True
    return WaferMap(values=values, probed=probed, area_um2=area,
                    label=meta.get("label", ""), units=meta.get("units", "fF"))
