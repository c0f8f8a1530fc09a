"""Seeded synthetic wafer generator for round-trip validation.

Every random draw comes from a counter-based Philox stream keyed by
(seed, stream_id), where stream_id encodes the die position and the quantity
being drawn: stream_id = (row * 4096 + col) * 8 + tag.  The encoding does not
depend on the grid dimensions, so enlarging the grid or adding quantities
never perturbs the draws of existing dies; identical seeds give bit-identical
datasets on any platform.

Per-die quantities synthesized:

* oxide thickness: wafer mean, a mean-preserving radial bow (gradient), and
  per-die Gaussian jitter,
* plate capacitance per probed area, with relative measurement noise,
* forward I-V sweeps on the dies nearest the wafer center (ohmic channel plus
  a field-emission channel whose onset is calibrated to a chosen voltage),
* a staircase breakdown ramp per die: the junction fails at the weaker of its
  intrinsic field draw and the fields of Poisson-distributed defects, and the
  trace current jumps by four decades at the first ramp step at or above the
  failure voltage.  Pre-breakdown ramp current follows the ohmic channel
  (a field-emission term with a physical barrier is far too steep to coexist
  with the breakdown that terminates real ramps, so it is left out here),
* two resistance series (constant w_top with varying w_bot, and the reverse)
  from the two-path plate/sidewall model.

Ground truth (per-die thickness, intrinsic fields, failure voltages, defect
counts, the generating parameters) rides along in the dataset metadata as a
JSON snapshot, so analysis results can always be compared with what produced
them.  The generator writes dataset records, which a caller turns into
curves, traces or blocks with the same materializers analyze() reads a file
with; SyntheticDataset keeps no view: its cap maps are built from the
records at each access, so a caller that only saves the dataset never pays
for them and one that edits the records never reads stale maps.  It walks
the probed dies once, in row-major order: every die draws its thickness and
dead flag, and a live die its capacitance cells and ramp.  Every ramp steps
along one voltage staircase, and every I-V sweep along one voltage grid:
each is built once as an array('d') that all its records share as their v,
while every record holds its own currents.  To change one record's v, assign
it a new series rather than writing into the shared one.  The currents go
from numpy's float64 into the records' array('d') bit for bit.

One call builds one Philox generator and, before each stream's draws, resets
its state to the start of that stream: zero counter, empty buffer, key
(seed, stream_id).  That is exactly the state a fresh Philox(key=...) has
(counter-based generators are cheap to re-key; Salmon et al., SC'11), so the
draws do not depend on which stream ran before.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass

import numpy as np

from ._fields import check_finite_fields
from .breakdown import DEFAULT_RAMP_RATE_V_PER_S, DEFAULT_RAMP_STEP_V
from .capacitance import EPS_R_REFERENCE, WaferMap
from .constants import CONST, nm_to_m, um2_to_cm2, um2_to_m2, f_to_ff
from .dataset import (
    MAX_GRID,
    CapRecord,
    DatasetFile,
    IVRecord,
    RampRecord,
    ResRecordRow,
    cap_maps,
)
from .geometry import DEFAULT_BOTTOM_THICKNESS_UM, JunctionGeometry
from .resistance import junction_resistance
from .transport import (
    OxideModel,
    composite_current,
    direct_tunneling_current,
    fn_scale_for_crossover,
    implied_area_resistance,
)

__all__ = [
    "WaferSpec",
    "SyntheticDataset",
    "generate_wafer",
    "intrinsic_breakdown_field_sample",
    "bimodal_field_sample",
    "preset_spec",
    "PRESET_NAMES",
]

# stream tags per die
_TAG_THICKNESS = 0
_TAG_DEAD = 1
_TAG_CAP = 2
_TAG_IV = 3
_TAG_INTRINSIC = 4
_TAG_DEFECT = 5
_TAG_RAMP_NOISE = 6
# wafer-level streams sit beyond any die id
_WAFER_STREAM_BASE = 1 << 40
_TAG_RES = 0

_POST_JUMP_GAIN = 1e4
_POST_JUMP_FLOOR_A = 1e-6

# 14 x 14 grid masked to radius sqrt(42.5) probes exactly 140 dies
_DEFAULT_MASK_RADIUS = math.sqrt(42.5)


def _check_seed(seed) -> None:
    """A seed is a Philox key word: an int in 0..2**64-1 (else ValueError)."""
    if type(seed) is not int or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in 0..2**64-1, got {seed!r}")


def _new_rng() -> np.random.Generator:
    """A Philox generator for _stream to reset; its own seed is never drawn from."""
    return np.random.Generator(np.random.Philox(0))


def _reset(rng: np.random.Generator, seed: int, stream_id: int) -> np.random.Generator:
    """rng at the start of stream (seed, stream_id), in the state a fresh
    Philox(key=[seed, stream_id]) has: zero counter, nothing buffered."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, stream_id)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _stream(rng: np.random.Generator, seed: int, row: int, col: int,
            tag: int) -> np.random.Generator:
    # the 4096 stride is part of the determinism contract; WaferSpec keeps
    # rows and cols within MAX_GRID = 4096, so no two dies share a key
    return _reset(rng, seed, (row * 4096 + col) * 8 + tag)


def _wafer_stream(rng: np.random.Generator, seed: int, tag: int) -> np.random.Generator:
    return _reset(rng, seed, _WAFER_STREAM_BASE + tag)


def intrinsic_breakdown_field_sample(rng: np.random.Generator, mean_mv_cm: float,
                                     rsd_pct: float, size: int | None = None):
    """Gaussian field draw(s), truncated at zero by redrawing [MV/cm]."""
    if not (mean_mv_cm > 0.0):
        raise ValueError(f"mean field must be positive, got {mean_mv_cm}")
    if rsd_pct < 0.0:
        raise ValueError(f"rsd_pct must be >= 0, got {rsd_pct}")
    n = 1 if size is None else int(size)
    sd = mean_mv_cm * rsd_pct / 100.0
    out = rng.normal(mean_mv_cm, sd, size=n) if sd > 0.0 else np.full(n, mean_mv_cm)
    while True:
        bad = out <= 0.0
        if not bad.any():
            break
        out[bad] = rng.normal(mean_mv_cm, sd, size=int(bad.sum()))
    return float(out[0]) if size is None else out


def bimodal_field_sample(n: int, defect_fraction: float, defect_mean: float,
                         defect_rsd_pct: float, intrinsic_mean: float,
                         intrinsic_rsd_pct: float, seed: int = 0) -> np.ndarray:
    """Mixture of a low-field defect population and an intrinsic population.

    Exactly round(defect_fraction * n) draws come from the defect
    distribution, the remainder from the intrinsic one, so the realized
    mixture fraction is deterministic.  Returns the unsorted fields [MV/cm].
    """
    if not (0.0 <= defect_fraction <= 1.0):
        raise ValueError(f"defect_fraction must lie in [0, 1], got {defect_fraction}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_seed(seed)
    n_def = int(round(defect_fraction * n))
    rng = _wafer_stream(_new_rng(), seed, 7)
    fields = np.empty(n)
    if n_def:
        fields[:n_def] = intrinsic_breakdown_field_sample(
            rng, defect_mean, defect_rsd_pct, size=n_def
        )
    if n - n_def:
        fields[n_def:] = intrinsic_breakdown_field_sample(
            rng, intrinsic_mean, intrinsic_rsd_pct, size=n - n_def
        )
    return fields


@dataclass(frozen=True)
class WaferSpec:
    """Everything the generator needs; defaults describe the reference wafer."""

    label: str = "ref"
    etch_s: float = 0.0
    seed: int = 0
    rows: int = 14
    cols: int = 14
    mask_radius: float = _DEFAULT_MASK_RADIUS

    # film
    t_ox_nm: float = 4.4
    k_per_nm: float = 15.7
    eps_r: float = EPS_R_REFERENCE
    beta: float = 1.0
    m_rel: float = 0.75
    thickness_gradient_pct: float = 0.0
    thickness_jitter_pct: float = 0.0

    # measurement noise, relative percent
    cap_noise_pct: float = 0.0
    iv_noise_pct: float = 0.0
    res_noise_pct: float = 0.0
    dead_die_rate: float = 0.0

    # capacitance probing
    cap_areas_um2: tuple[float, ...] = (1.0, 25.0, 50.0, 100.0, 400.0, 1600.0)

    # I-V sweeps
    iv_area_um2: float = 25.0
    n_iv_dies: int = 5
    iv_v_min: float = 0.01
    iv_v_max: float = 2.5
    iv_points: int = 61
    fn_crossover_v: float | None = 1.0

    # resistance series
    res_h_um: float = DEFAULT_BOTTOM_THICKNESS_UM
    res_w_top_um: float = 5.0
    res_w_bot_series_um: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0)
    res_w_bot_um: float = 5.0
    res_w_top_series_um: tuple[float, ...] = (0.35, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
    ra_mohm_um2: float | None = None        # None: implied by (k, t_ox)
    ra_s_mohm_um2: float | None = None      # None: implied by k_sidewall
    k_sidewall_per_nm: float | None = None  # None: same as k_per_nm

    # breakdown ramps
    ramp_area_um2: float = 25.0
    ramp_step_v: float = DEFAULT_RAMP_STEP_V
    ramp_rate_v_per_s: float = DEFAULT_RAMP_RATE_V_PER_S
    ramp_v_max: float = 3.0
    intrinsic_field_mv_cm: float = 4.954545454545455
    intrinsic_field_rsd_pct: float = 3.0
    defect_density_cm2: float = 70.0
    defect_field_mv_cm: float = 3.2
    defect_field_rsd_pct: float = 15.0

    def __post_init__(self):
        _check_seed(self.seed)
        check_finite_fields(self)
        if not (1 <= self.rows <= MAX_GRID and 1 <= self.cols <= MAX_GRID):
            raise ValueError(f"rows and cols must lie in 1..{MAX_GRID}")
        if len(set(self.cap_areas_um2)) != len(self.cap_areas_um2):
            raise ValueError(f"cap_areas_um2 repeats an area: {self.cap_areas_um2}")
        if not (self.t_ox_nm > 0.0 and self.k_per_nm > 0.0):
            raise ValueError("t_ox and k must be positive")
        if self.n_iv_dies < 0:
            raise ValueError(f"n_iv_dies must be >= 0, got {self.n_iv_dies}")
        if not (0.0 <= self.dead_die_rate < 1.0):
            raise ValueError(f"dead_die_rate must lie in [0, 1), got {self.dead_die_rate}")
        if self.thickness_jitter_pct < 0 or self.cap_noise_pct < 0 \
                or self.iv_noise_pct < 0 or self.res_noise_pct < 0:
            raise ValueError("noise percentages must be >= 0")
        if not (self.ramp_v_max > self.ramp_step_v > 0.0):
            raise ValueError("ramp needs 0 < step < v_max")
        if self.defect_density_cm2 < 0.0:
            raise ValueError("defect density must be >= 0")


# reference and etch-series presets: thickness, tunneling constant and mean
# failure voltage move together the way the etch series moves them
_PRESETS: dict[str, dict] = {
    "ref": dict(label="ref", etch_s=0.0, t_ox_nm=4.4, k_per_nm=15.7,
                intrinsic_field_mv_cm=10.0 * 2.18 / 4.4, defect_density_cm2=70.0),
    "etch10": dict(label="etch10", etch_s=10.0, t_ox_nm=3.5, k_per_nm=17.8,
                   intrinsic_field_mv_cm=10.0 * 1.66 / 3.5, defect_density_cm2=1700.0),
    "etch20": dict(label="etch20", etch_s=20.0, t_ox_nm=3.3, k_per_nm=18.4,
                   intrinsic_field_mv_cm=10.0 * 1.56 / 3.3, defect_density_cm2=2100.0),
    "etch30": dict(label="etch30", etch_s=30.0, t_ox_nm=3.1, k_per_nm=19.3,
                   intrinsic_field_mv_cm=10.0 * 1.51 / 3.1, defect_density_cm2=5500.0),
}
PRESET_NAMES = tuple(_PRESETS)

_PRESET_NOISE = dict(
    thickness_jitter_pct=1.0,
    cap_noise_pct=2.0,
    iv_noise_pct=1.0,
    res_noise_pct=1.0,
    dead_die_rate=2.0 / 140.0,
)


def preset_spec(name: str, seed: int = 0, **overrides) -> WaferSpec:
    """WaferSpec for one of the etch-series presets, with realistic noise."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    kwargs = dict(_PRESETS[name])
    kwargs.update(_PRESET_NOISE)
    kwargs.update(overrides, seed=seed)
    return WaferSpec(**kwargs)


@dataclass
class SyntheticDataset:
    """Result of generate_wafer: the spec it ran, the ground truth it drew,
    and the dataset records it wrote, which analyze() reads through the
    dataset module's materializers (cap_maps, iv_curves, ramp_blocks,
    resistance_records) as it reads a loaded file.

    maps, one WaferMap per probed area in spec order, is built by cap_maps
    at each access, so it shows the records as they are then; the
    benchmark's grid checks read it.
    """

    spec: WaferSpec
    ground_truth: dict
    dataset: DatasetFile

    @property
    def maps(self) -> dict[float, WaferMap]:
        maps = cap_maps(self.dataset)
        return {a: maps[a] for a in map(float, self.spec.cap_areas_um2)}


def _nan_to_none(grid: np.ndarray) -> list:
    return [[x if math.isfinite(x) else None for x in row] for row in grid.tolist()]


def _relative_noise(rng: np.random.Generator, pct: float, size) -> np.ndarray:
    if pct == 0.0:
        return np.ones(size)
    return 1.0 + rng.normal(0.0, pct / 100.0, size=size)


def generate_wafer(spec: WaferSpec) -> SyntheticDataset:
    """Synthesize one wafer dataset from the spec; fully deterministic in seed."""
    rows, cols, seed = spec.rows, spec.cols, spec.seed
    r0, c0 = (rows - 1) / 2.0, (cols - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    dist2 = (rr - r0) ** 2 + (cc - c0) ** 2
    probed = dist2 <= spec.mask_radius**2 + 1e-9
    if not probed.any():
        raise ValueError("mask radius leaves no probed dies")
    r2norm = dist2 / max(spec.mask_radius**2, 1.0)
    bow = r2norm - r2norm[probed].mean()

    areas = tuple(float(a) for a in spec.cap_areas_um2)
    eps_area = spec.eps_r * CONST.eps0 * um2_to_m2(np.array(areas))  # C = eps_area / t
    n_steps = int(round(spec.ramp_v_max / spec.ramp_step_v))
    v_ramp = spec.ramp_step_v * np.arange(1, n_steps + 1)
    staircase = array("d", v_ramp.tobytes())
    area_cm2 = um2_to_cm2(spec.ramp_area_um2)

    t_map = np.full((rows, cols), np.nan)
    dead = np.zeros((rows, cols), dtype=bool)
    cap_values = np.full((len(areas), rows, cols), np.nan)
    e_int_map = np.full((rows, cols), np.nan)
    v_bt_map = np.full((rows, cols), np.nan)
    defect_count_map = np.full((rows, cols), -1, dtype=int)
    ramp = []
    rng = _new_rng()
    probed_rows, probed_cols = (idx.tolist() for idx in np.nonzero(probed))
    for r, c in zip(probed_rows, probed_cols):
        # thickness: radial bow and per-die jitter
        z = _stream(rng, seed, r, c, _TAG_THICKNESS).normal()
        jitter = 1.0 + spec.thickness_jitter_pct / 100.0 * z
        t = spec.t_ox_nm * (1.0 + spec.thickness_gradient_pct / 100.0 * bow[r, c]) * jitter
        t = t_map[r, c] = float(max(t, 0.05 * spec.t_ox_nm))
        dead[r, c] = _stream(rng, seed, r, c, _TAG_DEAD).uniform() < spec.dead_die_rate
        if dead[r, c]:
            continue

        # capacitance, one cell per probed area
        noise = _relative_noise(
            _stream(rng, seed, r, c, _TAG_CAP), spec.cap_noise_pct, len(areas)
        )
        cap_values[:, r, c] = f_to_ff(eps_area / nm_to_m(t)) * noise

        # breakdown ramp: weakest link of intrinsic film and Poisson defects
        e_int = intrinsic_breakdown_field_sample(
            _stream(rng, seed, r, c, _TAG_INTRINSIC),
            spec.intrinsic_field_mv_cm, spec.intrinsic_field_rsd_pct,
        )
        defect_rng = _stream(rng, seed, r, c, _TAG_DEFECT)
        n_def = int(defect_rng.poisson(spec.defect_density_cm2 * area_cm2))
        e_fail = e_int
        if n_def:
            e_defects = intrinsic_breakdown_field_sample(
                defect_rng, spec.defect_field_mv_cm,
                spec.defect_field_rsd_pct, size=n_def,
            )
            e_fail = min(e_fail, float(e_defects.min()))
        e_int_map[r, c] = e_int
        defect_count_map[r, c] = n_def
        v_fail = e_fail * t / 10.0  # MV/cm * nm -> V

        die_model = OxideModel(
            t_ox=t, k=spec.k_per_nm, eps_r=spec.eps_r,
            beta=spec.beta, m_rel=spec.m_rel,
        )
        i = direct_tunneling_current(v_ramp, spec.ramp_area_um2, die_model)
        jump_at = int(np.searchsorted(v_ramp, v_fail - 1e-12, side="left"))
        if jump_at < n_steps:
            i = i.copy()
            i[jump_at:] = i[jump_at:] * _POST_JUMP_GAIN + _POST_JUMP_FLOOR_A
            v_bt_map[r, c] = v_ramp[jump_at]
        i = i * _relative_noise(_stream(rng, seed, r, c, _TAG_RAMP_NOISE),
                                spec.iv_noise_pct, n_steps)
        ramp.append(RampRecord(row=r, col=c, area_um2=spec.ramp_area_um2,
                               step_v=spec.ramp_step_v,
                               rate_v_per_s=spec.ramp_rate_v_per_s,
                               v=staircase, i=array("d", i.tobytes())))

    cap = [
        CapRecord(row=r, col=c, area_um2=areas[k], c_ff=x if math.isfinite(x) else None)
        for k in np.argsort(areas)
        for r, c, x in zip(probed_rows, probed_cols, cap_values[k][probed].tolist())
    ]

    # model shared by I-V synthesis; the field-emission prefactor is
    # calibrated once at the wafer-mean thickness
    base_model = OxideModel(
        t_ox=spec.t_ox_nm, k=spec.k_per_nm, eps_r=spec.eps_r,
        beta=spec.beta, m_rel=spec.m_rel,
    )
    if spec.fn_crossover_v is not None:
        fn_scale = fn_scale_for_crossover(base_model, spec.iv_area_um2,
                                          spec.fn_crossover_v)
    else:
        fn_scale = 0.0

    # I-V sweeps on the live dies nearest the center
    live = probed & ~dead
    order = sorted(zip(dist2[live].tolist(), *(idx.tolist() for idx in np.nonzero(live))))
    v_sweep = np.geomspace(spec.iv_v_min, spec.iv_v_max, spec.iv_points)
    sweep = array("d", v_sweep.tobytes())
    iv = []
    for _, r, c in order[: spec.n_iv_dies]:
        die_model = OxideModel(
            t_ox=float(t_map[r, c]), k=spec.k_per_nm, eps_r=spec.eps_r,
            beta=spec.beta, m_rel=spec.m_rel, fn_scale=fn_scale,
        )
        i = composite_current(v_sweep, spec.iv_area_um2, die_model)
        i = i * _relative_noise(_stream(rng, seed, r, c, _TAG_IV), spec.iv_noise_pct,
                                v_sweep.size)
        iv.append(IVRecord(row=r, col=c, area_um2=spec.iv_area_um2,
                           v=sweep, i=array("d", i.tobytes())))

    # resistance series from the two-path model at wafer-mean thickness
    ra_true = spec.ra_mohm_um2
    if ra_true is None:
        ra_true = implied_area_resistance(spec.k_per_nm, spec.t_ox_nm, spec.beta)
    ras_true = spec.ra_s_mohm_um2
    if ras_true is None:
        k_side = spec.k_sidewall_per_nm if spec.k_sidewall_per_nm is not None else spec.k_per_nm
        ras_true = implied_area_resistance(k_side, spec.t_ox_nm, spec.beta)
    geoms = [JunctionGeometry(w_top=spec.res_w_top_um, w_bot=w, h=spec.res_h_um)
             for w in spec.res_w_bot_series_um]
    geoms += [JunctionGeometry(w_top=w, w_bot=spec.res_w_bot_um, h=spec.res_h_um)
              for w in spec.res_w_top_series_um]
    res_noise = _relative_noise(_wafer_stream(rng, seed, _TAG_RES), spec.res_noise_pct,
                                len(geoms))
    res = [
        ResRecordRow(w_top_um=g.w_top, w_bot_um=g.w_bot, h_um=g.h,
                     r_mohm=junction_resistance(g, ra_true, ras_true) * nz)
        for g, nz in zip(geoms, res_noise.tolist())
    ]

    spec_dict = asdict(spec)
    for key, value in spec_dict.items():
        if isinstance(value, tuple):
            spec_dict[key] = list(value)
    ground_truth = {
        "spec": spec_dict,
        "ra_mohm_um2": ra_true,
        "ra_s_mohm_um2": ras_true,
        "fn_scale": fn_scale,
        "t_ox_map_nm": _nan_to_none(t_map),
        "intrinsic_field_map_mv_cm": _nan_to_none(e_int_map),
        "v_bt_map_v": _nan_to_none(v_bt_map),
        "defect_count_map": defect_count_map.tolist(),
        "probed_map": probed.tolist(),
        "dead_map": dead.tolist(),
    }

    wafer = {
        "label": spec.label,
        "etch_s": repr(float(spec.etch_s)),
        "rows": str(spec.rows),
        "cols": str(spec.cols),
    }
    meta = {
        "generator": "jjwafer-synthetic",
        "seed": str(spec.seed),
        "ground_truth": json.dumps(ground_truth, sort_keys=True),
    }
    dataset = DatasetFile(wafer=wafer, meta=meta, cap=cap, iv=iv, res=res, ramp=ramp)
    return SyntheticDataset(spec=spec, ground_truth=ground_truth, dataset=dataset)
