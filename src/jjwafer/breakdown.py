"""Dielectric breakdown: ramp traces, Weibull statistics, defect density.

Breakdown voltages come from staircase voltage ramps (default 10 mV steps at
0.07 V/s): the breakdown voltage is the first step whose current exceeds
jump_factor times the larger of the previous current and a noise floor.

Field values E = V_bt / t_ox (in MV/cm) from many junctions are ranked with
mean plotting positions P_i = i / (n + 1) and drawn as y = ln(-ln(1 - P))
against E.  A homogeneous (weakest-link) failure population is a straight
line on this plot; an extrinsic defect population shows up as a second,
shallower branch at low fields, and the transition point separates the two.
find_transition locates it with the best two-segment least-squares fit: the
error of every split comes from prefix sums at once, and the few splits
within rounding distance of the best are refit exactly.  The empirical
probability at the transition feeds the Poisson defect-density estimate
D = -ln(1 - P_k) / A.

A wafer's ramps are analyzed as one (ramps, steps) block: ramp_faults, the
one implementation of a ramp's series rules, gives every row a fault code
(RampTrace raises on the code of its one row), and first_jumps finds every
row's breakdown step; detect_breakdown is first_jumps on one trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fit import fit_line
from .constants import um2_to_cm2
from .errors import (
    InsufficientDataError,
    NoBreakdownError,
    NoKneeError,
)
from .transport import series_message, sweep_arrays, sweep_faults

__all__ = [
    "RampTrace",
    "BreakdownRecord",
    "WeibullAnalysis",
    "KneeFit",
    "detect_breakdown",
    "first_jumps",
    "weibull_transform",
    "fit_weibull_shape",
    "find_transition",
    "critical_defect_density",
    "ramp_faults",
    "jump_steps",
    "DEFAULT_RAMP_STEP_V",
    "DEFAULT_RAMP_RATE_V_PER_S",
    "DEFAULT_JUMP_FACTOR",
    "DEFAULT_JUMP_FLOOR_A",
]

DEFAULT_RAMP_STEP_V = 0.01
DEFAULT_RAMP_RATE_V_PER_S = 0.07
DEFAULT_JUMP_FACTOR = 10.0
DEFAULT_JUMP_FLOOR_A = 1e-9  # 1 nA: noise around zero never counts as a jump

_MIN_SEGMENT = 5        # knee fit: points required on each side
_KNEE_GAIN = 0.20       # two-segment SSE must undercut the single line by this
_KNEE_SLOPE_RATIO = 2.0  # intrinsic wall must be this much steeper than the tail
_MIN_WEIBULL_N = 10
_MIN_TRANSITION_N = 20  # two segments need support
_STEP_TOL = 0.01        # the instrument occasionally drops a rounding digit
_EPS = float(np.finfo(float).eps)
_SAFE_MIN, _SAFE_MAX = 2.0**-400, 2.0**400  # squares stay normal floats


def ramp_faults(v: np.ndarray, i: np.ndarray, step_v) -> np.ndarray:
    """Per row of a (ramps, steps) block of v and i, 0 if it keeps a ramp's
    series rules, else the fault code of the first it breaks: those of
    transport.sweep_faults, then code 6, every step within 1% of the row's
    mean step and that within 1% of the row's declared step in step_v.  v
    may be one row that every ramp shares."""
    codes = sweep_faults(v, i)
    if v.shape[1] < 2:
        return codes
    # a row already at fault may overflow or turn to nan in the step rule
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(v, axis=1)
        mean = steps.mean(axis=1)
        np.subtract(steps, mean[:, np.newaxis], out=steps)
        np.abs(steps, out=steps)
        uneven = ((steps.max(axis=1) > _STEP_TOL * mean)
                  | (np.abs(mean - step_v) > _STEP_TOL * step_v))
    codes[(codes == 0) & uneven] = 6
    return codes


@dataclass(frozen=True)
class RampTrace:
    """A staircase voltage ramp on one junction.

    v : step voltages [V], strictly increasing in constant steps of step_v
        (see ramp_faults)
    i : measured currents [A], finite
    """

    v: np.ndarray
    i: np.ndarray
    area_um2: float
    die: tuple[int, int] | None = None
    step_v: float = DEFAULT_RAMP_STEP_V
    rate_v_per_s: float = DEFAULT_RAMP_RATE_V_PER_S

    def __post_init__(self):
        v, i = sweep_arrays(self.v, self.i)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "i", i)
        if code := ramp_faults(v[np.newaxis], i[np.newaxis], self.step_v)[0]:
            raise ValueError(series_message(code, v.size))
        if not (self.area_um2 > 0.0):
            raise ValueError(f"area_um2 must be positive, got {self.area_um2}")


@dataclass(frozen=True)
class BreakdownRecord:
    """Detected breakdown event.

    v_bt  : breakdown voltage, the ramp grid point at the jump [V]
    index : step index of the jump
    hard  : True when the current never recovers below the jump threshold
            afterwards (a jump on the final step is trivially hard)
    """

    v_bt: float
    index: int
    hard: bool


def _jumps(i: np.ndarray, jump_factor: float, floor: float) -> np.ndarray:
    """i[..., n] > jump_factor * max(i[..., n-1], floor) for n >= 1, along
    the last axis.  The one jump rule, shared by ramp breakdown detection and
    I-V segmentation.  A threshold that overflows to inf is never cleared."""
    threshold = np.maximum(i[..., :-1], floor)
    with np.errstate(over="ignore"):
        threshold *= jump_factor
    return i[..., 1:] > threshold


def jump_steps(i: np.ndarray, jump_factor: float, floor: float) -> np.ndarray:
    """Indices n >= 1 at which i[n] > jump_factor * max(i[n-1], floor)."""
    return np.nonzero(_jumps(i, jump_factor, floor))[0] + 1


def first_jumps(i: np.ndarray, jump_factor: float, floor: float) -> np.ndarray:
    """Per row of the (ramps, steps) current block i, the first of its
    jump_steps, or 0 where the row has none."""
    jumps = _jumps(i, jump_factor, floor)
    return np.where(jumps.any(axis=1), jumps.argmax(axis=1) + 1, 0)


def detect_breakdown(trace: RampTrace, jump_factor: float = DEFAULT_JUMP_FACTOR,
                     floor: float = DEFAULT_JUMP_FLOOR_A) -> BreakdownRecord:
    """First current jump in a ramp trace (first_jumps of its one row).

    Raising jump_factor can only move the detection to a later step, never an
    earlier one.  Raises NoBreakdownError when no step qualifies.
    """
    if not (jump_factor > 1.0):
        raise ValueError(f"jump_factor must exceed 1, got {jump_factor}")
    if not (floor > 0.0):
        raise ValueError(f"floor must be positive, got {floor}")
    i = trace.i
    n = int(first_jumps(i[np.newaxis], jump_factor, floor)[0])
    if not n:
        raise NoBreakdownError(
            f"no current jump above factor {jump_factor} within the ramp"
        )
    threshold = jump_factor * max(i[n - 1], floor)
    hard = bool(np.all(i[n:] >= threshold))
    return BreakdownRecord(v_bt=float(trace.v[n]), index=n, hard=hard)


@dataclass(frozen=True)
class WeibullAnalysis:
    """Ranked breakdown fields with mean plotting positions.

    e : fields sorted ascending [MV/cm]
    p : plotting positions i / (n + 1)
    y : ln(-ln(1 - p))
    """

    e: np.ndarray
    p: np.ndarray
    y: np.ndarray


def weibull_transform(e_values) -> WeibullAnalysis:
    """Rank fields and compute the linearizing transform.

    Needs at least 10 finite positive values; fewer cannot support the
    two-segment transition search downstream.
    """
    e = np.asarray(list(e_values), dtype=float)
    if e.size < _MIN_WEIBULL_N:
        raise InsufficientDataError(
            f"need at least {_MIN_WEIBULL_N} values, got {e.size}"
        )
    if not np.all(np.isfinite(e)) or not np.all(e > 0.0):
        raise ValueError("breakdown fields must be finite and positive")
    e = np.sort(e)
    n = e.size
    p = np.arange(1, n + 1) / (n + 1.0)
    y = np.log(-np.log1p(-p))
    return WeibullAnalysis(e=e, p=p, y=y)


def fit_weibull_shape(w: WeibullAnalysis) -> tuple[float, float, float]:
    """OLS line through (ln e, y): returns (shape, scale, r_squared).

    For a single Weibull population y = shape * (ln e - ln scale).
    """
    line = fit_line(np.log(w.e), w.y)
    if line.sxx == 0.0:
        raise InsufficientDataError("all fields equal; shape is undefined")
    shape = line.slope
    scale = math.exp(-line.intercept / shape) if shape != 0.0 else math.inf
    return shape, scale, line.r2


@dataclass(frozen=True)
class KneeFit:
    """Two-population transition on the Weibull plot.

    e_crit     : first field of the steep intrinsic branch [MV/cm]
    p_k        : empirical probability at the last point of the shallow branch
    index      : sample index of the last shallow-branch point
    left_slope, right_slope : segment slopes in y per (MV/cm)
    sse_two, sse_one : squared-error of the two-segment and single-line fits
    """

    e_crit: float
    p_k: float
    index: int
    left_slope: float
    right_slope: float
    sse_two: float
    sse_one: float


def _near_best_splits(e: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Splits j (low branch e[:j+1], at least _MIN_SEGMENT points per side)
    whose two-segment fit_line error may be the smallest, ascending.

    Each branch's error syy - sxy**2 / sxx comes from prefix sums of the
    centred points (Bai & Perron, J. Appl. Econ. 18:1, 2003), with a bound
    on how far rounding can put it from fit_line's: the rounding of the sums
    and of the centring, which grows as a branch gets flat and is unbounded
    for a flat one, plus that of fit_line's residuals.  A split whose error
    minus its bound exceeds the smallest error plus bound cannot be
    fit_line's best.  The bounds are worst cases with a factor of 8 to spare.
    Outside 2**-400 .. 2**400, where fit_line's squares may leave the float
    range, every split is returned.
    """
    n = e.size
    splits = np.arange(_MIN_SEGMENT - 1, n - _MIN_SEGMENT)
    scales = np.max(np.abs(e)), np.max(np.abs(y))
    if not all(_SAFE_MIN < s < _SAFE_MAX for s in scales):
        return splits
    # powers of two scale exactly: both axes peak in [0.5, 1), so centring
    # moves a point by less than 1 and rounds it by less than d
    x, y = (np.ldexp(a, -np.frexp(s)[1]) for a, s in zip((e, y), scales))
    d = 8.0 * _EPS
    x = x - x.mean()
    y = y - y.mean()
    sums = np.cumsum(np.column_stack((np.ones(n), x, y, x * x, x * y, y * y)),
                     axis=0)
    total = sums[-1]
    low = sums[splits]
    gamma = 8.0 * n * math.sqrt(n) * _EPS  # a prefix sum adds up to n terms
    sum_xx, sum_yy = gamma * total[3], gamma * total[5]
    sum_xy = gamma * math.sqrt(total[3] * total[5])
    sse = np.zeros(splits.size)
    err = np.zeros(splits.size)
    for branch in (low, total - low):
        k, sx, sy, sxx, sxy, syy = branch.T
        sxx = sxx - sx * sx / k
        sxy = sxy - sx * sy / k
        syy = syy - sy * sy / k
        rx = np.sqrt(k * np.maximum(sxx, 0.0))
        ry = np.sqrt(k * np.maximum(syy, 0.0))
        err_xx = sum_xx + d * (2.0 * rx + k * d)
        err_xy = sum_xy + d * (rx + ry + k * d)
        err_yy = sum_yy + d * (2.0 * ry + k * d)
        flat = sxx <= 2.0 * err_xx
        sxx[flat] = np.inf
        explained = sxy * sxy / sxx
        branch_sse = syy - explained
        sse += branch_sse
        err += ((2.0 * np.abs(sxy) * err_xy + err_xy * err_xy
                 + explained * err_xx) / (sxx - err_xx) + err_yy)
        # fit_line's residuals y - b - a x: every term is below m
        m = 2.0 * (1.0 + np.abs(sxy / sxx))
        rr = np.sqrt(k * np.maximum(branch_sse, 0.0))
        err += 8.0 * _EPS * (m * rr + k * _EPS * m * m + rr * rr)
        err[flat] = np.inf
    return splits[sse - err <= np.min(sse + err)]


def find_transition(w: WeibullAnalysis) -> KneeFit:
    """Locate the defect-to-intrinsic transition on the Weibull plot.

    Of every split with at least 5 points per side, keeps the one whose
    independent least-squares lines through the low branch y[:j+1] and the
    high branch y[j+1:] against E leave the smallest total squared error
    (the first such split on a tie).  _near_best_splits gives every split's
    error from prefix sums in one pass, with a bound on its rounding; only
    the splits that bound cannot rule out are refit with fit_line, in
    order, so the result is that of refitting every split.  A genuine
    transition must satisfy all of:

    * the two-segment error undercuts the single straight line by at least
      20% (a homogeneous population gains little from a second segment), and
    * the high branch is at least twice as steep as the low branch: a defect
      tail rises gently across a wide field range, the intrinsic wall is
      steep and narrow.  The slope condition rejects the smooth concave
      curvature every unimodal sample shows on these axes, which the error
      criterion alone does not (heavy weakest-link lower tails can still
      mimic a short defect branch on occasion; unimodal Gaussian-like
      populations are rejected reliably).

    e_crit is the first point of the steep branch, the field where the
    intrinsic population takes over; p_k is the empirical probability at the
    last point of the shallow branch.  Raises NoKneeError when any condition
    fails.
    """
    e, y, p = w.e, w.y, w.p
    n = e.size
    if n < _MIN_TRANSITION_N:
        raise InsufficientDataError(
            f"need at least {_MIN_TRANSITION_N} points, got {n}"
        )
    sse_one = fit_line(e, y).sse

    best = None
    for j in _near_best_splits(e, y).tolist():
        lo = fit_line(e[: j + 1], y[: j + 1])
        hi = fit_line(e[j + 1 :], y[j + 1 :])
        sse = lo.sse + hi.sse
        if best is None or sse < best[0]:
            best = (sse, j, lo.slope, hi.slope)

    sse_two, j, slope_lo, slope_hi = best
    if sse_one == 0.0 or sse_two > (1.0 - _KNEE_GAIN) * sse_one:
        raise NoKneeError(
            "two-segment fit does not improve on a single line by "
            f"{100 * _KNEE_GAIN:.0f}%; the population looks homogeneous"
        )
    if not (slope_hi > slope_lo and
            (slope_lo <= 0.0 or slope_hi >= _KNEE_SLOPE_RATIO * slope_lo)):
        raise NoKneeError(
            "best split lacks the shallow-tail-to-steep-wall structure of a "
            "defect-to-intrinsic transition"
        )
    # last sample of the shallow branch (duplicates of e[j] included)
    last_left = int(np.searchsorted(e, e[j], side="right") - 1)
    return KneeFit(
        e_crit=float(e[j + 1]),
        p_k=float(p[last_left]),
        index=j,
        left_slope=slope_lo,
        right_slope=slope_hi,
        sse_two=sse_two,
        sse_one=sse_one,
    )


def critical_defect_density(p_k: float, area_um2: float) -> float:
    """Areal defect density [1/cm^2] from the transition probability.

    Poisson weakest-link model: a junction of area A fails extrinsically when
    it contains at least one defect, so P_k = 1 - exp(-D A) and
    D = -ln(1 - P_k) / A.  The area is the tested junction area; densities
    quoted for other effective areas scale accordingly and that choice is the
    caller's.
    """
    if not (0.0 < p_k < 1.0):
        raise ValueError(f"P_k must lie in (0, 1), got {p_k}")
    if not (area_um2 > 0.0):
        raise ValueError(f"area must be positive, got {area_um2}")
    return -math.log1p(-p_k) / um2_to_cm2(area_um2)
