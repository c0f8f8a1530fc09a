"""Dielectric breakdown: ramp traces, Weibull statistics, defect density.

Breakdown voltages come from staircase voltage ramps (default 10 mV steps at
0.07 V/s): the breakdown voltage is the first step whose current exceeds
jump_factor times the larger of the previous current and a noise floor.

Field values E = V_bt / t_ox (in MV/cm) from many junctions are ranked with
mean plotting positions P_i = i / (n + 1) and drawn as y = ln(-ln(1 - P))
against E.  A homogeneous (weakest-link) failure population is a straight
line on this plot; an extrinsic defect population shows up as a second,
shallower branch at low fields, and the transition point separates the two.
find_transition locates it with a continuous two-segment linear fit; the
empirical probability at the transition feeds the Poisson defect-density
estimate D = -ln(1 - P_k) / A.
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
from .transport import sweep_arrays

__all__ = [
    "RampTrace",
    "BreakdownRecord",
    "WeibullAnalysis",
    "KneeFit",
    "detect_breakdown",
    "weibull_transform",
    "fit_weibull_shape",
    "find_transition",
    "critical_defect_density",
    "check_ramp_steps",
    "DEFAULT_RAMP_STEP_V",
    "DEFAULT_RAMP_RATE_V_PER_S",
]

DEFAULT_RAMP_STEP_V = 0.01
DEFAULT_RAMP_RATE_V_PER_S = 0.07

_MIN_SEGMENT = 5        # knee fit: points required on each side
_KNEE_GAIN = 0.20       # two-segment SSE must undercut the single line by this
_KNEE_SLOPE_RATIO = 2.0  # intrinsic wall must be this much steeper than the tail
_MIN_WEIBULL_N = 10
_MIN_TRANSITION_N = 20  # two segments need support
_STEP_TOL = 0.01        # the instrument occasionally drops a rounding digit


def check_ramp_steps(v: np.ndarray, step_v: float) -> None:
    """The one ramp-step rule, shared by RampTrace and the dataset readers:
    every step of the increasing voltages v lies within 1% of their mean,
    and the mean within 1% of the declared step_v (else ValueError)."""
    steps = np.diff(v)
    mean = steps.mean()
    if (np.max(np.abs(steps - mean)) > _STEP_TOL * mean
            or abs(mean - step_v) > _STEP_TOL * step_v):
        raise ValueError("ramp voltages must advance in constant steps of step_v "
                         "(within 1%)")


@dataclass(frozen=True)
class RampTrace:
    """A staircase voltage ramp on one junction.

    v : step voltages [V], strictly increasing in constant steps of step_v
        (see check_ramp_steps)
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
        check_ramp_steps(v, self.step_v)
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


def detect_breakdown(trace: RampTrace, jump_factor: float = 10.0,
                     floor: float = 1e-9) -> BreakdownRecord:
    """First current jump in a ramp trace.

    The jump criterion at step n is i[n] > jump_factor * max(i[n-1], floor);
    the floor (default 1 nA) keeps noise around zero from triggering.
    Raising jump_factor can only move the detection to a later step, never an
    earlier one.  Raises NoBreakdownError when no step qualifies.
    """
    if not (jump_factor > 1.0):
        raise ValueError(f"jump_factor must exceed 1, got {jump_factor}")
    if not (floor > 0.0):
        raise ValueError(f"floor must be positive, got {floor}")
    i = trace.i
    for n in range(1, i.size):
        threshold = jump_factor * max(i[n - 1], floor)
        if i[n] > threshold:
            hard = bool(np.all(i[n:] >= threshold))
            return BreakdownRecord(v_bt=float(trace.v[n]), index=n, hard=hard)
    raise NoBreakdownError(
        f"no current jump above factor {jump_factor} within the ramp"
    )


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


def find_transition(w: WeibullAnalysis) -> KneeFit:
    """Locate the defect-to-intrinsic transition on the Weibull plot.

    Scans every split with at least 5 points per side, fitting independent
    least-squares lines to the low branch y[:j+1] and the high branch
    y[j+1:] against E, and keeps the split with the smallest total squared
    error.  A genuine transition must satisfy all of:

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
    for j in range(_MIN_SEGMENT - 1, n - _MIN_SEGMENT):
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
