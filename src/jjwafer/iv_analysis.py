"""Regime segmentation and parameter extraction from forward I-V sweeps.

A forward sweep of a healthy junction has up to three regions: an ohmic
direct-tunneling window at low bias, an intermediate region, and a
field-emission window at high bias.  Post-breakdown points are labeled
separately and excluded from both windows.

Breakdown on a sweep cannot be flagged by the per-step current ratio alone:
on a coarse geometric voltage grid the field-emission channel itself can grow
by far more than any sane factor per step.  A step that clears the ratio
threshold is therefore only accepted as breakdown when the trend just after
it cannot account for the rise; a smooth channel sustains nearly the same
log-log slope on the following step, while a failed device relaxes to a
shallow post-failure characteristic.

Segmentation works on the log-log local slope: centered differences of
(ln v, ln i), smoothed with a 5-point moving mean.  The ohmic window is the
first run of at least 4 points whose smoothed slope stays within
1 +- slope_tol; it must begin at the low-voltage end (a start offset up to the
smoothing half-width is tolerated), and interior dropouts of at most two
points are bridged since noise, not a regime change, produces them.  The field-emission window is the longest
pre-breakdown suffix on which ln(i/v^2) against 1/v is affine, judged by
R^2 >= fn_r2_min with a negative slope.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._fit import Line, fit_line
from .breakdown import DEFAULT_JUMP_FACTOR, DEFAULT_JUMP_FLOOR_A, jump_steps
from .constants import CONST, DEFAULT_BETA, direct_tunneling_prefactor, nm_to_m, um2_to_m2
from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NoDTWindowError,
    NoFNWindowError,
    NoRootError,
)

__all__ = [
    "Regime",
    "RegimeSegmentation",
    "segment_regimes",
    "fit_k_from_dt",
    "fit_msclc_exponent",
    "fit_fn_slope",
    "barrier_height_from_fn_slope",
]

_MIN_RUN = 4          # minimum points for either window
_START_MARGIN = 2     # ohmic run may start this many points into the sweep
_SMOOTH = 5           # moving-mean width for local slopes
# A jump is breakdown only if the next step's log-log slope falls below this
# fraction of the jump's own slope.  A smooth channel keeps >= 1/(grid ratio)
# of its slope from one step to the next; a broken device drops to ~1.
_JUMP_SLOPE_VETO = 0.3
# Gaps of up to this many out-of-band points inside an otherwise qualifying
# ohmic run are bridged: measurement noise produces isolated dropouts, while
# a regime change pushes the smoothed slope out of band and keeps it there.
_BRIDGE_MAX = 2


class Regime(enum.IntEnum):
    DT = 0
    INTERMEDIATE = 1
    FN = 2
    BREAKDOWN = 3


@dataclass(frozen=True)
class RegimeSegmentation:
    """Per-point regime labels for the kept (positive v and i) points.

    v, i        : the kept points
    kept_index  : indices of the kept points in the original curve
    labels      : Regime value per kept point
    dt_slice    : index range of the ohmic window, or None
    fn_slice    : index range of the field-emission window, or None
    breakdown_start : first post-jump index, or None
    n_dropped   : points removed for non-positive voltage or current
    """

    v: np.ndarray
    i: np.ndarray
    kept_index: np.ndarray
    labels: np.ndarray
    dt_slice: slice | None
    fn_slice: slice | None
    breakdown_start: int | None
    n_dropped: int

    @property
    def dt_window(self) -> tuple[float, float] | None:
        if self.dt_slice is None:
            return None
        return (float(self.v[self.dt_slice][0]), float(self.v[self.dt_slice][-1]))

    @property
    def fn_onset(self) -> float | None:
        if self.fn_slice is None:
            return None
        return float(self.v[self.fn_slice.start])


def _local_loglog_slopes(v: np.ndarray, i: np.ndarray) -> np.ndarray:
    x = np.log(v)
    y = np.log(i)
    n = x.size
    s = np.empty(n)
    s[1:-1] = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
    s[0] = (y[1] - y[0]) / (x[1] - x[0])
    s[-1] = (y[-1] - y[-2]) / (x[-1] - x[-2])
    # 5-point moving mean; at the ends the window slides inward instead of
    # shrinking, so edge estimates average as many samples as interior ones
    w = min(_SMOOTH, n)
    lo = np.clip(np.arange(n) - _SMOOTH // 2, 0, n - w)
    return np.lib.stride_tricks.sliding_window_view(s, w)[lo].mean(axis=1)


def _first_jump(v: np.ndarray, i: np.ndarray) -> int | None:
    """First index at which the current jump is a genuine discontinuity.

    Candidate steps are breakdown.jump_steps at the default factor and floor.
    Each candidate with a successor point is vetoed when the following step
    keeps at least _JUMP_SLOPE_VETO of the jump's log-log slope (the signature
    of a smooth steep channel rather than a failure).  A candidate at the last
    point has no successor; it is accepted only if its log step ratio exceeds
    the linear extrapolation of the preceding ratios by the jump factor.
    """
    x = np.log(v)
    y = np.log(i)
    ln_jf = math.log(DEFAULT_JUMP_FACTOR)
    for n in jump_steps(i, DEFAULT_JUMP_FACTOR, DEFAULT_JUMP_FLOOR_A).tolist():
        jump_slope = (y[n] - y[n - 1]) / (x[n] - x[n - 1])
        if n + 1 < i.size:
            g_post = (y[n + 1] - y[n]) / (x[n + 1] - x[n])
            if g_post < _JUMP_SLOPE_VETO * jump_slope:
                return n
        else:
            if n >= 3:
                pred = max(2.0 * (y[n - 1] - y[n - 2]) - (y[n - 2] - y[n - 3]),
                           y[n - 1] - y[n - 2])
            elif n >= 2:
                pred = y[n - 1] - y[n - 2]
            else:
                pred = 0.0
            if (y[n] - y[n - 1]) > ln_jf + max(pred, 0.0):
                return n
    return None


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop (exclusive) of each run of True values, in order."""
    edges = np.diff(mask.astype(np.int8), prepend=np.int8(0), append=np.int8(0))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def _bridge_gaps(ok: np.ndarray) -> np.ndarray:
    """Fill runs of up to _BRIDGE_MAX False values flanked by True on both sides."""
    start, stop = _runs(~ok)
    inner = (start > 0) & (stop < ok.size) & (stop - start <= _BRIDGE_MAX)
    out = ok.copy()
    out[~ok] = np.repeat(inner, stop - start)
    return out


def _ohmic_run(ok: np.ndarray) -> slice | None:
    """The first True run, if it has >= _MIN_RUN points and starts by _START_MARGIN."""
    start, stop = _runs(ok)
    if start.size and start[0] <= _START_MARGIN and stop[0] - start[0] >= _MIN_RUN:
        return slice(int(start[0]), int(stop[0]))
    return None


def _line(x: np.ndarray, y: np.ndarray) -> Line:
    """Least-squares line; a flat regressor is a DegenerateDataError."""
    line = fit_line(x, y)
    if line.sxx == 0.0:
        raise DegenerateDataError("regressor has zero variance")
    return line


def segment_regimes(iv, slope_tol: float = 0.1, fn_r2_min: float = 0.995,
                    require_dt: bool = True) -> RegimeSegmentation:
    """Label each point of a forward sweep as DT, INTERMEDIATE, FN or BREAKDOWN.

    Raises NoDTWindowError when no qualifying ohmic run exists, unless
    require_dt=False (then dt_slice is simply None, for curves that are known
    to start above the ohmic regime).
    """
    keep = (np.asarray(iv.i) > 0.0) & (np.asarray(iv.v) > 0.0)
    n_dropped = int((~keep).sum())
    v = np.asarray(iv.v, dtype=float)[keep]
    i = np.asarray(iv.i, dtype=float)[keep]
    kept_index = np.nonzero(keep)[0]
    if v.size < _MIN_RUN:
        raise InsufficientDataError(
            f"only {v.size} usable points after dropping {n_dropped}"
        )
    if np.all(i == i[0]):
        raise DegenerateDataError("all currents are equal")

    bstart = _first_jump(v, i)
    n_pre = bstart if bstart is not None else v.size

    labels = np.full(v.size, Regime.INTERMEDIATE, dtype=np.int64)
    if bstart is not None:
        labels[bstart:] = Regime.BREAKDOWN

    dt_slice = None
    fn_slice = None
    if n_pre >= _MIN_RUN:
        ok = np.abs(_local_loglog_slopes(v[:n_pre], i[:n_pre]) - 1.0) <= slope_tol
        dt_slice = _ohmic_run(_bridge_gaps(ok))

        fn_min = dt_slice.stop if dt_slice is not None else 0
        x_all = 1.0 / v[:n_pre]
        y_all = np.log(i[:n_pre] / v[:n_pre] ** 2)
        for j in range(fn_min, n_pre - _MIN_RUN + 1):
            line = _line(x_all[j:], y_all[j:])
            if line.slope < 0.0 and line.r2 >= fn_r2_min:
                fn_slice = slice(j, n_pre)
                break

    if dt_slice is None and require_dt:
        raise NoDTWindowError(
            f"no run of >= {_MIN_RUN} points with log-log slope within "
            f"1 +- {slope_tol} at the low-voltage end"
        )
    if dt_slice is not None:
        labels[dt_slice] = Regime.DT
    if fn_slice is not None:
        labels[fn_slice] = Regime.FN

    return RegimeSegmentation(
        v=v, i=i, kept_index=kept_index, labels=labels,
        dt_slice=dt_slice, fn_slice=fn_slice,
        breakdown_start=bstart, n_dropped=n_dropped,
    )


def fit_k_from_dt(iv, t_ox_nm: float, area_um2: float | None = None,
                  beta: float = DEFAULT_BETA,
                  segmentation: RegimeSegmentation | None = None,
                  slope_tol: float = 0.1, fn_r2_min: float = 0.995) -> float:
    """Tunneling decay constant k [1/nm] from the ohmic window of a sweep.

    Fits the through-origin conductance G over the ohmic window, then solves
    G = alpha * k * A * exp(-k * t_ox) / t_ox for k on the decaying branch
    k > 1/t_ox (the physical branch for thicknesses of a few nm).  In logs
    that is ln k - k * t_ox = c, whose branch root is -W_-1(-t_ox e^c) / t_ox
    (the lower Lambert W branch; Corless et al., Adv. Comput. Math. 5,
    1996).  It is found by Newton's method from the
    upper end of a doubling bracket: the log excess is concave and falls on
    the branch, so the iterates fall monotonically onto the root and stop
    when a step no longer lowers k, i.e. to machine precision.

    Raises NoRootError when G exceeds the largest conductance the model can
    reach at this thickness (the branch maximum at k = 1/t_ox).
    """
    if not (t_ox_nm > 0.0):
        raise ValueError(f"t_ox must be positive, got {t_ox_nm}")
    if area_um2 is None:
        area_um2 = getattr(iv, "area_um2", None)
    if area_um2 is None:
        raise ValueError("junction area is required (argument or iv.area_um2)")
    if segmentation is None:
        segmentation = segment_regimes(iv, slope_tol=slope_tol, fn_r2_min=fn_r2_min)
    if segmentation.dt_slice is None:
        raise NoDTWindowError("segmentation has no ohmic window")
    v = segmentation.v[segmentation.dt_slice]
    i = segmentation.i[segmentation.dt_slice]
    g = float(np.sum(v * i) / np.sum(v * v))
    if not (g > 0.0):
        raise NoRootError(f"non-positive ohmic conductance {g}")

    alpha = direct_tunneling_prefactor(beta)
    log_pref = math.log(alpha * um2_to_m2(area_um2) / nm_to_m(t_ox_nm))

    def log_excess(k_per_nm: float) -> float:
        return log_pref + math.log(k_per_nm * 1e9) - k_per_nm * t_ox_nm - math.log(g)

    k_peak = 1.0 / t_ox_nm
    if log_excess(k_peak) < 0.0:
        raise NoRootError(
            f"conductance {g:.4g} A/V exceeds the model maximum at this thickness"
        )
    k_hi = 2.0 * k_peak
    while log_excess(k_hi) > 0.0:
        k_hi *= 2.0
        if k_hi > 1e6:
            raise NoRootError("no finite bracket for k")
    k = k_hi
    while True:
        f = log_excess(k)
        if f >= 0.0:
            return k
        k_next = k - f / (1.0 / k - t_ox_nm)
        if not (k_peak <= k_next < k):
            return k
        k = k_next


def fit_msclc_exponent(iv, window: tuple[float, float]) -> float:
    """Power-law exponent m over a voltage window (ln i against ln v, OLS).

    m close to 2 is trap-free space-charge flow; m > 2 indicates trap-filling
    transport.  The window is inclusive; points with non-positive current are
    discarded first; at least 4 points must remain.
    """
    v_lo, v_hi = window
    if not (v_lo > 0.0 and v_hi > v_lo):
        raise ValueError(f"window must satisfy 0 < lo < hi, got {window}")
    v = np.asarray(iv.v, dtype=float)
    i = np.asarray(iv.i, dtype=float)
    sel = (v >= v_lo) & (v <= v_hi) & (i > 0.0)
    if int(sel.sum()) < _MIN_RUN:
        raise InsufficientDataError(
            f"only {int(sel.sum())} usable points in window {window}"
        )
    return _line(np.log(v[sel]), np.log(i[sel])).slope


def fit_fn_slope(iv, segmentation: RegimeSegmentation | None = None,
                 slope_tol: float = 0.1, fn_r2_min: float = 0.995,
                 require_dt: bool = False) -> tuple[float, float]:
    """Slope of ln(i/v^2) against 1/v over the field-emission window.

    Returns (slope [V], r_squared).  For ideal field emission the slope is
    -b * t_ox * phi^1.5.  Raises NoFNWindowError when the segmentation has no
    field-emission window.
    """
    if segmentation is None:
        segmentation = segment_regimes(
            iv, slope_tol=slope_tol, fn_r2_min=fn_r2_min, require_dt=require_dt
        )
    if segmentation.fn_slice is None:
        raise NoFNWindowError("segmentation has no field-emission window")
    v = segmentation.v[segmentation.fn_slice]
    i = segmentation.i[segmentation.fn_slice]
    line = _line(1.0 / v, np.log(i / v**2))
    return line.slope, line.r2


def barrier_height_from_fn_slope(slope_v: float, t_ox_nm: float) -> float:
    """Barrier height [eV] implied by a field-emission slope.

    phi = (-slope / (b * t_ox))^(2/3).  Exposed for completeness: on real
    junctions this route is known to land far from the barrier height the
    ohmic window gives (factors of a few), so treat the result as a
    consistency diagnostic, not a measurement.
    """
    if not (slope_v < 0.0):
        raise ValueError(f"field-emission slope must be negative, got {slope_v}")
    if not (t_ox_nm > 0.0):
        raise ValueError(f"t_ox must be positive, got {t_ox_nm}")
    return float((-slope_v / (CONST.b_fn * t_ox_nm)) ** (2.0 / 3.0))
